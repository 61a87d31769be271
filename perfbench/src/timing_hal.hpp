// A forwarding FlashHal that times every command it passes down.
//
// Every virtual is forwarded, read_segment included: the base-class default
// is a read_word loop, which would change both the cost and the read-noise
// stream of the die underneath. The phys kernels run beneath the HAL, so
// their time is part of the command that called them.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "flash/hal.hpp"

namespace perfbench {

/// Time per command class, summed over the commands of one operation.
struct HalTimes {
  double erase_ms = 0.0;          ///< erase_segment, erase_segment_auto
  double partial_erase_ms = 0.0;  ///< partial_erase_segment
  double program_ms = 0.0;        ///< program_word/_block, partial_program
  double read_ms = 0.0;           ///< read_word, read_segment
  double wear_ms = 0.0;           ///< wear_segment
  std::uint64_t cmds = 0;

  double total_ms() const {
    return erase_ms + partial_erase_ms + program_ms + read_ms + wear_ms;
  }
};

class TimingHal : public flashmark::FlashHal {
 public:
  explicit TimingHal(flashmark::FlashHal& inner) : inner_(inner) {}

  const HalTimes& times() const { return t_; }

  const flashmark::FlashGeometry& geometry() const override {
    return inner_.geometry();
  }
  const flashmark::FlashTiming& timing() const override {
    return inner_.timing();
  }
  flashmark::SimTime now() const override { return inner_.now(); }

  void erase_segment(flashmark::Addr addr) override {
    Span s(t_.erase_ms, t_.cmds);
    inner_.erase_segment(addr);
  }
  flashmark::SimTime erase_segment_auto(flashmark::Addr addr) override {
    Span s(t_.erase_ms, t_.cmds);
    return inner_.erase_segment_auto(addr);
  }
  void partial_erase_segment(flashmark::Addr addr,
                             flashmark::SimTime t_pe) override {
    Span s(t_.partial_erase_ms, t_.cmds);
    inner_.partial_erase_segment(addr, t_pe);
  }
  void program_word(flashmark::Addr addr, std::uint16_t value) override {
    Span s(t_.program_ms, t_.cmds);
    inner_.program_word(addr, value);
  }
  void partial_program_word(flashmark::Addr addr, std::uint16_t value,
                            flashmark::SimTime t_prog) override {
    Span s(t_.program_ms, t_.cmds);
    inner_.partial_program_word(addr, value, t_prog);
  }
  void program_block(flashmark::Addr addr,
                     const std::vector<std::uint16_t>& words) override {
    Span s(t_.program_ms, t_.cmds);
    inner_.program_block(addr, words);
  }
  std::uint16_t read_word(flashmark::Addr addr) override {
    Span s(t_.read_ms, t_.cmds);
    return inner_.read_word(addr);
  }
  flashmark::BitVec read_segment(flashmark::Addr addr, int n_reads) override {
    Span s(t_.read_ms, t_.cmds);
    return inner_.read_segment(addr, n_reads);
  }
  void wear_segment(flashmark::Addr addr, double cycles,
                    const flashmark::BitVec* pattern) override {
    Span s(t_.wear_ms, t_.cmds);
    inner_.wear_segment(addr, cycles, pattern);
  }

 private:
  /// Adds the lifetime of the enclosing command to one class's sum.
  class Span {
   public:
    Span(double& sum, std::uint64_t& cmds)
        : sum_(sum), t0_(Clock::now()) {
      ++cmds;
    }
    ~Span() { sum_ += ms_between(t0_, Clock::now()); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    double& sum_;
    Clock::time_point t0_;
  };

  flashmark::FlashHal& inner_;
  HalTimes t_;
};

}  // namespace perfbench
