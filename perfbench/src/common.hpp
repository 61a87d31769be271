// Shared plumbing of the repository benchmark: clocks, CPU and memory
// accounting, host-noise diagnostics, order statistics, output digests and
// the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The benchmark's default seed: references in perfbench/reference are kept
/// for this seed only.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Directory of the reference digests and CSVs (perfbench/reference).
  std::string reference_dir;
  /// Rewrite the reference of this (workload, size) instead of checking it.
  bool write_reference = false;
};

/// Process CPU (user + sys) in ms: this process's threads plus every child
/// it has waited for (forked shard workers).
double process_cpu_ms();
/// CPU of the calling thread in ms.
double thread_cpu_ms();
/// Peak resident set in MB: the larger of this process and its largest
/// waited-for child.
double peak_rss_mb();

/// Restrict this process (and every thread or child it starts later) to
/// the first `n` vCPUs it may run on. Returns the vCPU count it runs on.
unsigned restrict_vcpus(unsigned n);

/// Aggregate host CPU counters from /proc/stat, for the steal share.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static HostTicks now();
};
/// Steal share of all host CPU time between two snapshots, in percent
/// (0 when /proc/stat is unavailable).
double steal_pct(const HostTicks& a, const HostTicks& b);

/// Median; 0 for an empty sample.
double median(std::vector<double> v);
/// Nearest-rank percentile (p in (0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// FNV-1a 64-bit digest, rendered as 16 hex digits.
class Digest {
 public:
  void add(const std::string& s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Exact text rendering of a double (hexfloat), for digests.
std::string exact(double v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output and self-check failures other than failed ops (digest or CSV
  /// mismatch, a workload that turned into another one, ...).
  std::vector<std::string> errors;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Host steal share over the measured phase, and the busy-thread budget.
  double steal_pct = 0.0;
  unsigned busy_threads = 0;

  void add(std::vector<Metric>& to, const std::string& name, double value,
           const std::string& unit) {
    to.push_back({name, value, unit});
  }
};

/// Compare `text` against the reference file `<dir>/<name>` (or write it
/// when `write`). A mismatch or a missing reference is appended to
/// `errors`.
void check_reference(const Args& args, const std::string& name,
                     const std::string& text, std::vector<std::string>& errors);

/// Key of a run's size in reference file names: the default seed plus the
/// run length, e.g. "seed1-10s".
std::string reference_key(const Args& args);

/// Remove a directory tree if it exists (errors ignored).
void remove_tree(const std::string& path);

}  // namespace perfbench
