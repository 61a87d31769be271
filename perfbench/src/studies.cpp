// Study workloads: the batch pipelines a lab runs per lot, each over two
// forked shard workers with one thread each.
//
//   lot_study  lot::run_lot on the default 12-cell grid (3 imprint depths x
//              4 corners): wear, batch imprint and single-round extract.
//   roc_study  scenario::run_roc_study on the full 7-population threat
//              battery: FTL aging, attack steps and challenge scoring.
//
// A run is a fixed list of K studies of a fixed size, each with its own
// master seed derived from the run's seed; latency_p50_ms is the median
// study wall time, so it gates dies/s. The runners fork before any thread
// exists, so nothing here starts a thread.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "core/watermark.hpp"
#include "fleet/fleet.hpp"
#include "lot/lot.hpp"
#include "scenario/roc.hpp"
#include "timing_hal.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace flashmark;

namespace {

/// A study workload's fixed list: `studies` runs of `dies` dies.
struct StudyPlan {
  std::size_t studies = 0;
  std::uint64_t dies = 0;
};

/// lot_study: about 2 200 dies/s over 2 shards on a 4-vCPU host.
StudyPlan lot_plan(double seconds) {
  StudyPlan p;
  p.studies = 4;
  p.dies = std::max<std::uint64_t>(
      48, static_cast<std::uint64_t>(2'200.0 * seconds / double(p.studies)));
  p.dies -= p.dies % 12;  // whole grid stripes: every cell equally filled
  return p;
}

/// roc_study: about 24 dies/s over 2 shards (four of the seven populations
/// spend ~125 ms per die in FTL aging).
StudyPlan roc_plan(double seconds) {
  StudyPlan p;
  p.studies = 3;
  p.dies = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(24.0 * seconds / 7.0 / double(p.studies)));
  return p;  // dies per population
}

std::uint64_t study_seed(std::uint64_t master, std::size_t k) {
  return fleet::derive_die_seed(master, 0x5707'0000ull + k);
}

lot::LotConfig lot_config(std::uint64_t seed, std::uint64_t dies) {
  lot::LotConfig cfg;  // the default 12-cell grid
  cfg.master_seed = seed;
  cfg.n_dies = dies;
  return cfg;
}

lot::LotOptions shard_options() {
  lot::LotOptions o;
  o.shards = 2;
  o.threads = 1;
  return o;
}

scenario::RocConfig roc_config(std::uint64_t seed, std::uint64_t per_pop) {
  scenario::RocConfig cfg;
  cfg.base.master_seed = seed;
  cfg.dies_per_population = per_pop;
  cfg.populations = {
      scenario::Scenario::genuine_fresh(),
      scenario::Scenario::recycled_resale(),
      scenario::Scenario::recycled_bake(),
      scenario::Scenario::recycled_remap(),
      scenario::Scenario::remarked_recycled(),
      scenario::Scenario::partial_clone(),
      scenario::Scenario::full_clone(),
  };
  return cfg;
}

/// One timed pass over a study list.
struct StudyPass {
  std::vector<double> study_ms;
  std::vector<double> runner_ms;  ///< lot: runner wall minus shard wall
  double wall_s = 0.0;
  double cpu_ms = 0.0;
  HostTicks h0, h1;
  std::uint64_t attempted = 0, failed = 0;
  std::string csv;  ///< every study's CSVs, in order
};

StudyPass run_lots(const StudyPlan& p, std::uint64_t master) {
  StudyPass s;
  s.h0 = HostTicks::now();
  const double cpu0 = process_cpu_ms();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < p.studies; ++k) {
    const lot::LotConfig cfg = lot_config(study_seed(master, k), p.dies);
    const Clock::time_point a = Clock::now();
    const lot::LotResult r = lot::run_lot(cfg, shard_options());
    s.study_ms.push_back(ms_between(a, Clock::now()));
    s.runner_ms.push_back(r.wall_ms - r.fleet.wall_ms);
    s.attempted += cfg.n_dies;
    std::uint64_t failed = 0;
    for (const lot::LotCellAccum& c : r.cells) failed += c.failed;
    if (r.shards_lost > 0 || r.interrupted_signal != 0) failed = cfg.n_dies;
    s.failed += failed;
    s.csv += "# lot " + std::to_string(k) + "\n" + r.detection_csv() +
             r.ber_csv();
  }
  s.wall_s = s_between(t0, Clock::now());
  s.cpu_ms = process_cpu_ms() - cpu0;
  s.h1 = HostTicks::now();
  return s;
}

StudyPass run_rocs(const StudyPlan& p, std::uint64_t master) {
  StudyPass s;
  s.h0 = HostTicks::now();
  const double cpu0 = process_cpu_ms();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t k = 0; k < p.studies; ++k) {
    const scenario::RocConfig cfg = roc_config(study_seed(master, k), p.dies);
    const std::uint64_t dies = p.dies * cfg.populations.size();
    s.attempted += dies;
    scenario::RocOptions o;
    o.shards = 2;
    o.threads = 1;
    const Clock::time_point a = Clock::now();
    try {
      const scenario::RocResult r = scenario::run_roc_study(cfg, o);
      s.study_ms.push_back(ms_between(a, Clock::now()));
      for (const scenario::ScoreHistogram& h : r.hists)
        if (h.n != p.dies) s.failed += p.dies - std::min(h.n, p.dies);
      s.csv += "# roc " + std::to_string(k) + "\n" + r.roc_csv() +
               r.thresholds_csv();
    } catch (const std::exception& e) {
      // A lost or corrupt shard: the whole study's dies failed.
      std::printf("# roc study %zu failed: %s\n", k, e.what());
      s.study_ms.push_back(ms_between(a, Clock::now()));
      s.failed += dies;
    }
  }
  s.wall_s = s_between(t0, Clock::now());
  s.cpu_ms = process_cpu_ms() - cpu0;
  s.h1 = HostTicks::now();
  return s;
}

/// Set-up of a study run: what precedes the first timed study — the
/// config, plus a small in-process warm-up study (lazy kernel set-up and
/// first-touch page faults land here, not in the timed list).
double lot_setup(std::uint64_t master) {
  const Clock::time_point t0 = Clock::now();
  lot::LotOptions o;
  o.shards = 1;
  o.threads = 1;
  (void)lot::run_lot(lot_config(study_seed(master, 999), 384), o);
  return s_between(t0, Clock::now());
}

double roc_setup(std::uint64_t master) {
  const Clock::time_point t0 = Clock::now();
  scenario::RocOptions o;
  o.shards = 1;
  o.threads = 1;
  (void)scenario::run_roc_study(roc_config(study_seed(master, 999), 1), o);
  return s_between(t0, Clock::now());
}

void fill_end_to_end(Result& res, const std::vector<double>& setup_s,
                     const StudyPass& s) {
  res.attempted = s.attempted;
  res.failed = s.failed;
  res.steal_pct = steal_pct(s.h0, s.h1);
  res.add(res.end_to_end, "setup_s", median(setup_s), "s");
  res.add(res.end_to_end, "latency_p50_ms", median(s.study_ms), "ms");
  res.add(res.end_to_end, "cpu_ms_per_op", s.cpu_ms / double(s.attempted),
          "ms");
}

void print_study(const char* tag, const StudyPass& s) {
  std::printf("# %s: %llu dies in %.3f s, %.1f dies/s, study p50 %.1f ms, "
              "cpu %.4f ms/die, %llu failed, csv digest %s\n",
              tag, static_cast<unsigned long long>(s.attempted), s.wall_s,
              double(s.attempted) / s.wall_s, median(s.study_ms),
              s.cpu_ms / double(s.attempted),
              static_cast<unsigned long long>(s.failed),
              [&] {
                Digest d;
                d.add(s.csv);
                return d.hex();
              }()
                  .c_str());
}

/// The timed pass (after set-up, repeated on trace-off runs) and its output
/// checks. The study path carries no instrumentation — its traced run adds
/// only the step replay below — so trace.overhead_pct is 0 here.
template <typename SetupFn, typename PassFn>
StudyPass run_study(const Args& args, const char* name, SetupFn setup,
                    PassFn pass_fn, Result& res) {
  const std::uint64_t master = master_seed_of(args.seed);
  res.busy_threads = 2;
  std::vector<double> setup_s;
  for (int i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i)
    setup_s.push_back(setup(master));
  StudyPass pass = pass_fn(master);
  print_study("untraced", pass);
  check_reference(args, std::string(name) + "." + reference_key(args) + ".ref",
                  pass.csv, res.errors);
  fill_end_to_end(res, setup_s, pass);
  return pass;
}

}  // namespace

Result run_lot_study(const Args& args) {
  const StudyPlan p = lot_plan(args.seconds);
  std::printf("# lot_study: %zu lots x %llu dies, 2 shards x 1 thread\n",
              p.studies, static_cast<unsigned long long>(p.dies));
  Result res;
  const StudyPass pass = run_study(
      args, "lot_study", lot_setup,
      [&](std::uint64_t m) { return run_lots(p, m); }, res);
  if (args.trace) {
    // Replay the first dies of lot 0 step by step, mirroring the runner's
    // per-die job (src/lot/lot.cpp run_shard_range) through a timing HAL.
    const lot::LotConfig cfg =
        lot_config(study_seed(master_seed_of(args.seed), 0), p.dies);
    const Addr addr = cfg.device.geometry.segment_base(cfg.segment);
    const std::size_t seg_cells =
        cfg.device.geometry.segment_cells(cfg.segment);
    std::vector<double> die, manufacture, imprint, extract, judge, wear,
        erase, perase, program, read, cmds;
    const std::size_t P = cfg.npe_points.size(), C = cfg.conditions.size();
    for (std::uint64_t d = 0; d < std::min<std::uint64_t>(48, p.dies); ++d) {
      const std::uint32_t npe = cfg.npe_points[d % P];
      const lot::LotCondition& cond = cfg.conditions[(d / P) % C];
      const Clock::time_point t0 = Clock::now();
      Device dev(cfg.device, fleet::derive_die_seed(cfg.master_seed, d));
      dev.array().set_temperature_c(cond.temperature_c);
      const Clock::time_point t1 = Clock::now();
      TimingHal hal(dev.hal());
      if (cond.pre_wear_cycles > 0.0)
        hal.wear_segment(addr, cond.pre_wear_cycles, nullptr);
      WatermarkSpec spec;
      spec.fields = cfg.fields_for(d);
      spec.key = cfg.key;
      spec.n_replicas = cfg.n_replicas;
      spec.npe = npe;
      spec.strategy = ImprintStrategy::kBatchWear;
      const EncodedWatermark enc = encode_watermark(spec, seg_cells);
      ImprintOptions io;
      io.npe = npe;
      io.strategy = ImprintStrategy::kBatchWear;
      io.accelerated = spec.accelerated;
      const Clock::time_point t2 = Clock::now();
      imprint_flashmark(hal, addr, enc.segment_pattern, io);
      const Clock::time_point t3 = Clock::now();
      ExtractOptions eo;
      eo.t_pew = cfg.t_pew;
      const ExtractResult ext = extract_flashmark(hal, addr, eo);
      const Clock::time_point t4 = Clock::now();
      VerifyOptions vo;
      vo.t_pew = cfg.t_pew;
      vo.n_replicas = cfg.n_replicas;
      vo.key = cfg.key;
      (void)judge_extracted_bits(ext.bits, vo);
      const Clock::time_point t5 = Clock::now();
      die.push_back(ms_between(t0, t5));
      manufacture.push_back(ms_between(t0, t1));
      imprint.push_back(ms_between(t2, t3));
      extract.push_back(ms_between(t3, t4));
      judge.push_back(ms_between(t4, t5));
      const HalTimes& h = hal.times();
      wear.push_back(h.wear_ms);
      erase.push_back(h.erase_ms);
      perase.push_back(h.partial_erase_ms);
      program.push_back(h.program_ms);
      read.push_back(h.read_ms);
      cmds.push_back(double(h.cmds));
    }
    auto& L = res.per_layer;
    res.add(L, "lot.runner_ms", median(pass.runner_ms), "ms");
    res.add(L, "lot.die_ms", median(die), "ms");
    res.add(L, "mcu.manufacture_ms", median(manufacture), "ms");
    res.add(L, "core.imprint_ms", median(imprint), "ms");
    res.add(L, "core.extract_ms", median(extract), "ms");
    res.add(L, "core.judge_ms", median(judge), "ms");
    res.add(L, "flash.wear_ms", median(wear), "ms");
    res.add(L, "flash.erase_ms", median(erase), "ms");
    res.add(L, "flash.partial_erase_ms", median(perase), "ms");
    res.add(L, "flash.program_ms", median(program), "ms");
    res.add(L, "flash.read_ms", median(read), "ms");
    res.add(L, "flash.cmds_per_op", median(cmds), "count");
  }
  res.add(res.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

Result run_roc_study(const Args& args) {
  const StudyPlan p = roc_plan(args.seconds);
  std::printf("# roc_study: %zu studies x 7 populations x %llu dies, 2 "
              "shards x 1 thread\n",
              p.studies, static_cast<unsigned long long>(p.dies));
  Result res;
  run_study(args, "roc_study", roc_setup,
            [&](std::uint64_t m) { return run_rocs(p, m); }, res);
  if (args.trace) {
    // Replay: the calibration, then the first dies of every population of
    // study 0, built and scored one step at a time.
    scenario::RocConfig cfg =
        roc_config(study_seed(master_seed_of(args.seed), 0), p.dies);
    const Clock::time_point t0 = Clock::now();
    scenario::calibrate(cfg.base);
    res.add(res.per_layer, "scenario.calibrate_ms",
            ms_between(t0, Clock::now()), "ms");
    for (const scenario::Scenario& sc : cfg.populations) {
      std::vector<double> build, score;
      for (std::uint64_t d = 0; d < std::min<std::uint64_t>(3, p.dies); ++d) {
        const Clock::time_point a = Clock::now();
        scenario::PresentedDie die = scenario::run_scenario_die(cfg.base, sc, d);
        const Clock::time_point b = Clock::now();
        (void)scenario::score_die(cfg.base, die);
        build.push_back(ms_between(a, b));
        score.push_back(ms_between(b, Clock::now()));
      }
      res.add(res.per_layer, "scenario.build_ms." + sc.name, median(build),
              "ms");
      res.add(res.per_layer, "scenario.score_ms." + sc.name, median(score),
              "ms");
    }
  }
  res.add(res.end_to_end, "peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

}  // namespace perfbench
