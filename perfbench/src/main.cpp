// flashmark_perfbench — the repository benchmark (see README.md here).
//
//   flashmark_perfbench --workload W --seed N --seconds S --trace 0|1
//                       [--reference-dir DIR] [--write-reference]
//
// Runs one workload in the current directory (its work space), checks
// every output, and prints as its last stdout line one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Lines before it,
// starting with '#', are diagnostics. Exit code 0 only when every check
// passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {

std::uint64_t master_seed_of(std::uint64_t seed) {
  return flashmark::fleet::derive_die_seed(0xF1A5'0001, seed);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, printed by every traced run. A layer or step the
/// workload does not cross (or its traced run does not measure) reads 0.
constexpr MetricDef kPerLayer[] = {
    {"serve.pre_ms", "ms"},
    {"serve.post_ms", "ms"},
    {"serve.shed", "count"},
    {"serve.failed", "count"},
    {"serve.start_s", "s"},
    {"serve.verifies_per_s", "1/s"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.latency_n", "count"},
    {"core.verify_ms", "ms"},
    {"core.self_ms", "ms"},
    {"core.imprint_ms", "ms"},
    {"core.extract_ms", "ms"},
    {"core.judge_ms", "ms"},
    {"flash.erase_ms", "ms"},
    {"flash.partial_erase_ms", "ms"},
    {"flash.program_ms", "ms"},
    {"flash.read_ms", "ms"},
    {"flash.wear_ms", "ms"},
    {"flash.cmds_per_op", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.pin_ms", "ms"},
    {"store.loads_per_op", "count"},
    {"store.eviction_saves_per_op", "count"},
    {"session.enroll_ms", "ms"},
    {"session.journal_ms", "ms"},
    {"fleet.populate_s", "s"},
    {"mcu.manufacture_ms", "ms"},
    {"lot.runner_ms", "ms"},
    {"lot.die_ms", "ms"},
    {"scenario.calibrate_ms", "ms"},
    {"scenario.build_ms.genuine-fresh", "ms"},
    {"scenario.build_ms.recycled-resale", "ms"},
    {"scenario.build_ms.recycled-bake", "ms"},
    {"scenario.build_ms.recycled-remap", "ms"},
    {"scenario.build_ms.remarked-recycled", "ms"},
    {"scenario.build_ms.partial-clone", "ms"},
    {"scenario.build_ms.full-clone", "ms"},
    {"scenario.score_ms.genuine-fresh", "ms"},
    {"scenario.score_ms.recycled-resale", "ms"},
    {"scenario.score_ms.recycled-bake", "ms"},
    {"scenario.score_ms.recycled-remap", "ms"},
    {"scenario.score_ms.remarked-recycled", "ms"},
    {"scenario.score_ms.partial-clone", "ms"},
    {"scenario.score_ms.full-clone", "ms"},
    {"trace.overhead_pct", "%"},
    {"host.steal_pct", "%"},
    {"host.busy_threads", "count"},
};

/// The metrics of the final line, in table order: each table entry must be
/// measured at most once; the per-layer table fills unmeasured ones with 0.
template <std::size_t N>
std::vector<Metric> select(const MetricDef (&table)[N],
                           const std::vector<Metric>& measured,
                           bool zero_fill, std::vector<std::string>& errors) {
  std::vector<Metric> out;
  for (const MetricDef& def : table) {
    const Metric* found = nullptr;
    for (const Metric& m : measured) {
      if (m.name != def.name) continue;
      if (found) errors.push_back("metric measured twice: " + m.name);
      found = &m;
    }
    if (found && found->unit != def.unit)
      errors.push_back("metric " + found->name + " has unit " + found->unit);
    if (!found && !zero_fill) errors.push_back(std::string("metric missing: ") + def.name);
    out.push_back({def.name, found ? found->value : 0.0, def.unit});
  }
  for (const Metric& m : measured) {
    bool known = false;
    for (const MetricDef& def : table) known = known || m.name == def.name;
    if (!known) errors.push_back("metric not in the table: " + m.name);
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: flashmark_perfbench --workload "
               "verify_resident|lot_study|roc_study --seed N "
               "--seconds S --trace 0|1 [--reference-dir DIR] "
               "[--write-reference]\n");
  return 2;
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value)
      args.workload = argv[++i];
    else if (a == "--seed" && has_value)
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has_value)
      args.seconds = std::strtod(argv[++i], nullptr);
    else if (a == "--trace" && has_value)
      args.trace = std::strcmp(argv[++i], "0") != 0;
    else if (a == "--reference-dir" && has_value)
      args.reference_dir = argv[++i];
    else if (a == "--write-reference")
      args.write_reference = true;
    else
      return usage();
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) return usage();

  // The busy-thread budget, enforced: no more than three of this host's
  // vCPUs run the workload at once. On verify_resident the budget is then
  // fully busy (two workers and the spinning load generator), so handoffs
  // between threads wake a running vCPU instead of a halted one — a halted
  // vCPU's wake-up is where hypervisor steal lands.
  const unsigned vcpus = restrict_vcpus(3);

  Result res;
  if (args.workload == "verify_resident")
    res = run_verify_resident(args);
  else if (args.workload == "lot_study")
    res = run_lot_study(args);
  else if (args.workload == "roc_study")
    res = run_roc_study(args);
  else
    return usage();

  std::printf("# noise: host steal %.2f%% of CPU time over the measured "
              "phase; %u busy threads on %u vCPUs\n",
              res.steal_pct, res.busy_threads, vcpus);
  res.add(res.per_layer, "host.steal_pct", res.steal_pct, "%");
  res.add(res.per_layer, "host.busy_threads", double(res.busy_threads),
          "count");
  std::vector<std::string> errors = res.errors;
  std::vector<Metric> metrics =
      args.trace ? select(kPerLayer, res.per_layer, true, errors)
                 : select(kEndToEnd, res.end_to_end, false, errors);
  for (Metric& m : metrics)
    if (!std::isfinite(m.value)) {
      errors.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  if (res.attempted == 0) errors.push_back("no op attempted");
  for (const std::string& e : errors) std::printf("# ERROR: %s\n", e.c_str());
  const bool correct = errors.empty() && res.failed == 0;

  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(res.attempted);
  line += ", \"failed\": " + std::to_string(res.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    line += buf;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "flashmark_perfbench: %s\n", e.what());
    return 1;
  }
}
