// The benchmark workloads (README.md in this directory says why each
// exists). Each returns its checked op counts, its end-to-end metrics from
// an untraced pass and, when args.trace is set, its per-layer metrics from
// a traced pass over the same seed.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_verify_resident(const Args& args);
Result run_lot_study(const Args& args);
Result run_roc_study(const Args& args);

/// Master seed of a run: the population and the op order derive from it.
std::uint64_t master_seed_of(std::uint64_t seed);

/// How many times a trace-off run repeats its set-up (setup_s is their
/// median).
inline constexpr int kSetupRepeats = 3;

}  // namespace perfbench
