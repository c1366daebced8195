// The benchmark's workloads (perfbench/README.md says why each exists).
//
// Every workload follows the same shape:
//   1. set-up, repeated kSetupReps times and timed (setup_s = median): make
//      the inputs from the seed and run one untimed warm-up pass, so lazy
//      initialisation and first-touch page faults are paid before timing;
//   2. the correctness gate, before any number counts: pinned digests for
//      the default seed, cross-path identity checks for any other seed;
//   3. untraced (--trace 0): measured passes for --seconds, every output
//      checked against the gate, end-to-end metrics from the medians;
//      traced (--trace 1): untraced and traced passes alternate for
//      --seconds; the traced ones give the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline constexpr int kSetupReps = 4;
/// The seed whose outputs are pinned in pins.h.
inline constexpr std::uint64_t kDefaultSeed = 1;

void run_direct_mem(const RunArgs& args, Report& report);
void run_direct_compute(const RunArgs& args, Report& report);
void run_sweep_tab1(const RunArgs& args, Report& report);
void run_sampled_trace(const RunArgs& args, Report& report);
void run_serve_mixed(const RunArgs& args, Report& report);

/// Simulated-time counts shared by every workload: the cpu/mem/pg rows of
/// the per-layer table, pooled over the workload's cells.
void set_model_counts(Report& report, const std::vector<mapg::SimResult>& cells);

/// Gate check against pins.h: with the default seed, `digest` must equal
/// the pinned value for `key`; with any other seed this is a no-op (the
/// caller checks cross-path identities instead).  Each pinned check prints
/// the observed digest to stderr so a deliberate re-pin can copy it.
void check_pin(Report& report, const RunArgs& args, const std::string& key,
               std::uint64_t digest);

/// Writes the Chrome trace of a traced run to kOutDir and reports where.
void finish_trace(const RunArgs& args);

}  // namespace perfbench
