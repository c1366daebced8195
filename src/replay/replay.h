// Single-pass policy sweeps: record the stall timeline once, replay it per
// policy.
//
// The enabling observation (pg/stall_kernel.h): a full-core stall window is
// fully determined at onset by its StallEvent plus circuit constants, and
// the StallHandler's returned resume cycle is the ONLY channel by which a
// gating policy influences core or memory timing.  A policy whose every
// window resolves with resume == data_ready (zero visible wake penalty)
// therefore produces a run whose core timing, trace consumption, cache and
// DRAM state are bit-identical to the `none` reference — only the gating
// statistics and the energy derived from them differ.
//
// record_timeline() runs the reference once (under `none`), materializing
// the trace into an immutable shared buffer and capturing the ordered
// StallEvent sequence.  replay_policy() then re-resolves each recorded
// window through the real PgController (same policy factory, same stall
// kernel, same parameters as a direct run) and reconstitutes a complete
// SimResult by copying the reference's core/hierarchy/DRAM statistics and
// recomputing gating + energy.
//
// Exactness guard: the replayer checks resume == data_ready per window as
// it goes.  The first penalized window voids the equivalence — a penalty
// shifts all later timing, refresh alignment, and DRAM state — so the
// replayer bails out (ReplayOutcome::ok == false) and the caller falls back
// to direct simulation of that cell over the shared materialized trace
// (SharedTraceView).  tests/test_replay.cpp proves replay == direct
// JSON-identical for eligible cells and byte-identical fallback, on
// generator and on traced, phased timelines.
//
// Layering: exec -> replay -> core.  Nothing in core depends on replay.
#pragma once

#include <memory>
#include <string>

#include "core/sim.h"

namespace mapg {

/// One recorded reference run: the platform/workload identity it was
/// recorded under, the materialized trace + stall sequence, and the full
/// `none` SimResult (shared; also usable as the sweep's baseline cell).
struct StallTimeline {
  SimConfig config;
  WorkloadProfile profile;
  RunRecord record;
  std::shared_ptr<const SimResult> reference;
};

/// Run the `none` reference once and capture the timeline.  Deterministic
/// function of (config, profile); the reference result is bit-identical to
/// Simulator(config).run(profile, "none").
StallTimeline record_timeline(const SimConfig& config,
                              const WorkloadProfile& profile);

/// Trace-source variant: records the reference from an externally provided
/// stream (e.g. a file-trace window in sampled simulation, src/sample)
/// instead of a profile's generator.  The timeline's `profile` is a stub
/// carrying only `workload_name` — replay_policy consults nothing else (it
/// feeds recorded events), and a fallback reads the materialized trace, so
/// every replay tier applies to traced timelines unchanged.
StallTimeline record_timeline_traced(const SimConfig& config,
                                     TraceSource& trace,
                                     const std::string& workload_name);

struct ReplayOutcome {
  /// true: every window resolved with resume == data_ready and `result` is
  /// bit-identical to a direct run.  false: a window was penalized (windows
  /// counts how many were replayed, the last one being the penalized one,
  /// so its index is windows - 1); the caller must fall back to direct
  /// simulation.
  bool ok = false;
  std::uint64_t windows = 0;  ///< windows replayed (warmup + measured)
  SimResult result;           ///< valid only when ok
};

/// Replay the timeline under `policy_spec`.  Throws std::invalid_argument
/// on an unknown spec (same contract as Simulator::run).  Increments the
/// sim.replay.{windows,cells} obs counters; fallback accounting
/// (sim.replay.full_fallbacks) is the caller's job.
ReplayOutcome replay_policy(const StallTimeline& timeline,
                            const std::string& policy_spec);

}  // namespace mapg
