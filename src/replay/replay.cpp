#include "replay/replay.h"

#include <stdexcept>

#include "obs/obs.h"

namespace mapg {

StallTimeline record_timeline(const SimConfig& config,
                              const WorkloadProfile& profile) {
  StallTimeline tl;
  tl.config = config;
  tl.profile = profile;
  tl.reference = std::make_shared<const SimResult>(
      Simulator(config).run_recorded(profile, "none", tl.record));
  MAPG_OBS_COUNTER_INC("sim.replay.timelines");
  return tl;
}

StallTimeline record_timeline_traced(const SimConfig& config,
                                     TraceSource& trace,
                                     const std::string& workload_name) {
  StallTimeline tl;
  tl.config = config;
  tl.profile.name = workload_name;  // stub: replay reads only the name
  tl.reference = std::make_shared<const SimResult>(Simulator(config).run_recorded(
      trace, workload_name, "none", tl.record));
  MAPG_OBS_COUNTER_INC("sim.replay.timelines");
  return tl;
}

ReplayOutcome replay_policy(const StallTimeline& timeline,
                            const std::string& policy_spec) {
  const SimConfig& cfg = timeline.config;
  const PgCircuit circuit(cfg.pg, cfg.tech);
  const PolicyContext ctx = PgController::make_context(circuit);
  std::unique_ptr<PgPolicy> policy = make_policy(policy_spec, ctx);
  if (!policy)
    throw std::invalid_argument("unknown policy spec: " + policy_spec);
  // Same kernel parameters (mode, refresh timing, energy rates,
  // coordinated-PD inputs) and a null arbiter, exactly as the single-core
  // direct path constructs them — the controller cannot tell it is being
  // replayed.
  const StallKernelParams kparams = make_stall_kernel_params(cfg, circuit);
  PgController controller(*policy, circuit, nullptr, kparams);

  ReplayOutcome out;
  // The series is SoA (cpu/core.h): iterate by index so each field is read
  // from its own contiguous stream, materializing one event at a time.
  auto feed = [&](const StallSeries& events) {
    const std::size_t n = events.size();
    for (std::size_t i = 0; i < n; ++i) {
      const StallEvent ev = events[i];
      ++out.windows;
      if (controller.on_stall(ev) != ev.data_ready) return false;
    }
    return true;
  };

  // Warmup events are replayed too — gating runs during warmup in a direct
  // run, so adaptive policies carry identical observed state into the
  // measured phase — then the controller stats reset mirrors run_impl's
  // post-warmup reset (a no-op when there was no warmup, matching the
  // direct warmup==0 path).
  const bool exact = [&] {
    if (!feed(timeline.record.warmup_stalls)) return false;
    controller.reset_stats();
    return feed(timeline.record.stalls);
  }();
  MAPG_OBS_COUNTER_ADD("sim.replay.windows", out.windows);
  if (!exact) return out;

  // Every window resolved penalty-free: core timing, trace consumption,
  // hierarchy and DRAM state match the reference bit for bit, so those
  // statistics are copied; gating comes from the replayed controller and
  // energy is a pure function of the two (same formulas as run_impl).
  SimResult r = *timeline.reference;
  r.policy = policy->name();
  r.ctx = policy->context();
  r.gating = controller.stats();
  r.energy = compute_energy(cfg.tech, &circuit, r.core, r.gating.activity);
  const DramEnergyBreakdown dram_e = compute_dram_energy_breakdown(
      r.dram, cfg.mem.dram, cfg.tech, cfg.dram_energy, r.core.cycles,
      r.gating.dram_pd_channel_cycles);
  r.energy.dram_j = dram_e.total_j();
  r.energy.dram_background_j = dram_e.background_j;
  r.energy.dram_lowpower_saved_j = dram_e.lowpower_saved_j;

  out.ok = true;
  out.result = std::move(r);
  MAPG_OBS_COUNTER_INC("sim.replay.cells");
  return out;
}

}  // namespace mapg
