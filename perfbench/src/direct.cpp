// direct-mem / direct-compute: serial Simulator::run of two cells under
// `mapg`, one thread.  Exec, replay and sample do no work here; the two
// workloads differ only in the profiles, which is the point — direct-mem
// stresses the miss path (MSHR table, DRAM timing, PG stall kernel) while
// direct-compute is L1-resident and nearly stall-free, so the trace
// generator and core issue dominate and a memory or PG optimisation must
// show no change on it.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/serialize.h"
#include "mem/cache.h"
#include "replay/replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kPolicy = "mapg";

mapg::SimConfig direct_config(std::uint64_t seed) {
  mapg::SimConfig cfg;
  cfg.instructions = 1'000'000;
  cfg.warmup_instructions = 250'000;
  cfg.run_seed = seed;
  return cfg;
}

struct Cell {
  const mapg::WorkloadProfile* profile;
  std::uint64_t digest = 0;
  mapg::SimResult result;
};

/// Isolated-layer timings on the cells' inputs.
struct Ledger {
  double gen_s = 0, pg_s = 0, cache_s = 0;
  double windows = 0, accesses = 0;
};

std::vector<Cell> make_cells(const std::vector<const char*>& names) {
  std::vector<Cell> cells;
  for (const char* n : names) {
    const mapg::WorkloadProfile* p = mapg::find_profile(n);
    if (p == nullptr) throw std::runtime_error(std::string("no profile ") + n);
    cells.push_back({p, 0, {}});
  }
  return cells;
}

/// The generator ledger draws the cell's instructions through next() alone;
/// the pg ledger replays the recorded stall timeline through the policy
/// (controller, stall kernel and energy accounting, nothing else); the
/// cache ledger feeds the recorded load/store stream to a standalone L1.
/// The replay's output is checked against the direct result.
Ledger run_ledger(const mapg::SimConfig& cfg, const std::vector<Cell>& cells,
                  Report& report) {
  Ledger led;
  for (const Cell& c : cells) {
    {
      Span span("trace.gen.next", c.profile->name);
      led.gen_s += time_generator(*c.profile, cfg.run_seed,
                                  cfg.warmup_instructions + cfg.instructions);
    }
    const mapg::StallTimeline tl = mapg::record_timeline(cfg, *c.profile);
    {
      Span span("pg.replay_policy", c.profile->name);
      const auto t0 = Clock::now();
      const mapg::ReplayOutcome out = mapg::replay_policy(tl, kPolicy);
      led.pg_s += seconds_since(t0);
      led.windows += static_cast<double>(out.windows);
      report.check(out.ok && mapg::results_equal(out.result, c.result),
                   "replay == direct for " + c.profile->name);
    }
    {
      Span span("mem.cache.access", c.profile->name);
      const auto t0 = Clock::now();
      mapg::Cache l1(cfg.mem.l1d);
      std::uint64_t n = 0;
      for (const mapg::Instr& in : *tl.record.trace) {
        if (in.op != mapg::OpClass::kLoad && in.op != mapg::OpClass::kStore)
          continue;
        l1.access(in.addr, in.op == mapg::OpClass::kStore);
        ++n;
      }
      led.cache_s += seconds_since(t0);
      led.accesses += static_cast<double>(n);
    }
  }
  return led;
}

void run_direct(const RunArgs& args, Report& report,
                const std::vector<const char*>& names) {
  const mapg::SimConfig cfg = direct_config(args.seed);
  const double instrs_per_pass =
      static_cast<double>(names.size()) *
      static_cast<double>(cfg.instructions + cfg.warmup_instructions);

  // Set-up: inputs plus one warm-up pass, kSetupReps times.
  CpuRotation rot;
  std::vector<double> setup_s;
  std::vector<Cell> cells;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rot.pin(rep);
    const auto t0 = Clock::now();
    std::vector<Cell> fresh = make_cells(names);
    for (Cell& c : fresh) {
      c.result = mapg::Simulator(cfg).run(*c.profile, kPolicy);
      c.digest = result_digest(c.result);
    }
    setup_s.push_back(seconds_since(t0));
    for (std::size_t i = 0; i < cells.size(); ++i)
      report.check(fresh[i].digest == cells[i].digest,
                   "repeatable result for " + fresh[i].profile->name);
    cells = std::move(fresh);
  }
  report.set("setup_s", median(setup_s), "s");
  const double setup_peak_mb = peak_rss_mb();

  // Gate: pinned digests, or replay == direct for another seed.
  for (const Cell& c : cells)
    check_pin(report, args,
              args.workload + "/" + c.profile->name + "/" + kPolicy,
              c.digest);
  if (args.seed != kDefaultSeed) {
    for (const Cell& c : cells) {
      const mapg::ReplayOutcome out =
          mapg::replay_policy(mapg::record_timeline(cfg, *c.profile), kPolicy);
      report.check(out.ok && result_digest(out.result) == c.digest,
                   "replay == direct for " + c.profile->name);
    }
  }

  // One pass simulates every cell once and checks each output.
  auto untraced_pass = [&] {
    const auto t0 = Clock::now();
    for (const Cell& c : cells) {
      const mapg::SimResult r = mapg::Simulator(cfg).run(*c.profile, kPolicy);
      report.check(result_digest(r) == c.digest,
                   "direct result for " + c.profile->name);
    }
    return seconds_since(t0);
  };

  reset_peak_rss();
  if (!args.trace) {
    // The direct path keeps no results, so a warm pass would redo the same
    // simulation.  One pass is timed per round instead, and all three
    // figures derive from that one sample set: cold_ms and warm_ms are its
    // median per-cycle mean, sim_minstr_s the same median as a rate.
    std::vector<double> pass_s;
    rot.run_cycles(args.seconds, [&] { pass_s.push_back(untraced_pass()); });
    const double pass = median(rot.cycle_means(pass_s));
    report.set("cold_ms", 1e3 * pass, "ms");
    report.set("warm_ms", 1e3 * pass, "ms");
    report.set("sim_minstr_s", instrs_per_pass / pass / 1e6, "Minstr/s");
    report.set("peak_rss_mb", std::max(setup_peak_mb, peak_rss_mb()), "MB");
    return;
  }

  // Traced: untraced and traced passes alternate.  The traced pass makes
  // the same Simulator::run calls inside spans; the ledger then times the
  // generator, the PG replay and the L1 on their own, so the generator's
  // share separates from the simulator's own time (core + memory + PG).
  tracing_begin();
  std::vector<double> untraced, traced, run_s, gen_s, pg_s, cache_s;
  Ledger led;
  rot.run_cycles(args.seconds, [&] {
    untraced.push_back(untraced_pass());
    double round_run_s = 0;
    {
      Span pass("direct.pass");
      for (const Cell& c : cells) {
        Span span("sim.run", c.profile->name);
        const auto t0 = Clock::now();
        const mapg::SimResult r =
            mapg::Simulator(cfg).run(*c.profile, kPolicy);
        round_run_s += seconds_since(t0);
        report.check(result_digest(r) == c.digest,
                     "traced result for " + c.profile->name);
      }
      traced.push_back(pass.elapsed());
    }
    run_s.push_back(round_run_s);
    led = run_ledger(cfg, cells, report);
    gen_s.push_back(led.gen_s);
    pg_s.push_back(led.pg_s);
    cache_s.push_back(led.cache_s);
  });
  finish_trace(args);

  const double gen = median(gen_s), self = median(run_s) - gen;
  report.set("trace.gen.busy_s", gen, "s");
  report.set("trace.gen.ns_per_instr", 1e9 * gen / instrs_per_pass, "ns");
  report.set("sim.self_s", self, "s");
  report.set("sim.ns_per_instr", 1e9 * self / instrs_per_pass, "ns");
  report.set("mem.cache.ns_per_access", 1e9 * median(cache_s) / led.accesses,
             "ns");
  report.set("pg.replay_s", median(pg_s), "s");
  report.set("pg.ns_per_window", 1e9 * median(pg_s) / led.windows, "ns");
  report.set("obs.overhead_frac", median(traced) / median(untraced) - 1,
             "fraction");
  report.set("unattributed_frac", 1 - median(run_s) / median(traced),
             "fraction");
  std::vector<mapg::SimResult> results;
  for (const Cell& c : cells) results.push_back(c.result);
  set_model_counts(report, results);
}

}  // namespace

void run_direct_mem(const RunArgs& args, Report& report) {
  run_direct(args, report, {"mcf-like", "libquantum-like"});
}

void run_direct_compute(const RunArgs& args, Report& report) {
  run_direct(args, report, {"gamess-like", "povray-like"});
}

}  // namespace perfbench
