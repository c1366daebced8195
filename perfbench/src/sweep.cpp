// sweep-tab1: the R-Tab.1 grid (12 built-in profiles x the standard policy
// specs) through ExperimentEngine::run_sweep with replay on and two
// workers.  Each round runs the grid twice: a cold pass on an empty disk
// result cache (exec, replay, fallback and cache writes all work), then a
// warm pass by a fresh engine on the same directory (cache reads only), so
// a gain for one pass that costs the other shows.
//
// The cells are a fifth of R-Tab.1's length (bench/tab1_policy_comparison:
// 2 M measured + 250 k warmup) with the same warmup share, 400 k + 50 k, so
// a round fits the run.  The record/replay/fallback split is the same at
// both lengths (perfbench/README.md gives the counts).
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "exec/serialize.h"
#include "obs/metrics.h"
#include "replay/replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr unsigned kJobs = 2;

mapg::SweepSpec tab1_spec(std::uint64_t seed) {
  mapg::SweepSpec spec;
  spec.base.instructions = 400'000;
  spec.base.warmup_instructions = 50'000;
  spec.base.run_seed = seed;
  spec.workloads = mapg::builtin_profiles();
  spec.policy_specs = mapg::standard_policy_specs();
  return spec;
}

/// One engine pass over the grid; returns the per-cell digests (0 for a
/// failed cell) and the pass's host seconds.
struct Pass {
  std::vector<std::uint64_t> digests;
  std::vector<mapg::SimResult> results;
  std::size_t from_cache = 0;
  double seconds = 0;
};

Pass run_pass(const mapg::SweepSpec& spec, const std::string& dir) {
  mapg::ExecOptions opts;
  opts.jobs = kJobs;
  opts.cache_dir = dir;
  const auto t0 = Clock::now();
  mapg::ExperimentEngine engine(opts);
  const mapg::SweepResult r = engine.run_sweep(spec);
  Pass p;
  p.seconds = seconds_since(t0);
  for (const mapg::JobOutcome& o : r.outcomes) {
    p.digests.push_back(o.ok ? result_digest(*o.result) : 0);
    if (o.ok) p.results.push_back(*o.result);
    if (o.from_cache) ++p.from_cache;
  }
  return p;
}

std::uint64_t grid_digest(const std::vector<std::uint64_t>& cells) {
  std::string all;
  for (std::uint64_t d : cells) all += hex64(d);
  return mapg::fnv1a64(all);
}

/// Serial re-enactment of what the engine does per grid row, one call at a
/// time: record the reference timeline, replay each other policy, and
/// simulate directly where the replay is not exact.  Every output is
/// checked against the engine's.  The generator's share of a recording is
/// timed apart, by drawing the row's instructions through next() alone.
struct Ledger {
  double gen_s = 0, record_s = 0, replay_s = 0, fallback_s = 0;
  double windows = 0, replayed = 0, fallbacks = 0, sim_instrs = 0;
};

Ledger run_ledger(const mapg::SweepSpec& spec,
                  const std::vector<std::uint64_t>& digests, Report& report) {
  Ledger led;
  const mapg::SimConfig& cfg = spec.base;
  const double cell_instrs =
      static_cast<double>(cfg.instructions + cfg.warmup_instructions);
  const std::size_t np = spec.policy_specs.size();
  for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
    const mapg::WorkloadProfile& prof = spec.workloads[w];
    {
      Span span("trace.gen.next", prof.name);
      led.gen_s += time_generator(prof, cfg.run_seed,
                                  cfg.warmup_instructions + cfg.instructions);
    }
    mapg::StallTimeline tl;
    {
      Span span("replay.record_timeline", prof.name);
      const auto t0 = Clock::now();
      tl = mapg::record_timeline(cfg, prof);
      led.record_s += seconds_since(t0);
      led.sim_instrs += cell_instrs;
    }
    for (std::size_t p = 0; p < np; ++p) {
      const std::string& pol = spec.policy_specs[p];
      const std::string cell = prof.name + "/" + pol;
      const std::uint64_t want = digests[w * np + p];
      if (pol == "none") {
        report.check(result_digest(*tl.reference) == want,
                     "recorded reference == engine for " + cell);
        continue;
      }
      mapg::ReplayOutcome out;
      {
        Span span("pg.replay_policy", cell);
        const auto t0 = Clock::now();
        out = mapg::replay_policy(tl, pol);
        led.replay_s += seconds_since(t0);
        led.windows += static_cast<double>(out.windows);
      }
      if (out.ok) {
        ++led.replayed;
        report.check(result_digest(out.result) == want,
                     "replay == engine for " + cell);
        continue;
      }
      ++led.fallbacks;
      Span span("sim.run", cell);
      mapg::SharedTraceView view(tl.record.trace);
      const auto t0 = Clock::now();
      const mapg::SimResult r = mapg::Simulator(cfg).run(view, prof.name, pol);
      led.fallback_s += seconds_since(t0);
      led.sim_instrs += cell_instrs;
      report.check(result_digest(r) == want, "direct == engine for " + cell);
    }
  }
  return led;
}

}  // namespace

void run_sweep_tab1(const RunArgs& args, Report& report) {
  const mapg::SweepSpec spec = tab1_spec(args.seed);
  const std::size_t n_cells =
      spec.workloads.size() * spec.policy_specs.size();
  const double grid_instrs =
      static_cast<double>(n_cells) *
      static_cast<double>(spec.base.instructions +
                          spec.base.warmup_instructions);
  WorkDir work("sweep-tab1");
  int round_no = 0;

  // A round: cold pass into a fresh cache directory, warm pass reading it.
  // Every cell of both passes is checked against the reference digests.
  std::vector<std::uint64_t> ref;
  auto round = [&](double* cold_s, double* warm_s) {
    const std::string dir = work.file("cache-" + std::to_string(round_no++));
    const Pass cold = run_pass(spec, dir);
    const Pass warm = run_pass(spec, dir);
    std::filesystem::remove_all(dir);
    if (ref.empty()) ref = cold.digests;
    report.check(grid_digest(cold.digests) == grid_digest(ref),
                 "cold grid digest");
    report.check(warm.digests == cold.digests, "warm grid == cold grid");
    report.check(warm.from_cache == n_cells, "warm pass served from cache");
    for (std::uint64_t d : cold.digests)
      report.check(d != 0, "grid cell succeeded");
    *cold_s = cold.seconds;
    *warm_s = warm.seconds;
    return cold;
  };

  std::vector<double> setup_s;
  Pass first;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    double c = 0, w = 0;
    first = round(&c, &w);
    setup_s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(setup_s), "s");
  const double setup_peak_mb = peak_rss_mb();

  // Gate: the pinned grid digest, or for another seed the engine's cells
  // against direct simulation on a subset spread over the grid.
  check_pin(report, args, "sweep-tab1/grid", grid_digest(ref));
  if (args.seed != kDefaultSeed) {
    const std::size_t np = spec.policy_specs.size();
    for (std::size_t w = 0; w < spec.workloads.size(); w += 4) {
      const std::size_t p = 1 + w % (np - 1);
      const mapg::SimResult r = mapg::Simulator(spec.base).run(
          spec.workloads[w], spec.policy_specs[p]);
      report.check(result_digest(r) == ref[w * np + p],
                   "direct == engine for " + spec.workloads[w].name + "/" +
                       spec.policy_specs[p]);
    }
  }

  reset_peak_rss();
  const auto start = Clock::now();
  if (!args.trace) {
    std::vector<double> cold, warm;
    do {
      double c = 0, w = 0;
      round(&c, &w);
      cold.push_back(c);
      warm.push_back(w);
    } while (seconds_since(start) < args.seconds);
    // sim_minstr_s derives from the same two medians: both passes answer
    // the whole grid.
    const double cold_s = median(cold), warm_s = median(warm);
    report.set("cold_ms", 1e3 * cold_s, "ms");
    report.set("warm_ms", 1e3 * warm_s, "ms");
    report.set("sim_minstr_s", 2 * grid_instrs / (cold_s + warm_s) / 1e6,
               "Minstr/s");
    report.set("peak_rss_mb", std::max(setup_peak_mb, peak_rss_mb()), "MB");
    return;
  }

  tracing_begin();
  std::vector<double> untraced, traced, job_busy_s, cold_jobs_s, warm_s;
  std::vector<double> p50, p99, record_s, replay_s, fallback_s, gen_s;
  double stores = 0, disk_hits = 0, steals = 0;
  Ledger led;
  do {
    double c = 0, w = 0;
    round(&c, &w);
    untraced.push_back(c + w);

    auto& reg = mapg::obs::MetricsRegistry::instance();
    reg.reset_values();
    {
      Span span("sweep.round");
      const std::string dir = work.file("cache-traced");
      Pass cold, warm;
      {
        Span s("exec.run_sweep.cold");
        cold = run_pass(spec, dir);
      }
      const mapg::obs::HistogramSnapshot jobs = obs_histogram("exec.job.wall_ns");
      {
        Span s("exec.run_sweep.warm");
        warm = run_pass(spec, dir);
      }
      std::filesystem::remove_all(dir);
      report.check(cold.digests == ref && warm.digests == ref,
                   "traced grid == reference grid");
      traced.push_back(span.elapsed());
      warm_s.push_back(warm.seconds);
      cold_jobs_s.push_back(static_cast<double>(jobs.sum) / 1e9);
      p50.push_back(hist_quantile(jobs, 0.50) / 1e6);
      p99.push_back(hist_quantile(jobs, 0.99) / 1e6);
      job_busy_s.push_back(
          static_cast<double>(obs_histogram("exec.job.wall_ns").sum) / 1e9);
    }
    stores = static_cast<double>(obs_counter("exec.cache.store"));
    disk_hits = static_cast<double>(obs_counter("exec.cache.disk_hit"));
    steals = static_cast<double>(obs_counter("exec.pool.steals"));

    led = run_ledger(spec, ref, report);
    record_s.push_back(led.record_s);
    replay_s.push_back(led.replay_s);
    fallback_s.push_back(led.fallback_s);
    gen_s.push_back(led.gen_s);
  } while (seconds_since(start) < args.seconds);
  finish_trace(args);

  const double gen = median(gen_s);
  const double self = median(record_s) - gen + median(fallback_s);
  const double ledger_s =
      median(record_s) + median(replay_s) + median(fallback_s);
  report.set("trace.gen.busy_s", gen, "s");
  report.set("trace.gen.ns_per_instr",
             1e9 * gen /
                 (static_cast<double>(spec.workloads.size()) *
                  static_cast<double>(spec.base.instructions +
                                      spec.base.warmup_instructions)),
             "ns");
  report.set("sim.self_s", self, "s");
  report.set("sim.ns_per_instr", 1e9 * self / led.sim_instrs, "ns");
  report.set("pg.replay_s", median(replay_s), "s");
  report.set("pg.ns_per_window", 1e9 * median(replay_s) / led.windows, "ns");
  report.set("replay.record_s", median(record_s), "s");
  report.set("replay.replay_s", median(replay_s), "s");
  report.set("replay.fallback_s", median(fallback_s), "s");
  report.set("replay.cells", led.replayed, "count");
  report.set("replay.fallbacks", led.fallbacks, "count");
  report.set("replay.ok_frac", led.replayed / (led.replayed + led.fallbacks),
             "fraction");
  report.set("exec.job.p50_ms", median(p50), "ms");
  report.set("exec.job.p99_ms", median(p99), "ms");
  report.set("exec.cache.store", stores, "count");
  report.set("exec.cache.disk_hit", disk_hits, "count");
  report.set("exec.pool.steals", steals, "count");
  report.set("exec.warm.us_per_cell",
             1e6 * median(warm_s) / static_cast<double>(n_cells), "us");
  report.set("exec.unattributed_s", median(cold_jobs_s) - ledger_s, "s");
  report.set("obs.overhead_frac", median(traced) / median(untraced) - 1,
             "fraction");
  report.set("unattributed_frac",
             1 - median(job_busy_s) / kJobs / median(traced), "fraction");
  set_model_counts(report, first.results);
}

}  // namespace perfbench
