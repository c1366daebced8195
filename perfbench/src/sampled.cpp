// sampled-trace: phase-sampled projection of an on-disk MAPGTRC2 trace
// (mcf-like) under `none` and `mapg`.  Each round plans and projects twice:
// cold, with an empty MAPGSIG1 signature cache (the planner scans the trace
// and writes the cache), then warm, with that cache.  This is the only
// workload where the on-disk reader, the signature scan, k-means and the
// checkpointed representatives dominate.
//
// The slicing keeps the ratios of the standing R-Sampling configuration
// (50 regions, 4 clusters, per-representative warmup a tenth of a region)
// at a tenth of its trace length, so a run fits the benchmark's budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/serialize.h"
#include "sample/runner.h"
#include "trace/generator.h"
#include "trace/trace_file.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char* kWorkload = "mcf-like";
constexpr std::uint64_t kTraceInstrs = 5'000'000;
/// The documented sampled-projection error bound (docs/TRACE.md).
constexpr double kErrorBound = 0.10;
const std::vector<std::string> kPolicies = {"none", "mapg"};
const std::vector<std::string> kMetrics = {
    "ipc", "mpki", "gated_time_fraction", "energy_total_j", "cycles"};

double metric_of(const mapg::SimResult& r, const std::string& name) {
  if (name == "ipc") return r.ipc();
  if (name == "mpki") return r.mpki();
  if (name == "gated_time_fraction") return r.gated_time_fraction();
  if (name == "energy_total_j") return r.energy.total_j();
  return static_cast<double>(r.core.cycles);  // "cycles"
}

/// Digest of a projection: every estimate's value and standard error, bit
/// for bit, so warm == cold means byte-identical projections.
std::uint64_t projection_digest(const std::vector<mapg::SampledResult>& rs) {
  std::string bytes;
  for (const mapg::SampledResult& r : rs)
    for (const mapg::MetricEstimate& m : r.metrics) {
      char buf[2 * sizeof(double)];
      std::memcpy(buf, &m.value, sizeof(double));
      std::memcpy(buf + sizeof(double), &m.stderr_, sizeof(double));
      bytes += m.name;
      bytes.append(buf, sizeof buf);
    }
  return mapg::fnv1a64(bytes);
}

struct Pass {
  double plan_s = 0, sim_s = 0, seconds = 0;
  std::uint64_t sampled_instrs = 0;
  std::vector<mapg::SampledResult> results;
};

}  // namespace

void run_sampled_trace(const RunArgs& args, Report& report) {
  const mapg::WorkloadProfile* profile = mapg::find_profile(kWorkload);
  WorkDir work("sampled-trace");
  const std::string trace_path = work.file("trace.trc");
  const std::string name = std::string("trace:") + kWorkload;

  mapg::SimConfig sim_cfg;
  sim_cfg.run_seed = args.seed;
  mapg::SampleConfig scfg;
  scfg.region_instructions = kTraceInstrs / 50;
  scfg.clusters = 4;
  scfg.warmup_instructions = scfg.region_instructions / 10;
  scfg.seed = args.seed;
  scfg.signature_cache = work.file("trace.sigs");

  auto pass = [&](bool cold) {
    if (cold) std::filesystem::remove(scfg.signature_cache);
    Pass p;
    const auto t0 = Clock::now();
    mapg::FileTraceSource trace(trace_path);
    auto t = Clock::now();
    mapg::SamplePlan plan = mapg::build_sample_plan(trace, scfg);
    p.plan_s = seconds_since(t);
    mapg::SampledRunner runner(sim_cfg, trace, std::move(plan), name);
    t = Clock::now();
    for (const std::string& pol : kPolicies) p.results.push_back(runner.run(pol));
    p.sim_s = seconds_since(t);
    p.sampled_instrs = runner.plan().sampled_instructions();
    p.seconds = seconds_since(t0);
    return p;
  };

  std::uint64_t ref = 0;
  auto round = [&](Pass* cold, Pass* warm) {
    *cold = pass(true);
    *warm = pass(false);
    const std::uint64_t c = projection_digest(cold->results);
    if (ref == 0) ref = c;
    report.check(c == ref, "cold projection repeats");
    report.check(projection_digest(warm->results) == c,
                 "warm projection == cold projection");
  };

  // Set-up: write the trace from the seed, then one warm-up round.
  CpuRotation rot;
  std::vector<double> setup_s;
  Pass cold, warm;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    rot.pin(rep);
    const auto t0 = Clock::now();
    mapg::TraceGenerator gen(*profile, args.seed);
    std::string err;
    if (!mapg::write_trace_file_v2(trace_path, gen, kTraceInstrs, &err))
      throw std::runtime_error("trace write failed: " + err);
    round(&cold, &warm);
    setup_s.push_back(seconds_since(t0));
  }
  report.set("setup_s", median(setup_s), "s");
  const double setup_peak_mb = peak_rss_mb();

  // Gate: the full simulation of the same trace is the accuracy reference.
  // Every projected metric must sit within the documented bound of it.
  std::vector<mapg::SimResult> full;
  for (const std::string& pol : kPolicies) {
    mapg::FileTraceSource trace(trace_path);
    mapg::SimConfig fc = sim_cfg;
    fc.warmup_instructions = 0;
    fc.instructions = kTraceInstrs;
    full.push_back(mapg::Simulator(fc).run(trace, name, pol));
    check_pin(report, args, "sampled-trace/full/" + pol,
              result_digest(full.back()));
  }
  check_pin(report, args, "sampled-trace/projection", ref);
  double max_err = 0;
  std::size_t covered = 0, scored = 0;
  std::string uncovered;
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    for (const std::string& m : kMetrics) {
      const mapg::MetricEstimate* e = cold.results[p].find(m);
      if (e == nullptr) continue;
      const double f = metric_of(full[p], m);
      if (f == 0 && e->value == 0) continue;  // e.g. gating under `none`
      const double err =
          f != 0 ? std::abs(e->value - f) / std::abs(f) : std::abs(e->value);
      max_err = std::max(max_err, err);
      ++scored;
      if (f >= e->ci_lo && f <= e->ci_hi)
        ++covered;
      else
        uncovered += " " + kPolicies[p] + "/" + m;
      report.check(err <= kErrorBound,
                   "projection error of " + kPolicies[p] + "/" + m);
    }
  }
  std::fprintf(stderr,
               "[perfbench] sampled-trace: max rel err %.6f, CI coverage "
               "%zu/%zu, outside the CI:%s\n",
               max_err, covered, scored, uncovered.c_str());

  reset_peak_rss();
  const double pass_instrs =
      static_cast<double>(kPolicies.size() * kTraceInstrs);
  if (!args.trace) {
    std::vector<double> cold_s, warm_s;
    rot.run_cycles(args.seconds, [&] {
      round(&cold, &warm);
      cold_s.push_back(cold.seconds);
      warm_s.push_back(warm.seconds);
    });
    // sim_minstr_s derives from the same two medians: each pass projects
    // the whole trace under every policy.
    const double c = median(rot.cycle_means(cold_s));
    const double w = median(rot.cycle_means(warm_s));
    report.set("cold_ms", 1e3 * c, "ms");
    report.set("warm_ms", 1e3 * w, "ms");
    report.set("sim_minstr_s", 2 * pass_instrs / (c + w) / 1e6, "Minstr/s");
    report.set("peak_rss_mb", std::max(setup_peak_mb, peak_rss_mb()), "MB");
    return;
  }

  tracing_begin();
  std::vector<double> untraced, traced, attributed, plan_cold, plan_warm;
  std::vector<double> sim_s, file_mrec;
  rot.run_cycles(args.seconds, [&] {
    round(&cold, &warm);
    untraced.push_back(cold.seconds + warm.seconds);
    {
      Span span("sample.round");
      {
        Span s("sample.pass.cold");
        cold = pass(true);
      }
      {
        Span s("sample.pass.warm");
        warm = pass(false);
      }
      traced.push_back(span.elapsed());
    }
    report.check(projection_digest(cold.results) == ref &&
                     projection_digest(warm.results) == ref,
                 "traced projections == reference");
    plan_cold.push_back(cold.plan_s);
    plan_warm.push_back(warm.plan_s);
    sim_s.push_back(cold.sim_s);
    sim_s.push_back(warm.sim_s);
    attributed.push_back(cold.plan_s + cold.sim_s + warm.plan_s + warm.sim_s);
    {
      Span s("trace.file.next_batch");
      mapg::FileTraceSource trace(trace_path);
      mapg::InstrBlock block;
      std::uint64_t n = 0;
      const auto t0 = Clock::now();
      while (trace.next_batch(block) > 0) n += block.count;
      file_mrec.push_back(static_cast<double>(n) / seconds_since(t0) / 1e6);
      report.check(n == kTraceInstrs, "streamed the whole trace");
    }
  });
  finish_trace(args);

  report.set("trace.file.mrec_s", median(file_mrec), "Mrec/s");
  report.set("sample.plan_cold_s", median(plan_cold), "s");
  report.set("sample.plan_warm_s", median(plan_warm), "s");
  report.set("sample.sim_s", median(sim_s), "s");
  report.set("sample.regions", static_cast<double>(cold.results[0].regions),
             "count");
  report.set("sample.clusters", static_cast<double>(cold.results[0].clusters),
             "count");
  report.set("sample.sampled_frac",
             static_cast<double>(cold.sampled_instrs) /
                 static_cast<double>(kTraceInstrs),
             "fraction");
  report.set("sample.max_rel_err", max_err, "fraction");
  report.set("sample.ci_coverage",
             static_cast<double>(covered) / static_cast<double>(scored),
             "fraction");
  report.set("obs.overhead_frac", median(traced) / median(untraced) - 1,
             "fraction");
  report.set("unattributed_frac", 1 - median(attributed) / median(traced),
             "fraction");
  set_model_counts(report, full);
}

}  // namespace perfbench
