// mapg_perfbench: runs one benchmark workload and prints the result line.
//
//   mapg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// The last line of stdout is one JSON object {"correct", "attempted",
// "failed", "metrics"}: with --trace 0 the end-to-end metrics, with
// --trace 1 the per-layer metrics (perfbench/README.md lists both).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

using perfbench::Report;
using perfbench::RunArgs;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cold_ms", "ms"},
    {"warm_ms", "ms"},
    {"sim_minstr_s", "Minstr/s"},
};

const std::vector<MetricDef> kPerLayer = {
    {"trace.gen.busy_s", "s"},
    {"trace.gen.ns_per_instr", "ns"},
    {"trace.file.mrec_s", "Mrec/s"},
    {"sim.self_s", "s"},
    {"sim.ns_per_instr", "ns"},
    {"cpu.ipc", "instr/cycle"},
    {"cpu.stalls_dram", "count"},
    {"cpu.dram_stall_frac", "fraction"},
    {"mem.cache.ns_per_access", "ns"},
    {"mem.l1.accesses", "count"},
    {"mem.l1.miss_rate", "fraction"},
    {"mem.l2.miss_rate", "fraction"},
    {"mem.merged_frac", "fraction"},
    {"mem.dram.reads", "count"},
    {"mem.dram.row_hit_rate", "fraction"},
    {"mem.prefetch.issued", "count"},
    {"pg.replay_s", "s"},
    {"pg.ns_per_window", "ns"},
    {"pg.eligible_stalls", "count"},
    {"pg.gated_frac", "fraction"},
    {"pg.unprofitable_frac", "fraction"},
    {"replay.record_s", "s"},
    {"replay.replay_s", "s"},
    {"replay.fallback_s", "s"},
    {"replay.cells", "count"},
    {"replay.fallbacks", "count"},
    {"replay.ok_frac", "fraction"},
    {"exec.job.p50_ms", "ms"},
    {"exec.job.p99_ms", "ms"},
    {"exec.cache.store", "count"},
    {"exec.cache.disk_hit", "count"},
    {"exec.pool.steals", "count"},
    {"exec.warm.us_per_cell", "us"},
    {"exec.unattributed_s", "s"},
    {"sample.plan_cold_s", "s"},
    {"sample.plan_warm_s", "s"},
    {"sample.sim_s", "s"},
    {"sample.regions", "count"},
    {"sample.clusters", "count"},
    {"sample.sampled_frac", "fraction"},
    {"sample.max_rel_err", "fraction"},
    {"sample.ci_coverage", "fraction"},
    {"obs.overhead_frac", "fraction"},
    {"unattributed_frac", "fraction"},
};

// serve-mixed is not in BENCHMARK.json (its timings are too unsteady on a
// shared host; perfbench/README.md has the spreads), so its serve-tier rows
// are printed only by its own traced runs, after the common ones.
const std::vector<MetricDef> kServeLayer = {
    {"serve.hit.hot", "count"},
    {"serve.hit.cache", "count"},
    {"serve.hit.replay", "count"},
    {"serve.compute", "count"},
    {"serve.coalesced", "count"},
    {"serve.server_p50_ms", "ms"},
    {"serve.server_p99_ms", "ms"},
    {"serve.client_p50_ms", "ms"},
    {"serve.client_p99_ms", "ms"},
    {"serve.transport_p50_ms", "ms"},
    {"serve.qps", "1/s"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: mapg_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  using Fn = void (*)(const RunArgs&, Report&);
  const std::vector<std::pair<const char*, Fn>> workloads = {
      {"direct-mem", perfbench::run_direct_mem},
      {"direct-compute", perfbench::run_direct_compute},
      {"sweep-tab1", perfbench::run_sweep_tab1},
      {"sampled-trace", perfbench::run_sampled_trace},
      {"serve-mixed", perfbench::run_serve_mixed},
  };
  Fn fn = nullptr;
  for (const auto& [name, f] : workloads)
    if (args.workload == name) fn = f;
  if (fn == nullptr) return usage(("unknown workload " + args.workload).c_str());

  Report report;
  try {
    fn(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // The result line carries exactly the selected metric set.  A per-layer
  // metric whose layer the workload never enters reads 0 (no work done); a
  // missing end-to-end metric is a benchmark bug.
  std::vector<MetricDef> defs = args.trace ? kPerLayer : kEndToEnd;
  if (args.trace && args.workload == "serve-mixed")
    defs.insert(defs.end(), kServeLayer.begin(), kServeLayer.end());
  std::vector<std::string> names;
  for (const MetricDef& d : defs) {
    if (!report.has(d.name)) {
      if (!args.trace) {
        std::fprintf(stderr, "error: workload did not report %s\n", d.name);
        return 1;
      }
      report.set(d.name, 0.0, d.unit);
    }
    names.push_back(d.name);
  }
  std::printf("%s\n", report.json(names).c_str());
  return 0;
}
