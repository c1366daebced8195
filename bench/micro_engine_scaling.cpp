// Execution-engine microbenchmarks (google-benchmark): sweep throughput at
// 1/2/4/8 worker threads, and the result cache's hit/miss/store costs.
// These guard the exec subsystem the way perfbench's direct-* workloads
// guard the simulator: a scheduling or serialization regression shows up
// here before it shows up as a slow reproduce.sh.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "core/sim.h"
#include "exec/engine.h"
#include "exec/serialize.h"
#include "trace/profile.h"

namespace mapg {
namespace {

SweepSpec small_sweep() {
  SweepSpec spec;
  spec.base.instructions = 50'000;
  spec.base.warmup_instructions = 10'000;
  spec.workloads = representative_profiles();
  spec.policy_specs = {"none", "mapg"};
  spec.n_seeds = 2;  // 4 workloads x 2 policies x 2 seeds = 16 jobs
  return spec;
}

/// End-to-end sweep sims/sec at N worker threads.  A fresh engine per
/// iteration keeps the in-memory memoization from serving later rounds.
void BM_EngineSweep(benchmark::State& state) {
  const SweepSpec spec = small_sweep();
  const std::size_t jobs_per_sweep =
      spec.workloads.size() * spec.policy_specs.size() * spec.n_seeds;
  for (auto _ : state) {
    ExecOptions opts;
    opts.jobs = static_cast<unsigned>(state.range(0));
    ExperimentEngine engine(opts);
    benchmark::DoNotOptimize(engine.run_sweep(spec));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs_per_sweep));
  state.SetLabel("sims");
}
BENCHMARK(BM_EngineSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

SimResult sample_result() {
  SimConfig cfg;
  cfg.instructions = 50'000;
  cfg.warmup_instructions = 10'000;
  static const SimResult r =
      Simulator(cfg).run(*find_profile("mcf-like"), "mapg");
  return r;
}

/// Memory-tier hit: the cost a warm sweep pays per already-computed cell.
void BM_CacheMemoryHit(benchmark::State& state) {
  ResultCache cache;
  cache.store("k", sample_result());
  for (auto _ : state) benchmark::DoNotOptimize(cache.get("k"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMemoryHit);

/// Miss: key hash + failed lookup (the cold-sweep overhead per cell).
void BM_CacheMiss(benchmark::State& state) {
  ResultCache cache;
  const SimConfig cfg;
  const WorkloadProfile& p = *find_profile("mcf-like");
  std::uint64_t n = 0;
  for (auto _ : state) {
    SimConfig c = cfg;
    c.run_seed = ++n;  // fresh key every time
    benchmark::DoNotOptimize(cache.get(cache_key(c, p, "mapg")));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMiss);

/// Disk store: serialize + atomic write of one full SimResult.
void BM_CacheDiskStore(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "mapg_bench_cache_store";
  ResultCache cache(dir.string());
  const SimResult r = sample_result();
  std::uint64_t n = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(cache.store(std::to_string(++n), r));
  state.SetItemsProcessed(state.iterations());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_CacheDiskStore);

/// Disk hit: parse + reconstruct one full SimResult from its JSON entry.
void BM_CacheDiskLoad(benchmark::State& state) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "mapg_bench_cache_load";
  ResultCache cache(dir.string());
  cache.store("k", sample_result());
  for (auto _ : state) {
    cache.clear_memory();  // force the disk path
    benchmark::DoNotOptimize(cache.get("k"));
  }
  state.SetItemsProcessed(state.iterations());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_CacheDiskLoad);

}  // namespace
}  // namespace mapg

BENCHMARK_MAIN();
