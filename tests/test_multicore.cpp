// Tests for the multicore substrate: scheduler correctness (single-core
// equivalence), shared-resource contention effects, per-core independence,
// energy aggregation, and input validation.
#include <gtest/gtest.h>

#include <stdexcept>

#include "multicore/multicore.h"
#include "trace/generator.h"
#include "trace/trace_io.h"

namespace mapg {
namespace {

MulticoreConfig fast_config(std::uint32_t cores) {
  MulticoreConfig cfg;
  cfg.num_cores = cores;
  cfg.instructions_per_core = 150'000;
  cfg.warmup_instructions = 50'000;
  return cfg;
}

std::vector<WorkloadProfile> profile(const std::string& name) {
  const WorkloadProfile* p = find_profile(name);
  EXPECT_NE(p, nullptr);
  return {*p};
}

TEST(Multicore, SingleCoreMatchesSimulatorExactly) {
  // One core, zero address offset: the multicore path must reproduce the
  // single-core Simulator cycle-for-cycle.
  MulticoreConfig mc_cfg = fast_config(1);
  const MulticoreSim mc(mc_cfg);
  const MulticoreResult mcr = mc.run(profile("mcf-like"), "mapg");

  SimConfig sc_cfg;
  sc_cfg.core = mc_cfg.core;
  sc_cfg.mem = mc_cfg.mem;
  sc_cfg.tech = mc_cfg.tech;
  sc_cfg.pg = mc_cfg.pg;
  sc_cfg.instructions = mc_cfg.instructions_per_core;
  sc_cfg.warmup_instructions = mc_cfg.warmup_instructions;
  sc_cfg.run_seed = mc_cfg.run_seed;
  const SimResult scr = Simulator(sc_cfg).run(*find_profile("mcf-like"),
                                              "mapg");

  ASSERT_EQ(mcr.cores.size(), 1u);
  EXPECT_EQ(mcr.cores[0].core.cycles, scr.core.cycles);
  EXPECT_EQ(mcr.cores[0].core.instrs, scr.core.instrs);
  EXPECT_EQ(mcr.cores[0].gating.gated_events, scr.gating.gated_events);
  EXPECT_EQ(mcr.dram.reads, scr.dram.reads);
}

TEST(Multicore, Deterministic) {
  const MulticoreSim mc(fast_config(4));
  const MulticoreResult a = mc.run(profile("omnetpp-like"), "mapg");
  const MulticoreResult b = mc.run(profile("omnetpp-like"), "mapg");
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    EXPECT_EQ(a.cores[i].core.cycles, b.cores[i].core.cycles);
    EXPECT_EQ(a.cores[i].gating.gated_events, b.cores[i].gating.gated_events);
  }
  EXPECT_DOUBLE_EQ(a.total_j(), b.total_j());
}

TEST(Multicore, CoresDrawIndependentTraces) {
  const MulticoreSim mc(fast_config(4));
  const MulticoreResult r = mc.run(profile("mcf-like"), "none");
  // Same profile, different seeds and offsets: cycle counts must differ
  // across cores (identical counts would mean accidentally shared streams).
  bool any_different = false;
  for (std::size_t i = 1; i < r.cores.size(); ++i)
    any_different |= r.cores[i].core.cycles != r.cores[0].core.cycles;
  EXPECT_TRUE(any_different);
}

TEST(Multicore, ContentionLengthensStalls) {
  // The same workload on 1 vs 8 cores: shared DRAM queueing must raise the
  // mean memory latency and lengthen per-core stalls.
  const MulticoreResult one =
      MulticoreSim(fast_config(1)).run(profile("libquantum-like"), "none");
  const MulticoreResult eight =
      MulticoreSim(fast_config(8)).run(profile("libquantum-like"), "none");
  EXPECT_GT(eight.dram.read_latency.mean(), one.dram.read_latency.mean());

  auto mean_stall = [](const CoreSlotResult& c) {
    return c.core.stalls_dram
               ? static_cast<double>(c.core.stall_cycles_dram) /
                     static_cast<double>(c.core.stalls_dram)
               : 0.0;
  };
  EXPECT_GT(mean_stall(eight.cores[0]), mean_stall(one.cores[0]));
}

TEST(Multicore, SharedL2ContentionRaisesMpki) {
  // gcc-like has a hot set that fits a 1 MiB L2 alone but not when eight
  // cores compete for the same capacity.
  const MulticoreResult one =
      MulticoreSim(fast_config(1)).run(profile("gcc-like"), "none");
  const MulticoreResult eight =
      MulticoreSim(fast_config(8)).run(profile("gcc-like"), "none");
  EXPECT_GT(eight.cores[0].mpki(), 1.5 * one.cores[0].mpki());
}

TEST(Multicore, MapgStillNearOracleUnderContention) {
  const MulticoreConfig cfg = fast_config(4);
  const auto w = profile("mcf-like");
  const MulticoreResult none = MulticoreSim(cfg).run(w, "none");
  const MulticoreResult mapg = MulticoreSim(cfg).run(w, "mapg");
  const MulticoreResult oracle = MulticoreSim(cfg).run(w, "oracle");

  EXPECT_LT(mapg.total_j(), none.total_j());
  EXPECT_LE(oracle.total_j(), mapg.total_j() * 1.02);
  EXPECT_GE(mapg.total_j(), oracle.total_j() * 0.98);
  EXPECT_GT(mapg.avg_gated_fraction(), 0.3);
}

TEST(Multicore, PerCoreAccountingInvariants) {
  const MulticoreSim mc(fast_config(4));
  const MulticoreResult r = mc.run(
      {*find_profile("mcf-like"), *find_profile("gamess-like")}, "mapg");
  ASSERT_EQ(r.cores.size(), 4u);
  // Workloads assigned round-robin.
  EXPECT_EQ(r.cores[0].workload, "mcf-like");
  EXPECT_EQ(r.cores[1].workload, "gamess-like");
  EXPECT_EQ(r.cores[2].workload, "mcf-like");

  for (const auto& c : r.cores) {
    EXPECT_EQ(c.core.busy_cycles() + c.core.idle_cycles(), c.core.cycles);
    EXPECT_EQ(c.core.penalty_cycles, c.gating.penalty_cycles);
    const GatingActivity& a = c.gating.activity;
    EXPECT_LE(a.gated_cycles + a.entry_cycles + a.wake_cycles,
              c.core.idle_cycles());
    // Per-core ungated leakage holds only the private L1 component.
    EXPECT_LT(c.energy.ungated_leak_j,
              0.2 * c.energy.core_leak_baseline_j + 1e-12);
    EXPECT_LE(c.core.cycles, r.makespan);
  }
  EXPECT_GT(r.shared_leak_j, 0.0);
  EXPECT_GT(r.total_j(), r.shared_leak_j);

  // The memory-bound cores gate heavily; the compute-bound ones barely.
  EXPECT_GT(r.cores[0].gated_time_fraction(), 0.2);
  EXPECT_LT(r.cores[1].gated_time_fraction(), 0.05);
}

TEST(Multicore, MakespanIsMaxCoreCycles) {
  const MulticoreSim mc(fast_config(3));
  const MulticoreResult r = mc.run(
      {*find_profile("mcf-like"), *find_profile("povray-like")}, "none");
  Cycle max_cycles = 0;
  for (const auto& c : r.cores)
    max_cycles = std::max(max_cycles, c.core.cycles);
  EXPECT_EQ(r.makespan, max_cycles);
  // mcf (memory-bound) needs far more cycles than povray for equal work —
  // though povray is itself slowed by mcf thrashing the shared L2.
  EXPECT_GT(r.cores[0].core.cycles, 2 * r.cores[1].core.cycles);
}

TEST(Multicore, RejectsBadInputs) {
  const MulticoreSim mc(fast_config(2));
  EXPECT_THROW(mc.run({}, "mapg"), std::invalid_argument);
  EXPECT_THROW(mc.run(profile("mcf-like"), "not-a-policy"),
               std::invalid_argument);

  MulticoreConfig tiny = fast_config(2);
  tiny.core_addr_stride = 1 << 20;  // smaller than mcf's working set
  EXPECT_THROW(MulticoreSim(tiny).run(profile("mcf-like"), "mapg"),
               std::invalid_argument);

  MulticoreConfig no_cores = fast_config(2);
  no_cores.num_cores = 0;
  EXPECT_THROW(MulticoreSim{no_cores}, std::invalid_argument);
  MulticoreConfig bad_l1 = fast_config(2);
  bad_l1.mem.l1d.assoc = 0;
  EXPECT_THROW(MulticoreSim{bad_l1}, std::invalid_argument);
}

std::vector<Instr> take(TraceSource& src, std::size_t n) {
  std::vector<Instr> v;
  v.reserve(n);
  Instr ins;
  while (v.size() < n && src.next(ins)) v.push_back(ins);
  return v;
}

TEST(Multicore, ExternalTraceEndingBeforeWarmupInvalidatesSlot) {
  // Three finite external traces: one covers the full quota, one ends
  // mid-measurement (valid, partial), one ends before the warmup target —
  // that slot must come back invalid with ZEROED stats, not with warmup
  // traffic frozen in as if it were measured.
  MulticoreConfig cfg = fast_config(3);
  const WorkloadProfile* p = find_profile("mcf-like");
  ASSERT_NE(p, nullptr);
  const std::uint64_t quota =
      cfg.warmup_instructions + cfg.instructions_per_core;

  TraceGenerator gen_full(*p, 1), gen_mid(*p, 2), gen_short(*p, 3);
  VectorTraceSource full(take(gen_full, quota));
  VectorTraceSource mid(
      take(gen_mid, cfg.warmup_instructions + cfg.instructions_per_core / 2));
  VectorTraceSource short_trace(take(gen_short, cfg.warmup_instructions / 2));

  const MulticoreResult r = MulticoreSim(cfg).run(
      {*p}, "mapg", {&full, &mid, &short_trace});
  ASSERT_EQ(r.cores.size(), 3u);

  EXPECT_TRUE(r.cores[0].valid);
  EXPECT_EQ(r.cores[0].core.instrs, cfg.instructions_per_core);

  EXPECT_TRUE(r.cores[1].valid);
  EXPECT_GT(r.cores[1].core.instrs, 0u);
  EXPECT_LT(r.cores[1].core.instrs, cfg.instructions_per_core);

  EXPECT_FALSE(r.cores[2].valid);
  EXPECT_EQ(r.cores[2].core.instrs, 0u);
  EXPECT_EQ(r.cores[2].core.cycles, 0u);
  EXPECT_EQ(r.cores[2].gating.gated_events, 0u);
}

TEST(Multicore, ExternalTracesValidated) {
  const MulticoreSim mc(fast_config(2));
  TraceGenerator gen(*find_profile("mcf-like"), 1);
  VectorTraceSource one(take(gen, 1000));
  // Wrong count and null entries are both rejected up front.
  EXPECT_THROW(mc.run(profile("mcf-like"), "mapg", {&one}),
               std::invalid_argument);
  EXPECT_THROW(mc.run(profile("mcf-like"), "mapg", {&one, nullptr}),
               std::invalid_argument);
}

TEST(Multicore, SharedStatsAggregateAllCores) {
  const MulticoreSim mc(fast_config(4));
  const MulticoreResult r = mc.run(profile("milc-like"), "none");
  std::uint64_t total_fills = 0;
  for (const auto& c : r.cores) total_fills += c.hier.dram_fills;
  // Every demand fill issued by any core is one read at the shared
  // controller.  The shared count additionally includes the tail traffic of
  // cores that finished their quota early but keep running while stragglers
  // complete, and misses a little traffic around the warmup reset — so the
  // two agree within a modest band rather than exactly.
  const double ratio = static_cast<double>(r.dram.reads) /
                       static_cast<double>(total_fills);
  EXPECT_GT(ratio, 0.90);
  EXPECT_LT(ratio, 1.25);
}

}  // namespace
}  // namespace mapg
