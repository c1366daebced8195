#include <cstdio>
#include <filesystem>

#include "pins.h"
#include "workloads.h"

namespace perfbench {

namespace {
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void set_model_counts(Report& report,
                      const std::vector<mapg::SimResult>& cells) {
  double instrs = 0, cycles = 0, stalls_dram = 0, stall_cycles_dram = 0;
  double l1_acc = 0, l1_miss = 0, l2_acc = 0, l2_miss = 0;
  double merged = 0, mem_ops = 0, dram_reads = 0, row_hits = 0, row_ops = 0;
  double prefetch = 0, eligible = 0, gated = 0, unprofitable = 0;
  for (const mapg::SimResult& r : cells) {
    instrs += static_cast<double>(r.core.instrs);
    cycles += static_cast<double>(r.core.cycles);
    stalls_dram += static_cast<double>(r.core.stalls_dram);
    stall_cycles_dram += static_cast<double>(r.core.stall_cycles_dram);
    l1_acc += static_cast<double>(r.l1.accesses());
    l1_miss += static_cast<double>(r.l1.misses());
    l2_acc += static_cast<double>(r.l2.accesses());
    l2_miss += static_cast<double>(r.l2.misses());
    merged += static_cast<double>(r.hier.merged);
    mem_ops += static_cast<double>(r.hier.loads + r.hier.stores);
    dram_reads += static_cast<double>(r.dram.reads);
    row_hits += static_cast<double>(r.dram.row_hits);
    row_ops += static_cast<double>(r.dram.row_hits + r.dram.row_closed +
                                   r.dram.row_conflicts);
    prefetch += static_cast<double>(r.hier.prefetch_issued);
    eligible += static_cast<double>(r.gating.eligible_stalls);
    gated += static_cast<double>(r.gating.gated_events);
    unprofitable += static_cast<double>(r.gating.unprofitable_events);
  }
  report.set("cpu.ipc", ratio(instrs, cycles), "instr/cycle");
  report.set("cpu.stalls_dram", stalls_dram, "count");
  report.set("cpu.dram_stall_frac", ratio(stall_cycles_dram, cycles),
             "fraction");
  report.set("mem.l1.accesses", l1_acc, "count");
  report.set("mem.l1.miss_rate", ratio(l1_miss, l1_acc), "fraction");
  report.set("mem.l2.miss_rate", ratio(l2_miss, l2_acc), "fraction");
  report.set("mem.merged_frac", ratio(merged, mem_ops), "fraction");
  report.set("mem.dram.reads", dram_reads, "count");
  report.set("mem.dram.row_hit_rate", ratio(row_hits, row_ops), "fraction");
  report.set("mem.prefetch.issued", prefetch, "count");
  report.set("pg.eligible_stalls", eligible, "count");
  report.set("pg.gated_frac", ratio(gated, eligible), "fraction");
  report.set("pg.unprofitable_frac", ratio(unprofitable, gated), "fraction");
}

void check_pin(Report& report, const RunArgs& args, const std::string& key,
               std::uint64_t digest) {
  if (args.seed != kDefaultSeed) return;
  std::fprintf(stderr, "[perfbench] pin %s 0x%sULL\n", key.c_str(),
               hex64(digest).c_str());
  bool ok = false;
  for (const Pin& p : kPins)
    if (key == p.key) ok = p.digest == digest;
  report.check(ok, "pinned digest of " + key);
}

void finish_trace(const RunArgs& args) {
  const std::string path = std::string(kOutDir) + "/trace-" + args.workload +
                           "-s" + std::to_string(args.seed) + ".json";
  std::filesystem::create_directories(kOutDir);
  if (tracing_end(path))
    std::fprintf(stderr, "[perfbench] chrome trace -> %s\n", path.c_str());
  else
    std::fprintf(stderr, "[perfbench] could not write %s\n", path.c_str());
}

}  // namespace perfbench
