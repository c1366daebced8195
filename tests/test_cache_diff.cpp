// Differential test: the structure-of-arrays Cache against the array-of-
// structs oracle it replaced (tests/aos_cache_ref.h).  Seeded random
// sequences of access / fill / contains / flush / export->import drive both
// under every replacement policy at the L1 and L2 geometries, and every
// AccessResult, the CacheStats and the exported State must match exactly.
// Imports cross over: each model resumes from the other's exported state,
// so both directions of the Line <-> lane conversion are exercised.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>

#include "aos_cache_ref.h"
#include "common/prng.h"
#include "mem/cache.h"

namespace mapg {
namespace {

struct DiffCase {
  const char* name;
  CacheConfig config;

  friend void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }
};

CacheConfig geometry(bool l2, ReplPolicy repl, bool write_back = true) {
  CacheConfig c = l2 ? CacheConfig{.name = "L2",
                                   .size_bytes = 1024 * 1024,
                                   .assoc = 16,
                                   .line_bytes = 64,
                                   .hit_latency = 12}
                     : CacheConfig{.name = "L1D",
                                   .size_bytes = 32 * 1024,
                                   .assoc = 8,
                                   .line_bytes = 64,
                                   .hit_latency = 3};
  c.repl = repl;
  c.write_back = write_back;
  return c;
}

void expect_same(const Cache::AccessResult& got,
                 const Cache::AccessResult& want, std::uint64_t op) {
  ASSERT_EQ(got.hit, want.hit) << "op " << op;
  ASSERT_EQ(got.writeback, want.writeback) << "op " << op;
  ASSERT_EQ(got.writeback_addr, want.writeback_addr) << "op " << op;
  ASSERT_EQ(got.hit_on_prefetched, want.hit_on_prefetched) << "op " << op;
}

void expect_same(const Cache::State& got, const Cache::State& want) {
  ASSERT_EQ(got.lines.size(), want.lines.size());
  for (std::size_t i = 0; i < got.lines.size(); ++i)
    ASSERT_EQ(got.lines[i], want.lines[i]) << "line " << i;
  EXPECT_EQ(got.plru_bits, want.plru_bits);
  EXPECT_EQ(got.stamp, want.stamp);
  EXPECT_EQ(got.victim_prng, want.victim_prng);
  EXPECT_TRUE(got.stats == want.stats);
}

class CacheDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CacheDiff, SoaMatchesAosOracle) {
  const CacheConfig cfg = GetParam().config;
  const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
  // Half the accesses go to a hot region of half the cache (mostly hits),
  // the rest to a cold region four times the cache (misses and evictions).
  const Addr hot_lines = lines / 2;
  const Addr cold_lines = lines * 4;
  const std::uint64_t ops = std::max<std::uint64_t>(lines * 12, 100'000);

  Cache soa(cfg);
  testref::AosCache aos(cfg);
  Prng rng(0x5EED0000ULL + lines + static_cast<std::uint64_t>(cfg.repl) * 7 +
           (cfg.write_back ? 0 : 1));
  std::uint64_t hits = 0, writebacks = 0;

  for (std::uint64_t op = 0; op < ops; ++op) {
    const Addr line = rng.bernoulli(0.5) ? rng.below(hot_lines)
                                         : hot_lines + rng.below(cold_lines);
    // Any byte within the line: the models must agree on the decode too.
    const Addr addr = line * cfg.line_bytes + rng.below(cfg.line_bytes);
    const double kind = rng.uniform();
    if (kind < 0.60) {
      const Cache::AccessResult want = aos.access(addr, /*is_write=*/false);
      expect_same(soa.access(addr, false), want, op);
      hits += want.hit;
      writebacks += want.writeback;
    } else if (kind < 0.85) {
      const Cache::AccessResult want = aos.access(addr, /*is_write=*/true);
      expect_same(soa.access(addr, true), want, op);
      hits += want.hit;
      writebacks += want.writeback;
    } else if (kind < 0.97) {
      expect_same(soa.fill(addr), aos.fill(addr), op);
    } else {
      ASSERT_EQ(soa.contains(addr), aos.contains(addr)) << "op " << op;
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(soa.stats() == aos.stats()) << "op " << op;

    // Flush at two fixed points, so ways turn invalid again mid-run.
    if (op == ops / 3 || op == (2 * ops) / 3) {
      soa.flush();
      aos.flush();
    }
    // Checkpoint every few thousand ops: compare the exported states, then
    // resume each model in a fresh instance from the other's export.
    if (op % 4099 == 4098) {
      const Cache::State s_soa = soa.export_state();
      const Cache::State s_aos = aos.export_state();
      expect_same(s_soa, s_aos);
      if (::testing::Test::HasFailure()) return;
      soa = Cache(cfg);
      soa.import_state(s_aos);
      aos = testref::AosCache(cfg);
      aos.import_state(s_soa);
    }
  }
  expect_same(soa.export_state(), aos.export_state());
  // The sequence must reach every path it claims to test.
  EXPECT_GT(hits, ops / 10);
  EXPECT_GT(soa.stats().evictions, ops / 10);
  if (cfg.write_back) {
    EXPECT_GT(writebacks, 0u);
  }
  EXPECT_GT(soa.stats().prefetch_fills, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDiff,
    ::testing::Values(
        DiffCase{"l1_lru", geometry(false, ReplPolicy::kLru)},
        DiffCase{"l1_plru", geometry(false, ReplPolicy::kTreePlru)},
        DiffCase{"l1_random", geometry(false, ReplPolicy::kRandom)},
        DiffCase{"l1_lru_write_through",
                 geometry(false, ReplPolicy::kLru, /*write_back=*/false)},
        DiffCase{"l2_lru", geometry(true, ReplPolicy::kLru)},
        DiffCase{"l2_plru", geometry(true, ReplPolicy::kTreePlru)},
        DiffCase{"l2_random", geometry(true, ReplPolicy::kRandom)}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return std::string(info.param.name);
    });

// The LRU victim scan relies on invalid ways holding stamp 0: after a
// flush, refilling one set must take ways 0, 1, 2, ... in order, exactly
// as the oracle's invalid-first search does, and only then evict by age.
TEST(CacheDiffLru, RefillAfterFlushTakesLowestInvalidWayFirst) {
  const CacheConfig cfg = geometry(false, ReplPolicy::kLru);
  Cache soa(cfg);
  testref::AosCache aos(cfg);
  const Addr set_stride = cfg.num_sets() * cfg.line_bytes;
  for (std::uint32_t i = 0; i < cfg.assoc; ++i) {
    soa.access(i * set_stride, false);
    aos.access(i * set_stride, false);
  }
  soa.flush();
  aos.flush();
  for (std::uint32_t i = 0; i < 2 * cfg.assoc; ++i) {
    const Addr a = (100 + i) * set_stride;
    expect_same(soa.access(a, true), aos.access(a, true), i);
  }
  const Cache::State s = soa.export_state();
  expect_same(s, aos.export_state());
  for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
    EXPECT_TRUE(s.lines[w].valid);
    EXPECT_EQ(s.lines[w].tag, (100 + cfg.assoc + w) * cfg.num_sets());
  }
}

}  // namespace
}  // namespace mapg
