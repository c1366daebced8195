// Differential tests for the integer-threshold trace generator.  The oracle
// (tests/ref_generator.h) is the floating-point draw it replaced; every
// built-in profile and a set of edge profiles must produce the same records
// through next() and PhasedTraceGenerator.  GeometricTable, the
// log-free dependence-distance draw, is checked against the libm expression
// it tabulates, and the saturating fix for huge or infinite means is pinned.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.h"
#include "ref_generator.h"
#include "trace/generator.h"
#include "trace/profile.h"

namespace mapg {
namespace {

using testref::RefTraceGenerator;

constexpr std::uint64_t kDrawTop = 1ULL << 53;
constexpr std::uint64_t kSeeds[] = {0, 1, 7, 42};
constexpr std::size_t kRecords = std::size_t{1} << 20;

::testing::AssertionResult same(const Instr& want, const Instr& got,
                                std::size_t i) {
  if (want.op == got.op && want.addr == got.addr &&
      want.dep_dist == got.dep_dist)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "record " << i << ": oracle {" << op_class_name(want.op) << ", "
         << want.addr << ", " << want.dep_dist << "} vs {"
         << op_class_name(got.op) << ", " << got.addr << ", " << got.dep_dist
         << "}";
}

/// `records` records of `profile` under `seed` through next(), compared
/// with the oracle.
void expect_matches_oracle(const WorkloadProfile& profile, std::uint64_t seed,
                           std::size_t records) {
  SCOPED_TRACE(profile.name + " seed " + std::to_string(seed));
  RefTraceGenerator ref(profile, seed);
  TraceGenerator gen(profile, seed);
  for (std::size_t i = 0; i < records; ++i) {
    Instr want, got;
    ref.next(want);
    gen.next(got);
    ASSERT_TRUE(same(want, got, i)) << "next()";
  }
}

class BuiltinStream : public ::testing::TestWithParam<std::string> {};

TEST_P(BuiltinStream, MatchesOracleThroughNextAndEveryBatchSize) {
  const WorkloadProfile* p = find_profile(GetParam());
  ASSERT_NE(p, nullptr);
  for (const std::uint64_t seed : kSeeds)
    expect_matches_oracle(*p, seed, kRecords);
}

TEST_P(BuiltinStream, PhasedMatchesAlternatingOracles) {
  const auto& all = builtin_profiles();
  const WorkloadProfile* a = find_profile(GetParam());
  ASSERT_NE(a, nullptr);
  const WorkloadProfile& b = all[(a - all.data() + 1) % all.size()];
  constexpr std::uint64_t kPhase = 9973;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RefTraceGenerator ref_a(*a, seed), ref_b(b, seed + 0x9e37);
    PhasedTraceGenerator gen(*a, b, kPhase, seed);
    for (std::size_t n = 0; n < kRecords; ++n) {
      Instr want, got;
      ((n / kPhase) % 2 == 0 ? ref_a : ref_b).next(want);
      gen.next(got);
      ASSERT_TRUE(same(want, got, n)) << "phased next()";
    }
  }
}

std::vector<std::string> builtin_names() {
  std::vector<std::string> names;
  for (const WorkloadProfile& p : builtin_profiles()) names.push_back(p.name);
  return names;
}

std::string param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string s = info.param;
  for (char& c : s)
    if (c == '-') c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, BuiltinStream,
                         ::testing::ValuesIn(builtin_names()), param_name);

// ---------------------------------------------------------------------------
// Edge profiles: every branch of the threshold and table construction.

WorkloadProfile edge_base() {
  WorkloadProfile p = *find_profile("gcc-like");
  p.name = "edge";
  p.p_no_consumer = 0.0;  // every ordinary load draws a distance
  return p;
}

constexpr std::size_t kEdgeRecords = 100000;

TEST(GeneratorEdges, DepDistMeanAndMaxGrid) {
  for (const double mean : {0.5, 1.0, 1.0 + 1e-9, 1.01, 3.0, 50.0, 1e6}) {
    for (const std::uint16_t max : {0, 1, 2, 64, 256, 257, 65535}) {
      WorkloadProfile p = edge_base();
      p.dep_dist_mean = mean;
      p.dep_dist_max = max;
      p.name = "mean " + std::to_string(mean) + " max " + std::to_string(max);
      expect_matches_oracle(p, 3, kEdgeRecords);
    }
  }
}

TEST(GeneratorEdges, MixSumsToOneAboveOneAndBelowZero) {
  WorkloadProfile exact = edge_base();
  exact.f_load = 0.5;
  exact.f_store = 0.25;
  exact.f_branch = 0.125;
  exact.f_mul = 0.0625;
  exact.f_div = 0.03125;
  exact.f_fp = 0.03125;  // sums to exactly 1: no kAlu
  expect_matches_oracle(exact, 5, kEdgeRecords);

  WorkloadProfile tenths = edge_base();
  tenths.f_load = 0.3;
  tenths.f_store = 0.3;
  tenths.f_branch = 0.1;
  tenths.f_mul = 0.1;
  tenths.f_div = 0.1;
  tenths.f_fp = 0.1;  // 1 up to float rounding of the running sum
  expect_matches_oracle(tenths, 5, kEdgeRecords);

  WorkloadProfile over = edge_base();
  over.f_load = 0.6;
  over.f_store = 0.5;
  over.f_branch = 0.3;  // later classes are unreachable
  expect_matches_oracle(over, 5, kEdgeRecords);

  WorkloadProfile negative = edge_base();
  negative.f_store = -0.1;  // the running sum falls back below f_load
  negative.f_mul = std::numeric_limits<double>::quiet_NaN();
  expect_matches_oracle(negative, 5, kEdgeRecords);
}

TEST(GeneratorEdges, EveryProbabilityAtZeroAndOne) {
  double WorkloadProfile::*const fields[] = {
      &WorkloadProfile::p_stream, &WorkloadProfile::p_cold,
      &WorkloadProfile::p_pointer_chase, &WorkloadProfile::p_no_consumer};
  for (double WorkloadProfile::*const f : fields) {
    for (const double v : {0.0, 1.0}) {
      WorkloadProfile p = edge_base();
      p.*f = v;
      p.name = "p=" + std::to_string(v);
      expect_matches_oracle(p, 9, kEdgeRecords);
    }
  }
  WorkloadProfile all_zero = edge_base();
  all_zero.p_stream = all_zero.p_cold = all_zero.p_pointer_chase = 0.0;
  expect_matches_oracle(all_zero, 9, kEdgeRecords);
}

TEST(GeneratorEdges, EmptyHotSet) {
  WorkloadProfile p = edge_base();
  p.hot_set_bytes = 0;
  expect_matches_oracle(p, 11, kEdgeRecords);
}

// ---------------------------------------------------------------------------
// Integer thresholds.

TEST(PrngThreshold, IsTheExactUniformCompare) {
  // threshold(p) must be the smallest k with !(k * 2^-53 < p): the compare
  // holds at k - 1 and fails at k.
  std::vector<double> ps = {1e-300, 0x1.0p-53, 0x1.8p-53, 1e-9,
                            0.1,    0.3,       0.5,       1.0 - 0x1.0p-53};
  for (const WorkloadProfile& p : builtin_profiles())
    for (double v : {p.f_load, p.f_load + p.f_store, p.p_stream,
                     p.p_stream + p.p_cold, p.p_pointer_chase,
                     p.p_no_consumer})
      ps.push_back(v);
  Prng rng(123);
  for (int i = 0; i < 100000; ++i) ps.push_back(rng.uniform() * rng.uniform());
  for (const double p : ps) {
    if (p <= 0.0) continue;
    const std::uint64_t t = Prng::threshold(p);
    ASSERT_GE(t, 1u);
    ASSERT_LE(t, kDrawTop);
    ASSERT_TRUE(static_cast<double>(t - 1) * 0x1.0p-53 < p) << p;
    if (t < kDrawTop) {
      ASSERT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p) << p;
    }
  }
  EXPECT_EQ(Prng::threshold(0.0), 0u);
  EXPECT_EQ(Prng::threshold(-0.5), 0u);
  EXPECT_EQ(Prng::threshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Prng::threshold(1.0), kDrawTop);
  EXPECT_EQ(Prng::threshold(7.0), kDrawTop);
}

// ---------------------------------------------------------------------------
// GeometricTable against the libm expression.

/// The table a generator builds for profile `p`.
GeometricTable table_for(const WorkloadProfile& p) {
  const double prob = 1.0 / std::max(1.0, p.dep_dist_mean);
  return GeometricTable(std::log1p(-prob), p.dep_dist_max - 1u);
}

double log1m_for(const WorkloadProfile& p) {
  return std::log1p(-1.0 / std::max(1.0, p.dep_dist_mean));
}

class BuiltinTable : public ::testing::TestWithParam<std::string> {};

TEST_P(BuiltinTable, EdgesAreTheFirstDrawReachingEachCount) {
  const WorkloadProfile& p = *find_profile(GetParam());
  const GeometricTable t = table_for(p);
  const double l = log1m_for(p);
  ASSERT_EQ(t.size(), std::min<unsigned>(p.dep_dist_max - 1u,
                                         GeometricTable::kCap));
  for (unsigned m = 1; m <= t.size(); ++m) {
    const std::uint64_t e = t.edge(m);
    ASSERT_GE(e, t.edge(m - 1)) << "edge " << m;
    if (e >= kDrawTop) continue;
    EXPECT_GE(Prng::geometric_at(e, l), m) << "edge " << m;
    EXPECT_LT(Prng::geometric_at(e - 1, l), m) << "edge " << m;
    EXPECT_GE(t.locate(e), m) << "edge " << m;
    EXPECT_LT(t.locate(e - 1), m) << "edge " << m;
  }
}

TEST_P(BuiltinTable, GuardBandSurroundsEveryEdge) {
  const WorkloadProfile& p = *find_profile(GetParam());
  const GeometricTable t = table_for(p);
  ASSERT_EQ(t.size(), p.dep_dist_max - 1u);  // uncapped: no libm above
  constexpr std::uint64_t g = GeometricTable::kGuard;
  int checked = 0;
  for (unsigned m = 1; m <= t.size(); ++m) {
    const std::uint64_t e = t.edge(m);
    const bool isolated = e - t.edge(m - 1) > 2 * g + 1 &&
                          (m == t.size() || t.edge(m + 1) - e > 2 * g + 1) &&
                          e + g < kDrawTop;
    if (!isolated) continue;
    ++checked;
    EXPECT_FALSE(t.exact_band(e - g - 1)) << "edge " << m;
    EXPECT_TRUE(t.exact_band(e - g)) << "edge " << m;
    EXPECT_TRUE(t.exact_band(e)) << "edge " << m;
    EXPECT_TRUE(t.exact_band(e + g - 1)) << "edge " << m;
    EXPECT_FALSE(t.exact_band(e + g)) << "edge " << m;
  }
  EXPECT_GT(checked, 0);
}

/// min(failures, limit) must equal min(libm, limit) at draw `k`.
::testing::AssertionResult table_exact(const GeometricTable& t, double l,
                                       std::uint64_t limit, std::uint64_t k) {
  const std::uint64_t want = std::min(Prng::geometric_at(k, l), limit);
  const std::uint64_t got = std::min(t.failures(k), limit);
  if (want == got) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "k=" << k << ": libm " << want << ", table " << got;
}

TEST_P(BuiltinTable, MatchesLibmAroundEveryGuardEdge) {
  const WorkloadProfile& p = *find_profile(GetParam());
  const GeometricTable t = table_for(p);
  const double l = log1m_for(p);
  const std::uint64_t limit = p.dep_dist_max - 1u;
  constexpr std::uint64_t g = GeometricTable::kGuard;
  constexpr std::uint64_t r = 1ULL << 12;
  for (unsigned m = 1; m <= t.size(); ++m) {
    const std::uint64_t e = t.edge(m);
    for (const std::uint64_t edge : {e - g, e + g}) {
      if (edge < r || edge + r >= kDrawTop) continue;
      for (std::uint64_t k = edge - r; k <= edge + r; ++k) {
        ASSERT_TRUE(table_exact(t, l, limit, k)) << "edge " << m;
        // Outside the band the answer comes from the edges alone.
        if (!t.exact_band(k)) {
          ASSERT_EQ(t.locate(k), std::min(Prng::geometric_at(k, l), limit));
        }
      }
    }
  }
}

TEST_P(BuiltinTable, MatchesLibmAtSeededRandomDraws) {
  const WorkloadProfile& p = *find_profile(GetParam());
  const GeometricTable t = table_for(p);
  const double l = log1m_for(p);
  const std::uint64_t limit = p.dep_dist_max - 1u;
  Prng rng(2024);
  for (int i = 0; i < 10'000'000; ++i) {
    std::uint64_t k = rng.next53();
    // Every other draw sits a log-uniform distance below the top, where the
    // high edges crowd together.
    if (i & 1) k = kDrawTop - 1 - (k >> (k % 53));
    ASSERT_TRUE(table_exact(t, l, limit, k)) << "draw " << i;
    // locate() counts the edges at or below k.
    if (i % 64 == 0) {
      unsigned count = 0;
      for (unsigned m = 1; m <= t.size(); ++m) count += t.edge(m) <= k;
      ASSERT_EQ(t.locate(k), count) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBuiltins, BuiltinTable,
                         ::testing::ValuesIn(builtin_names()), param_name);

TEST(GeometricTableEdges, CappedTableEvaluatesLibmAboveTheCap) {
  // dep_dist_max 65535 leaves far more counts than kCap edges; draws above
  // the last edge must still produce the exact libm count.
  const double l = std::log1p(-1.0 / 50.0);
  const GeometricTable t(l, 65534);
  ASSERT_EQ(t.size(), GeometricTable::kCap);
  Prng rng(5);
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t k =
        t.edge(t.size()) + rng.below(kDrawTop - t.edge(t.size()));
    ASSERT_TRUE(t.exact_band(k));
    ASSERT_EQ(t.failures(k), Prng::geometric_at(k, l)) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// Huge and infinite dep_dist means saturate at dep_dist_max.

/// Every load of `p` (no pointer chase, every load has a consumer) must
/// carry dep_dist_max.
void expect_ordinary_loads_saturate(const WorkloadProfile& p) {
  ASSERT_EQ(p.p_pointer_chase, 0.0);
  ASSERT_EQ(p.p_no_consumer, 0.0);
  TraceGenerator g(p, 1);
  int loads = 0;
  for (int i = 0; i < 200000; ++i) {
    Instr r;
    g.next(r);
    if (r.op != OpClass::kLoad) continue;
    ++loads;
    ASSERT_EQ(r.dep_dist, p.dep_dist_max) << "record " << i;
  }
  EXPECT_GT(loads, 10000);
}

TEST(GeneratorDepDist, HugeMeanSaturatesAtMax) {
  WorkloadProfile p = edge_base();
  p.p_pointer_chase = 0.0;
  p.dep_dist_mean = 1e30;  // quotient beyond 2^64
  expect_ordinary_loads_saturate(p);
  p.dep_dist_max = 65535;  // capped table: libm above the cap
  expect_ordinary_loads_saturate(p);
}

TEST(GeneratorDepDist, InfiniteMeanSaturatesAtMax) {
  WorkloadProfile p = edge_base();
  p.p_pointer_chase = 0.0;
  p.dep_dist_mean = std::numeric_limits<double>::infinity();
  expect_ordinary_loads_saturate(p);
  // The infinite mean draws nothing for the distance, as before, so every
  // other field of the stream still equals the oracle's.
  RefTraceGenerator ref(p, 1);
  TraceGenerator gen(p, 1);
  for (std::size_t i = 0; i < kEdgeRecords; ++i) {
    Instr want, got;
    ref.next(want);
    gen.next(got);
    ASSERT_EQ(want.op, got.op) << i;
    ASSERT_EQ(want.addr, got.addr) << i;
  }
}

}  // namespace
}  // namespace mapg
