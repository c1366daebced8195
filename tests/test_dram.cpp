// Unit tests for the DRAM timing model: address mapping, row-buffer
// outcomes, exact latency composition, bus contention, refresh, and the
// estimate/commit/completion information contract MAPG depends on.
#include <gtest/gtest.h>

#include <vector>

#include "common/prng.h"
#include "mem/dram.h"

namespace mapg {
namespace {

DramConfig test_config() {
  DramConfig c;
  c.channels = 2;
  c.banks_per_channel = 8;
  c.line_bytes = 64;
  c.row_bytes = 8192;
  c.t_rcd = 41;
  c.t_rp = 41;
  c.t_cl = 41;
  c.t_bl = 15;
  c.t_ras = 105;
  c.t_rfc = 480;
  c.t_refi = 23400;
  return c;
}

/// Build a line address hitting (channel, bank, row, col) under the mapping.
Addr make_line(const DramConfig& c, std::uint32_t channel, std::uint32_t bank,
               std::uint64_t row, std::uint64_t col = 0) {
  const std::uint64_t lpr = c.lines_per_row();
  std::uint64_t line_no = row;
  line_no = line_no * c.banks_per_channel + bank;
  line_no = line_no * lpr + col;
  line_no = line_no * c.channels + channel;
  return line_no * c.line_bytes;
}

TEST(DramConfig, Validity) {
  EXPECT_TRUE(test_config().valid());
  DramConfig c = test_config();
  c.channels = 0;
  EXPECT_FALSE(c.valid());
  c = test_config();
  c.row_bytes = 32;  // smaller than line
  EXPECT_FALSE(c.valid());
  c = test_config();
  c.t_rfc = c.t_refi;  // refresh never ends
  EXPECT_FALSE(c.valid());
}

TEST(Dram, AddressMappingRoundTrip) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  for (std::uint32_t ch = 0; ch < cfg.channels; ++ch)
    for (std::uint32_t b = 0; b < cfg.banks_per_channel; b += 3)
      for (std::uint64_t row : {0ULL, 7ULL, 123ULL}) {
        std::uint32_t ch2, b2;
        std::uint64_t row2;
        d.map_address(make_line(cfg, ch, b, row, 5), ch2, b2, row2);
        EXPECT_EQ(ch2, ch);
        EXPECT_EQ(b2, b);
        EXPECT_EQ(row2, row);
      }
}

TEST(Dram, MappingMatchesTheDivisionFormula) {
  // Power-of-two geometries map with shifts and masks, others divide; both
  // must equal the plain formula: line-interleave across channels, drop the
  // column-in-row bits, then bank, then row.
  std::vector<DramConfig> configs;
  configs.push_back(test_config());
  DramConfig odd = test_config();
  odd.channels = 3;
  odd.banks_per_channel = 6;
  configs.push_back(odd);
  DramConfig odd_row = test_config();
  odd_row.row_bytes = 12 * odd_row.line_bytes;
  configs.push_back(odd_row);
  for (DramStandard s : {DramStandard::kDdr4_2400, DramStandard::kLpddr4_3200}) {
    DramConfig preset = test_config();
    apply_dram_standard(preset, s);
    configs.push_back(preset);
  }
  Prng rng(77);
  for (const DramConfig& cfg : configs) {
    ASSERT_TRUE(cfg.valid());
    Dram d(cfg);
    for (int i = 0; i < 20000; ++i) {
      const Addr line = i < 1000 ? static_cast<Addr>(i) * cfg.line_bytes
                                 : rng.next() & ~Addr{cfg.line_bytes - 1};
      std::uint64_t line_no = line / cfg.line_bytes;
      const std::uint64_t want_ch = line_no % cfg.channels;
      line_no = line_no / cfg.channels / cfg.lines_per_row();
      const std::uint64_t want_bank = line_no % cfg.banks_per_channel;
      const std::uint64_t want_row = line_no / cfg.banks_per_channel;
      std::uint32_t ch, bank;
      std::uint64_t row;
      d.map_address(line, ch, bank, row);
      ASSERT_EQ(ch, want_ch) << cfg.channels << " channels, line " << line;
      ASSERT_EQ(bank, want_bank) << cfg.channels << " channels, line " << line;
      ASSERT_EQ(row, want_row) << cfg.channels << " channels, line " << line;
    }
  }
}

TEST(Dram, SequentialLinesShareRowsAcrossChannels) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  // Consecutive line addresses alternate channels; within a channel they
  // stay in the same row until lines_per_row lines have passed.
  std::uint32_t ch0, b0, ch1, b1;
  std::uint64_t r0, r1;
  d.map_address(0, ch0, b0, r0);
  d.map_address(64, ch1, b1, r1);
  EXPECT_NE(ch0, ch1);
  d.map_address(128, ch1, b1, r1);  // same channel as line 0
  EXPECT_EQ(ch1, ch0);
  EXPECT_EQ(b1, b0);
  EXPECT_EQ(r1, r0);
}

TEST(Dram, ClosedRowLatencyIsExact) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;  // away from the t=0 refresh window
  const DramResult r = d.access(make_line(cfg, 0, 0, 0), false, t0);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kClosed);
  // ACT at t0, column at t0+tRCD, data [t0+tRCD+tCL, +tBL).
  EXPECT_EQ(r.commit, t0 + cfg.t_rcd);
  EXPECT_EQ(r.completion, t0 + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
  EXPECT_EQ(r.estimate, t0 + cfg.estimate_latency());
}

TEST(Dram, RowHitLatencyIsExact) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;
  d.access(make_line(cfg, 0, 0, 0, 0), false, t0);
  const Cycle t1 = t0 + 500;
  const DramResult r = d.access(make_line(cfg, 0, 0, 0, 3), false, t1);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kHit);
  EXPECT_EQ(r.commit, t1);
  EXPECT_EQ(r.completion, t1 + cfg.t_cl + cfg.t_bl);
}

TEST(Dram, RowConflictPaysPrechargeAndRespectsTras) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;
  d.access(make_line(cfg, 0, 0, 0), false, t0);  // opens row 0 (ACT at t0)
  // Immediately request a different row in the same bank: precharge cannot
  // start before ACT+tRAS.
  const Cycle t1 = t0 + cfg.t_rcd + cfg.t_bl;  // bank ready, but tRAS not met
  const DramResult r = d.access(make_line(cfg, 0, 0, 9), false, t1);
  EXPECT_EQ(r.outcome, RowBufferOutcome::kConflict);
  const Cycle pre = t0 + cfg.t_ras;  // earliest precharge
  EXPECT_EQ(r.completion, pre + cfg.t_rp + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
}

TEST(Dram, ConflictAfterTrasElapsedStartsImmediately) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;
  d.access(make_line(cfg, 0, 0, 0), false, t0);
  const Cycle t1 = t0 + 2000;  // long after tRAS
  const DramResult r = d.access(make_line(cfg, 0, 0, 9), false, t1);
  EXPECT_EQ(r.completion, t1 + cfg.t_rp + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
}

TEST(Dram, BusContentionSerializesBursts) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;
  // Two simultaneous closed-row requests to different banks, same channel:
  // their data bursts must not overlap on the shared data bus.
  const DramResult a = d.access(make_line(cfg, 0, 0, 0), false, t0);
  const DramResult b = d.access(make_line(cfg, 0, 1, 0), false, t0);
  EXPECT_GE(b.completion, a.completion + cfg.t_bl);
}

TEST(Dram, DifferentChannelsDoNotContend) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;
  const DramResult a = d.access(make_line(cfg, 0, 0, 0), false, t0);
  const DramResult b = d.access(make_line(cfg, 1, 0, 0), false, t0);
  EXPECT_EQ(a.completion, b.completion);  // identical independent timing
}

TEST(Dram, CommitNeverAfterCompletionMinusBurst) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  Cycle t = 1000;
  for (int i = 0; i < 200; ++i) {
    const Addr line = make_line(cfg, i % 2, (i / 2) % 8, i % 5, i % 3);
    const DramResult r = d.access(line, false, t);
    // The information contract: commit + tCL + tBL == completion, i.e. the
    // return is exactly known tCL+tBL cycles ahead.
    EXPECT_EQ(r.completion, r.commit + cfg.t_cl + cfg.t_bl);
    EXPECT_GE(r.commit, t);
    t += 7;
  }
}

TEST(Dram, RefreshWindowDelaysRequests) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  // A request arriving inside the first refresh window [0, tRFC) must be
  // pushed to the window end.
  const DramResult r = d.access(make_line(cfg, 0, 0, 0), false, 100);
  EXPECT_EQ(r.completion,
            cfg.t_rfc + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
  EXPECT_EQ(d.stats().refresh_delays, 1u);
}

TEST(Dram, RefreshDisabledWithZeroRefi) {
  DramConfig cfg = test_config();
  cfg.t_refi = 0;
  Dram d(cfg);
  const DramResult r = d.access(make_line(cfg, 0, 0, 0), false, 100);
  EXPECT_EQ(r.completion, 100 + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
}

TEST(Dram, StatsClassifyOutcomes) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  Cycle t = 1000;
  d.access(make_line(cfg, 0, 0, 0), false, t);      // closed
  t += 600;
  d.access(make_line(cfg, 0, 0, 0, 1), false, t);   // hit
  t += 600;
  d.access(make_line(cfg, 0, 0, 5), false, t);      // conflict
  t += 600;
  d.access(make_line(cfg, 0, 0, 5, 2), true, t);    // write, hit
  EXPECT_EQ(d.stats().reads, 3u);
  EXPECT_EQ(d.stats().writes, 1u);
  EXPECT_EQ(d.stats().row_closed, 1u);
  EXPECT_EQ(d.stats().row_hits, 2u);
  EXPECT_EQ(d.stats().row_conflicts, 1u);
  EXPECT_NEAR(d.stats().row_hit_rate(), 0.5, 1e-12);
  EXPECT_EQ(d.stats().read_latency.count(), 3u);
}

TEST(Dram, SelfRefreshExitHonorsPendingRefreshWindow) {
  // Regression pin: the refresh check runs at the power-exit-shifted start,
  // not the raw arrival cycle.  A request that wakes a self-refreshing
  // channel such that the tXS exit lands inside a refresh window must pay
  // the remainder of that window on top of tXS (the device still owes its
  // deferred auto-refresh); the old "refresh checked at request start only"
  // semantics silently skipped it.
  DramConfig cfg = test_config();
  cfg.power.mode = DramPowerMode::kTimeout;
  cfg.power.powerdown_timeout = 0;
  cfg.power.selfrefresh_timeout = 1000;
  ASSERT_TRUE(cfg.valid());
  Dram d(cfg);

  // Idle since 0: self-refresh established at 1000 + tPD.  Arrive 100
  // cycles before the second refresh window so now + tXS = 23710 lands
  // inside [23400, 23880).
  const Cycle now = cfg.t_refi - 200;
  ASSERT_LT(now + cfg.power.t_xs, cfg.t_refi + cfg.t_rfc);
  ASSERT_GE(now + cfg.power.t_xs, cfg.t_refi);
  const DramResult r = d.access(make_line(cfg, 0, 0, 0), false, now);
  EXPECT_EQ(r.completion,
            cfg.t_refi + cfg.t_rfc + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
  EXPECT_EQ(d.stats().refresh_delays, 1u);
  EXPECT_EQ(d.stats().selfrefresh_entries, 1u);
  EXPECT_EQ(d.stats().lowpower_exit_delay, cfg.power.t_xs);
}

TEST(Dram, WriteOccupiesBankForLaterReads) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  const Cycle t0 = 1000;
  d.access(make_line(cfg, 0, 0, 0), true, t0);  // write opens row 0
  // Immediate read of another row in the same bank sees the busy bank.
  const DramResult r = d.access(make_line(cfg, 0, 0, 3), false, t0 + 1);
  EXPECT_GT(r.completion,
            t0 + 1 + cfg.t_rp + cfg.t_rcd + cfg.t_cl + cfg.t_bl);
}

TEST(Dram, MonotonicCompletionUnderLoad) {
  const DramConfig cfg = test_config();
  Dram d(cfg);
  Cycle t = 1000;
  Cycle prev_completion = 0;
  Prng prng(5);
  for (int i = 0; i < 2000; ++i) {
    const Addr line = prng.below(1ULL << 24) * cfg.line_bytes;
    const DramResult r = d.access(line, false, t);
    EXPECT_GE(r.completion, t + cfg.t_cl + cfg.t_bl);
    EXPECT_GE(r.commit, t);
    (void)prev_completion;
    prev_completion = r.completion;
    t += prng.below(50);
  }
}

}  // namespace
}  // namespace mapg
