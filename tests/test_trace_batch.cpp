// Batched front-end equivalence suite (docs/MODEL.md §4e, docs/TRACE.md §4).
//
// The batch API's entire value rests on one property: next_batch is exactly
// "repeated next()" for EVERY TraceSource — same stream, same EOF position,
// same errors — so the batched simulator path can claim bit-identity by
// construction.  This suite pins that property implementation by
// implementation (generator, phased generator, file v1/v2, mmap, filtered,
// limited, shared view, vector, offset, and the default fallback) across
// batch sizes that hit the interesting boundaries: 1 (degenerate), 7
// (chunk-straddling odd size), 256 (full block), and sizes that straddle
// EOF mid-batch.  It also pins the supporting SoA pieces: the mmap reader's
// byte-level agreement with the buffered reader (including throwing at the
// SAME record on a corrupted chunk), Cache::decode_block against the scalar
// decode, and StallSeries round-tripping StallEvent exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "cpu/core.h"
#include "mem/cache.h"
#include "trace/convert.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_file.h"
#include "trace/trace_io.h"

namespace mapg {
namespace {

// Unique per test and per process: ctest runs every discovered test as its
// own process, in parallel under -j, all in the same working directory.
std::string tmp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : "global";
  std::replace(name.begin(), name.end(), '/', '_');
  return "test_trace_batch_" + name + "_" + stem + "_" +
         std::to_string(::getpid()) + ".tmp";
}

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<Instr> generate(const std::string& workload, std::uint64_t n,
                            std::uint64_t seed = 42) {
  TraceGenerator gen(*find_profile(workload), seed);
  std::vector<Instr> out;
  out.reserve(n);
  Instr instr;
  for (std::uint64_t i = 0; i < n && gen.next(instr); ++i)
    out.push_back(instr);
  return out;
}

/// Drain `src` scalar-style; `cap` bounds unbounded sources.
std::vector<Instr> scalar_read(TraceSource& src, std::uint64_t cap) {
  std::vector<Instr> out;
  Instr instr;
  while (out.size() < cap && src.next(instr)) out.push_back(instr);
  return out;
}

/// Drain `src` through next_batch with a fixed request size.  A short batch
/// must mean EOF, and the batch after EOF must stay empty — both asserted
/// here so every parametrized call re-checks the termination contract.
std::vector<Instr> batch_read(TraceSource& src, std::size_t batch,
                              std::uint64_t cap) {
  std::vector<Instr> out;
  InstrBlock block;
  while (out.size() < cap) {
    const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
        batch, cap - out.size()));
    const std::size_t got = src.next_batch(block, want);
    EXPECT_EQ(got, block.count);
    for (std::size_t i = 0; i < block.count; ++i) out.push_back(block.get(i));
    if (got < want) {  // short batch == end of trace, and it must be sticky
      EXPECT_EQ(src.next_batch(block, batch), 0u);
      EXPECT_EQ(block.count, 0u);
      break;
    }
  }
  return out;
}

void expect_same_stream(const std::vector<Instr>& a,
                        const std::vector<Instr>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].op, b[i].op) << "record " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "record " << i;
    ASSERT_EQ(a[i].dep_dist, b[i].dep_dist) << "record " << i;
  }
}

/// Batch sizes exercised for every implementation: degenerate, odd (so
/// batches straddle chunk boundaries), a full block, and a size chosen so
/// the final request straddles EOF whenever the stream length below is not
/// a multiple of it.
const std::size_t kBatchSizes[] = {1, 7, 256, 100};

/// Stream length used for bounded sources: not a multiple of any batch size
/// above (4099 is prime), so every size ends on a short, EOF-straddling
/// batch; also not a multiple of the 1024-record chunking used for v2 files.
constexpr std::uint64_t kStreamLen = 4099;

// --- property: next_batch == repeated next, per implementation -------------

TEST(TraceBatch, GeneratorMatchesScalar) {
  for (const char* wl : {"mcf-like", "gamess-like"}) {
    TraceGenerator gen(*find_profile(wl), 7);
    const std::vector<Instr> ref = scalar_read(gen, 10'000);
    for (const std::size_t b : kBatchSizes) {
      gen.reset();
      expect_same_stream(ref, batch_read(gen, b, 10'000));
    }
  }
}

TEST(TraceBatch, PhasedGeneratorMatchesScalarAcrossPhaseSwitches) {
  const WorkloadProfile a = *find_profile("mcf-like");
  const WorkloadProfile b = *find_profile("gamess-like");
  // 997 is prime, so phase switches never align with any batch boundary.
  PhasedTraceGenerator scalar_gen(a, b, 997, 11);
  const std::vector<Instr> ref = scalar_read(scalar_gen, 10'000);
  for (const std::size_t bs : kBatchSizes) {
    PhasedTraceGenerator gen(a, b, 997, 11);
    expect_same_stream(ref, batch_read(gen, bs, 10'000));
    // Phase accounting advances identically (switch count is observable).
    EXPECT_EQ(gen.phase_switches(), scalar_gen.phase_switches());
  }
}

TEST(TraceBatch, VectorSourceMatchesScalar) {
  const std::vector<Instr> ref = generate("mcf-like", kStreamLen);
  for (const std::size_t b : kBatchSizes) {
    VectorTraceSource src(ref);
    expect_same_stream(ref, batch_read(src, b, kStreamLen + 10));
  }
}

TEST(TraceBatch, SharedViewMatchesScalar) {
  const auto buf = std::make_shared<const std::vector<Instr>>(
      generate("omnetpp-like", kStreamLen));
  for (const std::size_t b : kBatchSizes) {
    SharedTraceView view(buf);
    expect_same_stream(*buf, batch_read(view, b, kStreamLen + 10));
  }
}

TEST(TraceBatch, LimitedSourceMatchesScalarAndHonorsTheCap) {
  const std::vector<Instr> ref = generate("gcc-like", kStreamLen);
  // Cap below, at, and above the inner stream's length.
  for (const std::uint64_t limit : {std::uint64_t{1003}, kStreamLen,
                                    kStreamLen + 500}) {
    VectorTraceSource inner_scalar(ref);
    LimitedTraceSource scalar_src(inner_scalar, limit);
    const std::vector<Instr> want = scalar_read(scalar_src, limit + 10);
    for (const std::size_t b : kBatchSizes) {
      VectorTraceSource inner(ref);
      LimitedTraceSource src(inner, limit);
      expect_same_stream(want, batch_read(src, b, limit + 10));
    }
  }
}

TEST(TraceBatch, OffsetSourceRebasesOnlyRealAddresses) {
  // Generator streams contain kNoAddr (non-memory ops): the offset rewrite
  // must skip exactly those lanes, batch and scalar alike.
  const std::vector<Instr> ref = generate("gamess-like", kStreamLen);
  VectorTraceSource inner_scalar(ref);
  OffsetTraceSource scalar_src(inner_scalar, 0x4000'0000ULL);
  const std::vector<Instr> want = scalar_read(scalar_src, kStreamLen);
  for (const std::size_t b : kBatchSizes) {
    VectorTraceSource inner(ref);
    OffsetTraceSource src(inner, 0x4000'0000ULL);
    expect_same_stream(want, batch_read(src, b, kStreamLen));
  }
  bool saw_filler = false;
  for (const Instr& instr : want) saw_filler |= instr.addr == kNoAddr;
  EXPECT_TRUE(saw_filler);  // the property above actually exercised the skip
}

TEST(TraceBatch, FilteredSourceMatchesScalarLruStateAndAll) {
  const std::vector<Instr> ref = generate("mcf-like", kStreamLen);
  // The filter is stateful (LRU): each run gets its own, so divergence in
  // consultation ORDER — not just count — would show up as a different
  // rewritten stream.
  VectorTraceSource inner_scalar(ref);
  CacheFilter filter_scalar(32 * 1024, 64, 4);
  FilteredTraceSource scalar_src(inner_scalar, filter_scalar);
  const std::vector<Instr> want = scalar_read(scalar_src, kStreamLen);
  for (const std::size_t b : kBatchSizes) {
    VectorTraceSource inner(ref);
    CacheFilter filter(32 * 1024, 64, 4);
    FilteredTraceSource src(inner, filter);
    expect_same_stream(want, batch_read(src, b, kStreamLen));
    EXPECT_EQ(filter.hits(), filter_scalar.hits());
    EXPECT_EQ(filter.misses(), filter_scalar.misses());
  }
}

TEST(TraceBatch, FileV1MatchesScalar) {
  const std::vector<Instr> ref = generate("mcf-like", kStreamLen);
  TempFile f(tmp_path("v1"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file(f.path, s, ref.size()));
  }
  for (const std::size_t b : kBatchSizes) {
    FileTraceSource src(f.path);
    expect_same_stream(ref, batch_read(src, b, kStreamLen + 10));
  }
}

TEST(TraceBatch, FileV2MatchesScalarAcrossChunkBoundaries) {
  const std::vector<Instr> ref = generate("omnetpp-like", kStreamLen);
  TempFile f(tmp_path("v2"));
  {
    // 1024-record chunks: every batch size above straddles chunk boundaries
    // somewhere in the stream, and kStreamLen leaves a short final chunk.
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  for (const std::size_t b : kBatchSizes) {
    FileTraceSource src(f.path);
    expect_same_stream(ref, batch_read(src, b, kStreamLen + 10));
  }
}

TEST(TraceBatch, MmapMatchesScalarOnBothFormats) {
  const std::vector<Instr> ref = generate("gcc-like", kStreamLen);
  TempFile v1(tmp_path("mmap_v1")), v2(tmp_path("mmap_v2"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file(v1.path, s, ref.size()));
  }
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(v2.path, s, ref.size(), nullptr, 1024));
  }
  for (const std::string& path : {v1.path, v2.path}) {
    MmapTraceSource scalar_src(path);
    expect_same_stream(ref, scalar_read(scalar_src, kStreamLen + 10));
    for (const std::size_t b : kBatchSizes) {
      MmapTraceSource src(path);
      expect_same_stream(ref, batch_read(src, b, kStreamLen + 10));
    }
  }
}

TEST(TraceBatch, MmapAgreesWithBufferedReaderMetadataAndSeeks) {
  const std::vector<Instr> ref = generate("mcf-like", kStreamLen);
  TempFile f(tmp_path("mmap_meta"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  FileTraceSource buffered(f.path);
  MmapTraceSource mapped(f.path);
  EXPECT_EQ(buffered.info().records, mapped.info().records);
  EXPECT_EQ(buffered.info().version, mapped.info().version);
  EXPECT_EQ(buffered.info().stream_digest, mapped.info().stream_digest);
  EXPECT_EQ(buffered.info().n_chunks, mapped.info().n_chunks);

  // Same window from the same mid-chunk seek (chunk skipping included:
  // position 3'500 jumps over chunks the mmap reader never verified).
  for (SeekableTraceSource* src :
       {static_cast<SeekableTraceSource*>(&buffered),
        static_cast<SeekableTraceSource*>(&mapped)}) {
    src->seek(3'500);
    Instr instr;
    for (std::size_t i = 3'500; i < 3'600; ++i) {
      ASSERT_TRUE(src->next(instr));
      EXPECT_EQ(instr.addr, ref[i].addr);
    }
    src->seek(kStreamLen + 100);  // past-end clamps to clean EOF
    EXPECT_FALSE(src->next(instr));
  }
}

// --- contract details ------------------------------------------------------

TEST(TraceBatch, BatchesInterleaveFreelyWithScalarNext) {
  const std::vector<Instr> ref = generate("gamess-like", kStreamLen);
  TempFile f(tmp_path("interleave"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  FileTraceSource src(f.path);
  std::vector<Instr> got;
  InstrBlock block;
  Instr instr;
  // Alternate scalar draws and odd-size batches: one shared cursor.
  while (got.size() < ref.size()) {
    if (got.size() % 3 == 0 && src.next(instr)) got.push_back(instr);
    if (src.next_batch(block, 37) == 0) break;
    for (std::size_t i = 0; i < block.count; ++i) got.push_back(block.get(i));
  }
  expect_same_stream(ref, got);
}

TEST(TraceBatch, OversizedRequestClampsToBlockCapacity) {
  const std::vector<Instr> ref = generate("mcf-like", 2'000);
  VectorTraceSource src(ref);
  InstrBlock block;
  EXPECT_EQ(src.next_batch(block, 100'000), InstrBlock::kCapacity);
  TraceGenerator gen(*find_profile("mcf-like"), 3);
  EXPECT_EQ(gen.next_batch(block, 100'000), InstrBlock::kCapacity);
}

TEST(TraceBatch, RereadAfterSeekBackIsIdenticalWithMemoizedDigests) {
  // The per-chunk digest memo (trace_file.h) must be invisible: seeking back
  // and re-reading a chunk that was verified on first touch yields the same
  // records.  This is the warmup-window revisit pattern of sample/runner.
  const std::vector<Instr> ref = generate("omnetpp-like", kStreamLen);
  TempFile f(tmp_path("memo"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  FileTraceSource buffered(f.path);
  MmapTraceSource mapped(f.path);
  for (SeekableTraceSource* src :
       {static_cast<SeekableTraceSource*>(&buffered),
        static_cast<SeekableTraceSource*>(&mapped)}) {
    expect_same_stream(ref, scalar_read(*src, kStreamLen + 10));
    for (int pass = 0; pass < 2; ++pass) {  // revisit: memo hit both times
      src->seek(0);
      expect_same_stream(ref, batch_read(*src, 256, kStreamLen + 10));
    }
  }
}

TEST(TraceBatch, CorruptChunkThrowsAtTheSameRecordInBothReaders) {
  const std::vector<Instr> ref = generate("gcc-like", kStreamLen);
  TempFile f(tmp_path("corrupt"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Flip one payload byte inside the third chunk (header 40 B, 5-entry
  // index at 24 B each, two intact 1024-record chunks of 11 B records).
  const std::size_t payload_off = 40 + 5 * 24 + 2 * 1024 * 11 + 17;
  ASSERT_LT(payload_off, bytes.size());
  bytes[payload_off] = static_cast<char>(bytes[payload_off] ^ 0x40);
  std::ofstream(f.path, std::ios::binary) << bytes;

  auto scalar_served = [](SeekableTraceSource& src, bool& threw) {
    Instr instr;
    std::uint64_t served = 0;
    threw = false;
    try {
      while (src.next(instr)) ++served;
    } catch (const std::runtime_error&) {
      threw = true;
    }
    return served;
  };
  auto batch_served = [](SeekableTraceSource& src, bool& threw) {
    InstrBlock block;
    std::uint64_t served = 0;
    threw = false;
    try {
      while (src.next_batch(block, 7) == 7) served += 7;
      served += block.count;
    } catch (const std::runtime_error&) {
      threw = true;
    }
    return served;
  };
  const std::uint64_t intact = 2 * 1024;  // records in the undamaged chunks
  {
    FileTraceSource buffered(f.path);  // index intact: open succeeds
    MmapTraceSource mapped(f.path);
    bool threw_buf = false, threw_map = false;
    const std::uint64_t buf = scalar_served(buffered, threw_buf);
    const std::uint64_t map = scalar_served(mapped, threw_map);
    EXPECT_TRUE(threw_buf);
    EXPECT_TRUE(threw_map);
    // Byte-identity of the failure point: both readers serve exactly the
    // two intact chunks and throw on entering the third.
    EXPECT_EQ(buf, intact);
    EXPECT_EQ(map, intact);
  }
  {
    // Batch path: the batch touching the bad chunk is discarded whole, and
    // the discard point is the same in both readers.
    FileTraceSource buffered(f.path);
    MmapTraceSource mapped(f.path);
    bool threw_buf = false, threw_map = false;
    const std::uint64_t buf = batch_served(buffered, threw_buf);
    const std::uint64_t map = batch_served(mapped, threw_map);
    EXPECT_TRUE(threw_buf);
    EXPECT_TRUE(threw_map);
    EXPECT_EQ(buf, (intact / 7) * 7);
    EXPECT_EQ(map, buf);
  }
}

// --- SoA supporting pieces -------------------------------------------------

TEST(TraceBatch, CacheDecodeBlockMatchesScalarDecode) {
  const CacheConfig configs[] = {
      {.name = "l1", .size_bytes = 32 * 1024, .assoc = 8, .line_bytes = 64},
      {.name = "l2",
       .size_bytes = 2 * 1024 * 1024,
       .assoc = 16,
       .line_bytes = 128},
      {.name = "tiny", .size_bytes = 4 * 1024, .assoc = 1, .line_bytes = 32},
  };
  for (const CacheConfig& cc : configs) {
    Cache cache(cc);
    std::vector<Addr> addrs(InstrBlock::kCapacity);
    std::uint64_t x = 0x2545F4914F6CDD1DULL;
    for (Addr& a : addrs) {  // xorshift64 covers high and low tag bits
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      a = x;
    }
    addrs[0] = 0;              // boundary addresses
    addrs[1] = ~0ULL;
    addrs[2] = cc.line_bytes;  // exactly one line in
    std::vector<Addr> lines(addrs.size()), tags(addrs.size());
    std::vector<std::uint64_t> sets(addrs.size());
    cache.decode_block(addrs.data(), addrs.size(), lines.data(), sets.data(),
                       tags.data());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      EXPECT_EQ(lines[i], cache.line_addr(addrs[i])) << cc.name << " " << i;
      EXPECT_EQ(sets[i], cache.set_index(addrs[i])) << cc.name << " " << i;
      EXPECT_EQ(tags[i], cache.tag_of(addrs[i])) << cc.name << " " << i;
    }
    // Null lanes skip that output without touching the others.
    std::vector<Addr> only_tags(addrs.size());
    cache.decode_block(addrs.data(), addrs.size(), nullptr, nullptr,
                       only_tags.data());
    for (std::size_t i = 0; i < addrs.size(); ++i)
      EXPECT_EQ(only_tags[i], tags[i]);
  }
}

TEST(TraceBatch, StallSeriesRoundTripsEveryField) {
  StallSeries series;
  std::vector<StallEvent> ref;
  std::uint64_t x = 99;
  for (int i = 0; i < 1'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    StallEvent ev;
    ev.start = x % 1'000'000;
    ev.data_ready = ev.start + (x >> 32) % 500;
    ev.commit = ev.start + (x >> 40) % 100;
    ev.estimate = ev.data_ready + static_cast<Cycle>(x % 7) - 3;
    ev.dram = (x & 8) != 0;
    ev.reason = (x & 16) != 0 ? StallReason::kMlpLimit
                              : StallReason::kDependence;
    ref.push_back(ev);
    series.push_back(ev);
  }
  ASSERT_EQ(series.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const StallEvent got = series[i];
    EXPECT_EQ(got.start, ref[i].start);
    EXPECT_EQ(got.data_ready, ref[i].data_ready);
    EXPECT_EQ(got.commit, ref[i].commit);
    EXPECT_EQ(got.estimate, ref[i].estimate);
    EXPECT_EQ(got.dram, ref[i].dram);
    EXPECT_EQ(got.reason, ref[i].reason);
  }
  series.clear();
  EXPECT_TRUE(series.empty());
}

}  // namespace
}  // namespace mapg
