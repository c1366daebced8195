// FileTraceSource's block decoder (docs/TRACE.md §4).
//
// FileTraceSource::next_batch decodes on-disk records straight into an
// InstrBlock's SoA lanes, and its contract is exactly "repeated next()": same
// stream, same EOF position, same errors.  This suite pins that across batch
// sizes that hit the interesting boundaries: 1 (degenerate), 7
// (chunk-straddling odd size), 256 (full block), and sizes that straddle EOF
// mid-batch.  It also pins the block decoder's error point
// on a corrupted chunk (the same record as next()), the per-chunk digest
// memo under seek-back, the grouped verification's error contract (a bad
// chunk found early throws only when it is entered), and StallSeries
// round-tripping StallEvent exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cpu/core.h"
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
std::vector<Instr> batch_read(FileTraceSource& src, std::size_t batch,
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

/// Batch sizes exercised: degenerate, odd (so batches straddle chunk
/// boundaries), a full block, and a size chosen so the final request
/// straddles EOF whenever the stream length below is not a multiple of it.
const std::size_t kBatchSizes[] = {1, 7, 256, 100};

/// Stream length of every test file: not a multiple of any batch size above
/// (4099 is prime), so every size ends on a short, EOF-straddling batch;
/// also not a multiple of the 1024-record chunking used below.
constexpr std::uint64_t kStreamLen = 4099;

// --- property: next_batch == repeated next ---------------------------------

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
  TempFile f(tmp_path("clamp"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  FileTraceSource src(f.path);
  InstrBlock block;
  EXPECT_EQ(src.next_batch(block, 100'000), InstrBlock::kCapacity);
  EXPECT_EQ(block.count, InstrBlock::kCapacity);
  for (std::size_t i = 0; i < block.count; ++i)
    ASSERT_EQ(block.addr[i], ref[i].addr) << "record " << i;
  EXPECT_EQ(src.pos(), InstrBlock::kCapacity);
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
  FileTraceSource src(f.path);
  expect_same_stream(ref, scalar_read(src, kStreamLen + 10));
  for (int pass = 0; pass < 2; ++pass) {  // revisit: memo hit both times
    src.seek(0);
    expect_same_stream(ref, batch_read(src, 256, kStreamLen + 10));
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

  auto scalar_served = [](FileTraceSource& src, bool& threw) {
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
  auto batch_served = [](FileTraceSource& src, bool& threw) {
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
  // Open succeeds (the index is intact); next() serves exactly the two
  // intact chunks and throws on entering the third.
  FileTraceSource scalar_src(f.path);
  bool threw_scalar = false;
  EXPECT_EQ(scalar_served(scalar_src, threw_scalar), intact);
  EXPECT_TRUE(threw_scalar);
  // The batch touching the bad chunk is discarded whole, so next_batch
  // throws on the same record: every full batch before it was served.
  FileTraceSource batch_src(f.path);
  bool threw_batch = false;
  EXPECT_EQ(batch_served(batch_src, threw_batch), (intact / 7) * 7);
  EXPECT_TRUE(threw_batch);
}

// --- grouped verification ----------------------------------------------------

/// Write `ref` as MAPGTRC2 with 1024-record chunks, then flip one payload
/// byte inside `bad_chunk` (none when it is past the last chunk).
void write_v2_with_bad_chunk(const std::string& path,
                             const std::vector<Instr>& ref,
                             std::uint64_t bad_chunk) {
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(path, s, ref.size(), nullptr, 1024));
  }
  const std::uint64_t n_chunks = (ref.size() + 1023) / 1024;
  if (bad_chunk >= n_chunks) return;
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  // Header 40 B, 24 B per index entry, 11 B records; +2 lands inside the
  // first record even of a short chunk.
  const std::size_t off = 40 + n_chunks * 24 + bad_chunk * 1024 * 11 + 2;
  ASSERT_LT(off, bytes.size());
  bytes[off] = static_cast<char>(bytes[off] ^ 0x40);
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Records next() serves before it throws (or reaches the end).
std::uint64_t served_by_next(FileTraceSource& src, bool& threw,
                             std::string* what = nullptr) {
  Instr instr;
  std::uint64_t served = 0;
  threw = false;
  try {
    while (src.next(instr)) ++served;
  } catch (const std::runtime_error& e) {
    threw = true;
    if (what != nullptr) *what = e.what();
  }
  return served;
}

/// Records next_batch serves in full batches of `b` before it throws.
std::uint64_t served_by_batches(FileTraceSource& src, std::size_t b,
                                bool& threw) {
  InstrBlock block;
  std::uint64_t served = 0;
  threw = false;
  try {
    while (src.next_batch(block, b) == b) served += b;
    served += block.count;
  } catch (const std::runtime_error&) {
    threw = true;
  }
  return served;
}

TEST(GroupedVerification, BadChunkAtEachGroupPositionThrowsAtItsFirstRecord) {
  // Four chunks, the last one short: the first load verifies all four in
  // one group, so each position of the group (the loaded chunk, the two
  // full ones behind it, and the short tail) must hold its verdict until
  // the reader enters it.
  constexpr std::uint64_t kLen = 3 * 1024 + 500;
  const std::vector<Instr> ref = generate("gcc-like", kLen);
  for (std::uint64_t bad = 0; bad < 4; ++bad) {
    TempFile f(tmp_path("group" + std::to_string(bad)));
    write_v2_with_bad_chunk(f.path, ref, bad);
    const std::uint64_t intact = bad * 1024;

    FileTraceSource scalar_src(f.path);
    bool threw = false;
    std::string what;
    EXPECT_EQ(served_by_next(scalar_src, threw, &what), intact) << bad;
    EXPECT_TRUE(threw) << bad;
    EXPECT_NE(what.find("chunk " + std::to_string(bad) +
                        " payload digest mismatch"),
              std::string::npos)
        << what;
    for (const std::size_t b : {std::size_t{7}, std::size_t{256}}) {
      FileTraceSource batch_src(f.path);
      EXPECT_EQ(served_by_batches(batch_src, b, threw), (intact / b) * b)
          << "chunk " << bad << ", batch " << b;
      EXPECT_TRUE(threw) << "chunk " << bad << ", batch " << b;
    }
    // The intact prefix is the right prefix.
    FileTraceSource prefix_src(f.path);
    const std::vector<Instr> want(ref.begin(),
                                  ref.begin() + static_cast<long>(intact));
    expect_same_stream(want, scalar_read(prefix_src, intact));
  }
}

TEST(GroupedVerification, FileShrunkAfterOpenThrowsShortReadAtTheLostChunk) {
  // A read that fails during the group pass is a stored verdict too: the
  // chunks before the cut are served whole, then the first lost chunk
  // throws a short read.
  const std::vector<Instr> ref = generate("mcf-like", kStreamLen);
  TempFile f(tmp_path("shrunk"));
  write_v2_with_bad_chunk(f.path, ref, ~0ULL);
  FileTraceSource src(f.path);
  std::filesystem::resize_file(f.path, 40 + 5 * 24 + 2 * 1024 * 11 + 100);
  bool threw = false;
  std::string what;
  EXPECT_EQ(served_by_next(src, threw, &what), 2u * 1024u);
  EXPECT_TRUE(threw);
  EXPECT_NE(what.find("short read in chunk 2"), std::string::npos) << what;
}

TEST(GroupedVerification, WindowsAroundABadChunkReadCleanly) {
  const std::vector<Instr> ref = generate("omnetpp-like", kStreamLen);
  TempFile f(tmp_path("window"));
  write_v2_with_bad_chunk(f.path, ref, 2);
  auto slice = [&](std::uint64_t from, std::uint64_t to) {
    return std::vector<Instr>(ref.begin() + static_cast<long>(from),
                              ref.begin() + static_cast<long>(to));
  };
  FileTraceSource src(f.path);
  // A window that ends before the bad chunk: its group pass found the bad
  // chunk, but the window never enters it.
  src.seek(100);
  {
    LimitedTraceSource window(src, 2 * 1024 - 100);
    expect_same_stream(slice(100, 2 * 1024), scalar_read(window, kStreamLen));
  }
  // A seek past it reads to the end cleanly, through next() and batches.
  src.seek(3 * 1024 + 5);
  expect_same_stream(slice(3 * 1024 + 5, kStreamLen),
                     scalar_read(src, kStreamLen));
  src.seek(3 * 1024 + 5);
  expect_same_stream(slice(3 * 1024 + 5, kStreamLen),
                     batch_read(src, 7, kStreamLen));
  // Entering the bad chunk throws; seeking back afterwards serves the
  // intact chunk again, not the bytes the failed load left behind.
  src.seek(2 * 1024 - 3);
  bool threw = false;
  EXPECT_EQ(served_by_next(src, threw), 3u);
  EXPECT_TRUE(threw);
  src.seek(1024);
  expect_same_stream(slice(1024, 2 * 1024), scalar_read(src, 1024));
}

// --- stall series ----------------------------------------------------------

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
