// Trace ingestion + sampled simulation suite (docs/TRACE.md).
//
// Pins the contracts the sampling pipeline is allowed to claim: chunking
// changes neither the stream nor its content digest, the reader throws on
// damage (or a retired format) instead of reporting a short trace, the
// text converters produce exactly the documented records, plans are
// deterministic functions of (content, config) — across runs, thread
// counts, and the MAPGSIG1 signature cache — the block-fed signature scan
// equals a per-record reference bit for bit, lying count fields are
// malformed input rather than allocations, and the degenerate
// clusters >= regions case is bit-identical to full simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "exec/engine.h"
#include "exec/serialize.h"
#include "sample/runner.h"
#include "trace/convert.h"
#include "trace/generator.h"
#include "trace/profile.h"
#include "trace/trace_file.h"

namespace mapg {
namespace {

/// Unique-ish per-test temp path under the build dir's cwd.
// Unique per test and per process: ctest runs every discovered test as its
// own process, in parallel under -j, all in the same working directory.
std::string tmp_path(const std::string& stem) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info != nullptr ? std::string(info->test_suite_name()) +
                                           "." + info->name()
                                     : "global";
  std::replace(name.begin(), name.end(), '/', '_');
  return "test_sampling_" + name + "_" + stem + "_" +
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

std::vector<Instr> read_all(const std::string& path) {
  FileTraceSource src(path);
  std::vector<Instr> out;
  Instr instr;
  while (src.next(instr)) out.push_back(instr);
  return out;
}

bool same_stream(const std::vector<Instr>& a, const std::vector<Instr>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].op != b[i].op || a[i].addr != b[i].addr ||
        a[i].dep_dist != b[i].dep_dist)
      return false;
  return true;
}

std::string dump(const SimResult& r) { return result_to_json(r).dump(); }

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
}

// --- formats ---------------------------------------------------------------

TEST(TraceFile, ChunkingChangesNeitherStreamNorDigest) {
  const std::vector<Instr> ref = generate("mcf-like", 200'000);
  TempFile big(tmp_path("default")), small(tmp_path("small"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(big.path, s, ref.size()));
  }
  {
    // Chunking is framing, not content: a different chunk size must change
    // neither the stream nor the digest.
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(small.path, s, ref.size(), nullptr,
                                    /*chunk_size=*/1000));
  }
  EXPECT_TRUE(same_stream(ref, read_all(big.path)));
  EXPECT_TRUE(same_stream(ref, read_all(small.path)));

  FileTraceSource a(big.path), b(small.path);
  EXPECT_EQ(a.info().stream_digest, b.info().stream_digest);
  EXPECT_EQ(b.info().n_chunks, (ref.size() + 999) / 1000);
}

TEST(TraceFile, ShortSourceBackpatchesCountAndIndex) {
  // Asked for 100 records from a 10-record source: the writer reserves
  // index space for 100 and backpatches the header and index to the true
  // length, at the default chunking and at one that leaves dead index
  // entries behind the valid ones.
  const std::vector<Instr> ref = generate("gcc-like", 10);
  TempFile exact(tmp_path("exact"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(exact.path, s, ref.size()));
  }
  const std::uint64_t want_digest =
      FileTraceSource(exact.path).info().stream_digest;
  for (const std::uint64_t chunk : {kTraceChunkRecords, std::uint64_t{4}}) {
    TempFile t(tmp_path("short" + std::to_string(chunk)));
    {
      VectorTraceSource s(ref);
      std::ofstream out(t.path, std::ios::binary);
      EXPECT_EQ(write_trace_v2(out, s, 100, chunk), 10u);
    }
    FileTraceSource src(t.path);
    EXPECT_EQ(src.info().records, 10u) << chunk;
    EXPECT_EQ(src.info().stream_digest, want_digest) << chunk;
    EXPECT_TRUE(same_stream(ref, read_all(t.path))) << chunk;
  }
}

TEST(TraceFile, SeekWindowMatchesMaterializedSlice) {
  const std::vector<Instr> ref = generate("omnetpp-like", 50'000);
  TempFile f(tmp_path("seek"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 4096));
  }
  FileTraceSource src(f.path);
  src.seek(17'500);  // mid-chunk, several chunks in
  LimitedTraceSource window(src, 1'000);
  Instr instr;
  std::size_t i = 17'500;
  while (window.next(instr)) {
    ASSERT_LT(i, ref.size());
    EXPECT_EQ(instr.addr, ref[i].addr);
    EXPECT_EQ(instr.op, ref[i].op);
    ++i;
  }
  EXPECT_EQ(i, 18'500u);
  src.seek(ref.size() + 10);  // past-end clamps to a clean EOF
  EXPECT_FALSE(src.next(instr));
}

TEST(TraceFile, TruncationAndCorruptionThrowRatherThanEndCleanly) {
  const std::vector<Instr> ref = generate("gcc-like", 20'000);
  TempFile f(tmp_path("damage"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 4096));
  }
  std::string bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }

  // Truncated payload: the header promises more than the file holds.
  {
    TempFile t(tmp_path("trunc"));
    std::ofstream out(t.path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 64));
    out.close();
    EXPECT_THROW(FileTraceSource src(t.path), std::runtime_error);
  }

  // Bad magic.
  {
    TempFile t(tmp_path("magic"));
    std::string mutated = bytes;
    mutated[0] = 'X';
    std::ofstream(t.path, std::ios::binary) << mutated;
    EXPECT_THROW(FileTraceSource src(t.path), std::runtime_error);
  }

  // A well-formed file in the retired MAPGTRC1 layout (magic, u64 count,
  // packed records) is rejected by its magic, never misread as a stream.
  {
    TempFile t(tmp_path("legacy"));
    const std::size_t n = 3, first_payload = 40 + 5 * 24;
    std::string legacy(16 + n * 11, '\0');
    std::memcpy(legacy.data(), "MAPGTRC1", 8);
    put_u64(legacy, 8, n);
    std::memcpy(legacy.data() + 16, bytes.data() + first_payload, n * 11);
    std::ofstream(t.path, std::ios::binary) << legacy;
    try {
      FileTraceSource src(t.path);
      ADD_FAILURE() << "legacy trace opened with " << src.size()
                    << " records";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a MAPGTRC2 trace"),
                std::string::npos)
          << e.what();
    }
  }

  // Flip one payload byte in the third chunk: open succeeds (the index is
  // intact), streaming must throw AT the damaged chunk — never a silent
  // short trace.
  {
    TempFile t(tmp_path("corrupt"));
    std::string mutated = bytes;
    const std::size_t payload_off =
        40 + 5 * 24 + 2 * 4096 * 11 + 17;  // header + 5-entry index,
                                           // 2 intact chunks, +17 into 3rd
    ASSERT_LT(payload_off, mutated.size());
    mutated[payload_off] = static_cast<char>(mutated[payload_off] ^ 0x40);
    std::ofstream(t.path, std::ios::binary) << mutated;
    FileTraceSource src(t.path);
    Instr instr;
    std::uint64_t served = 0;
    EXPECT_THROW(
        {
          while (src.next(instr)) ++served;
        },
        std::runtime_error);
    EXPECT_EQ(served, 2u * 4096u);  // both intact chunks served first
  }
}

TEST(TraceFile, LyingCountFieldsAreMalformedNotAllocations) {
  // A 64-byte file whose header claims 2^40 one-record chunks: the index
  // alone would need 24 TiB, so the header is malformed, not an allocation.
  {
    TempFile t(tmp_path("huge_index"));
    std::string bytes(64, '\0');
    std::memcpy(bytes.data(), "MAPGTRC2", 8);
    put_u64(bytes, 8, 1ULL << 40);   // records
    put_u64(bytes, 16, 1);           // chunk_size
    put_u64(bytes, 24, 1ULL << 40);  // n_chunks
    std::ofstream(t.path, std::ios::binary) << bytes;
    EXPECT_THROW(FileTraceSource src(t.path), std::runtime_error);
  }
  // A short middle chunk: 15 records indexed as chunks of 5 and 10 under
  // chunk_size 10.  Every digest matches, but record r no longer lives in
  // chunk r / chunk_size, so the index is malformed.
  {
    TempFile t(tmp_path("short_middle"));
    const std::vector<Instr> ref = generate("gcc-like", 15);
    {
      VectorTraceSource s(ref);
      ASSERT_TRUE(write_trace_file_v2(t.path, s, ref.size(), nullptr, 5));
    }
    std::string bytes = read_bytes(t.path);
    const std::size_t payload = 40 + 3 * 24;
    put_u64(bytes, 16, 10);  // chunk_size
    put_u64(bytes, 24, 2);   // n_chunks; the third entry becomes dead space
    put_u64(bytes, 40 + 24 + 8, 10);
    put_u64(bytes, 40 + 24 + 16,
            trace_digest_update(bytes.data() + payload + 5 * 11, 10 * 11,
                                kTraceDigestSeed));
    std::ofstream(t.path, std::ios::binary) << bytes;
    EXPECT_THROW(FileTraceSource src(t.path), std::runtime_error);
  }
}

// --- converters ------------------------------------------------------------

TEST(Convert, RwDialectGolden) {
  std::istringstream text(
      "# capture header comment\n"
      "R 0x1000\n"
      "\n"
      "w 4096\n"
      "R 0x2040 # trailing comment\n");
  ConvertOptions opts;
  opts.dep_dist = 3;
  opts.pad = 1;
  std::vector<Instr> out;
  std::string err;
  ASSERT_TRUE(convert_text_trace(text, "rw", opts, out, &err)) << err;
  // 3 accesses, each followed by one ALU pad.
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].op, OpClass::kLoad);
  EXPECT_EQ(out[0].addr, 0x1000u);
  EXPECT_EQ(out[0].dep_dist, 3);
  EXPECT_EQ(out[1].op, OpClass::kAlu);
  EXPECT_EQ(out[1].addr, kNoAddr);
  EXPECT_EQ(out[2].op, OpClass::kStore);
  EXPECT_EQ(out[2].addr, 4096u);
  EXPECT_EQ(out[2].dep_dist, 0);  // stores carry no dep distance
  EXPECT_EQ(out[4].op, OpClass::kLoad);
  EXPECT_EQ(out[4].addr, 0x2040u);
}

TEST(Convert, DineroDialectDropsIfetchKeepsCount) {
  std::istringstream text("0 1000\n2 dead0\n1 2000\n");
  ConvertOptions opts;
  std::vector<Instr> out;
  ASSERT_TRUE(convert_text_trace(text, "dinero", opts, out));
  ASSERT_EQ(out.size(), 2u);  // label-2 ifetch validated, then dropped
  EXPECT_EQ(out[0].op, OpClass::kLoad);
  EXPECT_EQ(out[0].addr, 0x1000u);  // dinero addresses are hex
  EXPECT_EQ(out[1].op, OpClass::kStore);
  EXPECT_EQ(out[1].addr, 0x2000u);
}

TEST(Convert, ChampsimDialectGolden) {
  // CRC2-style text: `<ip> <addr> <L|S>`, both hex with optional 0x; the
  // instruction pointer is validated then dropped (the model has no I-side).
  std::istringstream text(
      "# champsim text capture\n"
      "0x401a10 0x7f001000 L\n"
      "\n"
      "401a14 7f002040 s\n"
      "0x401a18 0x7f001000 L # trailing comment\n");
  ConvertOptions opts;
  opts.dep_dist = 5;
  opts.pad = 1;
  std::vector<Instr> out;
  std::string err;
  ASSERT_TRUE(convert_text_trace(text, "champsim", opts, out, &err)) << err;
  // 3 accesses, each followed by one ALU pad.
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[0].op, OpClass::kLoad);
  EXPECT_EQ(out[0].addr, 0x7f001000u);
  EXPECT_EQ(out[0].dep_dist, 5);
  EXPECT_EQ(out[1].op, OpClass::kAlu);
  EXPECT_EQ(out[1].addr, kNoAddr);
  EXPECT_EQ(out[2].op, OpClass::kStore);  // lowercase s accepted
  EXPECT_EQ(out[2].addr, 0x7f002040u);
  EXPECT_EQ(out[2].dep_dist, 0);  // stores carry no dep distance
  EXPECT_EQ(out[4].op, OpClass::kLoad);
  EXPECT_EQ(out[4].addr, 0x7f001000u);
}

TEST(Convert, MalformedLineFailsWithLineNumber) {
  std::istringstream text("R 0x1000\nQ 0x2000\n");
  ConvertOptions opts;
  std::vector<Instr> out;
  std::string err;
  EXPECT_FALSE(convert_text_trace(text, "rw", opts, out, &err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(Convert, ChampsimMalformedLinesFailWithLineNumber) {
  ConvertOptions opts;
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      // Missing access type.
      {"0x400 0x1000 L\n0x404 0x2000\n", "line 2"},
      // Bad type letter.
      {"0x400 0x1000 X\n", "access type must be L or S"},
      // Multi-char type token.
      {"0x400 0x1000 LS\n", "access type must be L or S"},
      // Non-hex instruction pointer.
      {"zzz 0x1000 L\n", "bad hex instruction pointer"},
      // Non-hex data address.
      {"0x400 0xqq L\n", "bad hex address"},
      // Trailing garbage.
      {"0x400 0x1000 L extra\n", "trailing token"},
  };
  for (const auto& c : cases) {
    std::istringstream text(c.text);
    std::vector<Instr> out;
    std::string err;
    EXPECT_FALSE(convert_text_trace(text, "champsim", opts, out, &err))
        << c.text;
    EXPECT_NE(err.find(c.needle), std::string::npos) << err;
  }
}

TEST(Convert, CacheFilterRewritesHitsPreservesCount) {
  // Two lines ping-ponged: first touches miss, every repeat hits.
  std::vector<Instr> instrs;
  for (int i = 0; i < 10; ++i) {
    instrs.push_back({OpClass::kLoad, 0x1000, 1});
    instrs.push_back({OpClass::kStore, 0x2000, 0});
  }
  VectorTraceSource src(instrs);
  CacheFilter l1(32 * 1024, 64, 4);
  FilteredTraceSource filtered(src, l1);
  std::vector<Instr> out;
  Instr instr;
  while (filtered.next(instr)) out.push_back(instr);
  ASSERT_EQ(out.size(), instrs.size());  // count preserved exactly
  EXPECT_EQ(l1.misses(), 2u);
  EXPECT_EQ(l1.hits(), 18u);
  EXPECT_EQ(out[0].op, OpClass::kLoad);  // misses keep their identity
  EXPECT_EQ(out[2].op, OpClass::kAlu);   // hits become ALU filler
  EXPECT_EQ(out[2].addr, kNoAddr);
  EXPECT_EQ(out[2].dep_dist, 0);
}

TEST(Convert, CacheFilterConsultsInStreamOrderAndEvictsLru) {
  // One set, two ways: A B A C B A.  A hits once; C evicts B (A was used
  // more recently); B's refill evicts A, so the final A misses again.  The
  // ALU in between carries no address and must not touch the filter.
  const Addr a = 0x1000, b = 0x2000, c = 0x3000;
  const std::vector<Instr> instrs = {
      {OpClass::kLoad, a, 3}, {OpClass::kStore, b, 0},
      {OpClass::kLoad, a, 2}, {OpClass::kAlu, kNoAddr, 0},
      {OpClass::kLoad, c, 1}, {OpClass::kLoad, b, 0},
      {OpClass::kStore, a, 0}};
  VectorTraceSource src(instrs);
  CacheFilter filter(128, 64, 2);
  FilteredTraceSource filtered(src, filter);
  std::vector<Instr> out;
  Instr instr;
  while (filtered.next(instr)) out.push_back(instr);
  ASSERT_EQ(out.size(), instrs.size());
  EXPECT_EQ(filter.hits(), 1u);
  EXPECT_EQ(filter.misses(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Instr want = i == 2 ? Instr{OpClass::kAlu, kNoAddr, 0} : instrs[i];
    EXPECT_EQ(out[i].op, want.op) << i;
    EXPECT_EQ(out[i].addr, want.addr) << i;
    EXPECT_EQ(out[i].dep_dist, want.dep_dist) << i;
  }
}

// --- plans -----------------------------------------------------------------

struct PlannedTrace {
  explicit PlannedTrace(std::uint64_t n = 600'000)
      : file(tmp_path("plan")), count(n) {
    TraceGenerator gen(*find_profile("mcf-like"), 7);
    std::string err;
    if (!write_trace_file_v2(file.path, gen, count, &err))
      throw std::runtime_error(err);
  }
  TempFile file;
  std::uint64_t count;
};

bool plans_identical(const SamplePlan& a, const SamplePlan& b) {
  if (a.exhaustive != b.exhaustive || a.assignment != b.assignment ||
      a.regions.size() != b.regions.size() ||
      a.clusters.size() != b.clusters.size())
    return false;
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    if (a.regions[i].start != b.regions[i].start ||
        a.regions[i].length != b.regions[i].length ||
        a.regions[i].v != b.regions[i].v)  // bitwise double comparison
      return false;
  }
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    if (a.clusters[c].representative != b.clusters[c].representative ||
        a.clusters[c].weight != b.clusters[c].weight ||
        a.clusters[c].members != b.clusters[c].members)
      return false;
  }
  return true;
}

SampleConfig small_sample_config() {
  SampleConfig cfg;
  cfg.region_instructions = 50'000;
  cfg.clusters = 3;
  cfg.warmup_instructions = 10'000;
  cfg.seed = 42;
  return cfg;
}

TEST(SamplePlan, DeterministicAcrossRunsAndThreads) {
  PlannedTrace t;
  const SampleConfig cfg = small_sample_config();
  FileTraceSource src(t.file.path);
  const SamplePlan ref = build_sample_plan(src, cfg);
  EXPECT_FALSE(ref.exhaustive);
  EXPECT_EQ(ref.regions.size(), t.count / cfg.region_instructions);
  EXPECT_EQ(ref.clusters.size(), cfg.clusters);

  // Re-planning in this thread and in N concurrent threads must reproduce
  // the identical plan — clustering is single-threaded strict-< by
  // contract, so thread count cannot leak into the result.
  std::vector<SamplePlan> plans(4);
  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < plans.size(); ++i)
    workers.emplace_back([&, i] {
      FileTraceSource mine(t.file.path);
      plans[i] = build_sample_plan(mine, cfg);
    });
  for (std::thread& w : workers) w.join();
  for (const SamplePlan& p : plans) EXPECT_TRUE(plans_identical(ref, p));

  // A different seed is allowed to pick a different plan (and on this
  // trace does pick different representatives or members eventually);
  // at minimum it must still be a valid partition.
  SampleConfig reseeded = cfg;
  reseeded.seed = 1234;
  FileTraceSource again(t.file.path);
  const SamplePlan other = build_sample_plan(again, reseeded);
  std::size_t members = 0;
  for (const SampleCluster& c : other.clusters) members += c.members.size();
  EXPECT_EQ(members, other.regions.size());
}

TEST(SamplePlan, SignatureCacheHitIsByteIdenticalAndStaleCacheRejected) {
  PlannedTrace t;
  SampleConfig cfg = small_sample_config();
  TempFile cache(tmp_path("sigs"));
  cfg.signature_cache = cache.path;

  FileTraceSource src(t.file.path);
  const SamplePlan scanned = build_sample_plan(src, cfg);  // miss: scan+save
  const std::uint64_t digest = src.info().stream_digest;

  // Cache file exists and reloads to the same signatures bit-for-bit.
  auto reloaded = load_region_signatures(cache.path, digest,
                                         cfg.region_instructions, 64);
  ASSERT_TRUE(reloaded.has_value());
  ASSERT_EQ(reloaded->size(), scanned.regions.size());
  for (std::size_t i = 0; i < reloaded->size(); ++i)
    EXPECT_EQ((*reloaded)[i].v, scanned.regions[i].v);

  // A hit produces the identical plan without touching the trace cursor.
  FileTraceSource hit(t.file.path);
  const SamplePlan cached = build_sample_plan(hit, cfg);
  EXPECT_TRUE(plans_identical(scanned, cached));

  // Stale keys must be rejected: wrong digest, wrong slicing.
  EXPECT_FALSE(load_region_signatures(cache.path, digest ^ 1,
                                      cfg.region_instructions, 64));
  EXPECT_FALSE(load_region_signatures(cache.path, digest,
                                      cfg.region_instructions * 2, 64));
  EXPECT_FALSE(
      load_region_signatures(cache.path, digest, cfg.region_instructions, 32));
  // And a truncated cache file is a miss, not a crash.
  {
    std::ifstream in(cache.path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(cache.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(load_region_signatures(cache.path, digest,
                                      cfg.region_instructions, 64));
}

TEST(SamplePlan, LyingSignatureCountIsAMissAndThePlannerRescans) {
  PlannedTrace t(200'000);
  SampleConfig cfg = small_sample_config();
  TempFile cache(tmp_path("sigs"));
  cfg.signature_cache = cache.path;
  FileTraceSource src(t.file.path);
  const SamplePlan scanned = build_sample_plan(src, cfg);
  const std::uint64_t digest = src.info().stream_digest;
  const std::string good = read_bytes(cache.path);
  for (const std::uint64_t lie : {1ULL << 40, 1ULL << 62}) {
    std::string bytes = good;
    put_u64(bytes, 32, lie);  // region count
    std::ofstream(cache.path, std::ios::binary | std::ios::trunc) << bytes;
    EXPECT_FALSE(load_region_signatures(cache.path, digest,
                                        cfg.region_instructions, 64))
        << lie;
    FileTraceSource again(t.file.path);
    EXPECT_TRUE(plans_identical(scanned, build_sample_plan(again, cfg))) << lie;
    EXPECT_EQ(read_bytes(cache.path), good) << "rescan refreshes the cache";
  }
}

// --- signature scan identity ------------------------------------------------

// The bucket helpers as the data-dependent loops the closed forms in
// signature.h replaced: the oracle for them.
std::size_t loop_log2_bucket(std::uint64_t value, std::size_t buckets) {
  std::size_t b = 0;
  while (value > 1 && b + 1 < buckets) {
    value >>= 1;
    ++b;
  }
  return b;
}

std::size_t loop_dep_bucket(std::uint16_t dep) {
  return dep == 0 ? 0 : 1 + loop_log2_bucket(dep, 7);
}

std::size_t loop_stride_bucket(std::int64_t delta) {
  if (delta == 0) return 0;
  const std::uint64_t mag = delta > 0 ? static_cast<std::uint64_t>(delta)
                                      : static_cast<std::uint64_t>(-delta);
  const std::size_t cls = mag <= 2 ? 0 : mag <= 16 ? 1 : mag <= 256 ? 2 : 3;
  return delta > 0 ? 1 + cls : 5 + cls;
}

std::size_t loop_reuse_bucket(std::uint64_t dist) {
  return loop_log2_bucket(dist, 8);
}

/// Region signatures computed one Instr at a time with a node-based reuse
/// map and the loop buckets: the reference the block-fed scan must equal
/// bit for bit (signature.h gives the dims and the sliver rule).
std::vector<RegionSignature> reference_signatures(
    const std::vector<Instr>& instrs, std::uint64_t region) {
  std::vector<RegionSignature> out;
  for (std::uint64_t start = 0; start < instrs.size();) {
    const std::uint64_t len =
        std::min<std::uint64_t>(region, instrs.size() - start);
    if (!out.empty() && len < region / 100) {
      out.back().length += len;
      break;
    }
    std::array<std::uint64_t, kSignatureDims> count{};
    std::uint64_t loads = 0, mem = 0, deltas = 0, first = 0;
    std::unordered_map<std::uint64_t, std::uint64_t> last;
    std::optional<std::uint64_t> prev;
    for (std::uint64_t i = start; i < start + len; ++i) {
      const Instr& in = instrs[i];
      count[static_cast<std::size_t>(in.op)]++;
      if (in.op == OpClass::kLoad) {
        ++loads;
        count[7 + loop_dep_bucket(in.dep_dist)]++;
      }
      if ((in.op != OpClass::kLoad && in.op != OpClass::kStore) ||
          in.addr == kNoAddr)
        continue;
      const std::uint64_t line = in.addr >> 6;
      if (prev) {
        ++deltas;
        count[15 + loop_stride_bucket(static_cast<std::int64_t>(line) -
                                      static_cast<std::int64_t>(*prev))]++;
      }
      prev = line;
      const auto [it, fresh] = last.try_emplace(line, mem);
      if (fresh) {
        ++first;
      } else {
        count[24 + loop_reuse_bucket(mem - it->second)]++;
        it->second = mem;
      }
      ++mem;
    }
    auto base = [](std::uint64_t n) {
      return n != 0 ? static_cast<double>(n) : 1.0;
    };
    RegionSignature sig;
    sig.start = start;
    sig.length = len;
    for (std::size_t d = 0; d < kSignatureDims; ++d)
      sig.v[d] = static_cast<double>(count[d]) /
                 base(d < 7 ? len : d < 15 ? loads : d < 24 ? deltas : mem);
    sig.mem_ops = mem;
    sig.distinct_lines = last.size();
    sig.first_touch_fraction =
        mem != 0 ? static_cast<double>(first) / static_cast<double>(mem) : 0.0;
    out.push_back(sig);
    start += len;
  }
  return out;
}

TEST(SignatureScan, BlockScanEqualsThePerRecordReferenceBitForBit) {
  // Two phases, so the stride and reuse histograms see both a pointer
  // chase and a stream.  100'235 records in 1024-record chunks: regions
  // straddle chunk and block boundaries.
  std::vector<Instr> ref = generate("mcf-like", 60'000);
  const std::vector<Instr> tail = generate("libquantum-like", 40'235);
  ref.insert(ref.end(), tail.begin(), tail.end());
  TempFile f(tmp_path("scan"));
  {
    VectorTraceSource s(ref);
    ASSERT_TRUE(write_trace_file_v2(f.path, s, ref.size(), nullptr, 1024));
  }
  // 777 and 50'000 each leave a trailing sliver under 1% of a region (2
  // and 235 records) that folds into its predecessor; 1'000 leaves a
  // 235-record tail that stands as a region of its own.
  for (const std::uint64_t region : {777ULL, 50'000ULL, 1'000ULL}) {
    FileTraceSource src(f.path);
    const std::vector<RegionSignature> got =
        compute_region_signatures(src, region);
    const std::vector<RegionSignature> want = reference_signatures(ref, region);
    ASSERT_EQ(got.size(), want.size()) << region;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const RegionSignature& g = got[i];
      const RegionSignature& w = want[i];
      ASSERT_EQ(g.start, w.start) << region << " region " << i;
      ASSERT_EQ(g.length, w.length) << region << " region " << i;
      ASSERT_EQ(g.mem_ops, w.mem_ops) << region << " region " << i;
      ASSERT_EQ(g.distinct_lines, w.distinct_lines)
          << region << " region " << i;
      ASSERT_EQ(std::memcmp(&g.first_touch_fraction, &w.first_touch_fraction,
                            sizeof(double)),
                0)
          << region << " region " << i;
      ASSERT_EQ(std::memcmp(g.v.data(), w.v.data(), sizeof g.v), 0)
          << region << " region " << i;
    }
  }
}

TEST(SignatureScan, TraceAndSignatureCacheBytesArePinned) {
  // FNV-1a64 of the whole files the PlannedTrace pipeline writes, recorded
  // before the writer folded its two digest passes into one and before the
  // scan moved onto the block decoder: both formats are byte-identical.
  PlannedTrace t;
  SampleConfig cfg = small_sample_config();
  TempFile cache(tmp_path("sigs"));
  cfg.signature_cache = cache.path;
  FileTraceSource src(t.file.path);
  build_sample_plan(src, cfg);
  auto fnv = [](const std::string& bytes) {
    return trace_digest_update(bytes.data(), bytes.size(), kTraceDigestSeed);
  };
  EXPECT_EQ(fnv(read_bytes(t.file.path)), 0x3ca24551ee9cda61ULL);
  EXPECT_EQ(fnv(read_bytes(cache.path)), 0x0985bfec568e84aaULL);
}

TEST(SignatureScan, BucketHelpersMatchTheLoopsAtEdges) {
  std::vector<std::uint64_t> values = {0, 1, 65535, ~0ULL};
  for (int k = 1; k < 64; ++k) {
    const std::uint64_t p = 1ULL << k;
    values.insert(values.end(), {p - 1, p, p + 1});
  }
  for (const std::uint64_t v : values) {
    for (const std::size_t buckets : {1, 7, 8})
      EXPECT_EQ(log2_bucket(v, buckets), loop_log2_bucket(v, buckets))
          << v << " in " << buckets;
    EXPECT_EQ(reuse_bucket(v), loop_reuse_bucket(v)) << v;
  }
  for (std::uint32_t d = 0; d <= 0xFFFF; ++d)  // every dep_dist there is
    ASSERT_EQ(dep_bucket(static_cast<std::uint16_t>(d)),
              loop_dep_bucket(static_cast<std::uint16_t>(d)))
        << d;
  for (const std::int64_t mag :
       {0LL, 1LL, 2LL, 3LL, 16LL, 17LL, 256LL, 257LL, 1LL << 58})
    for (const std::int64_t delta : {mag, -mag})
      EXPECT_EQ(stride_bucket(delta), loop_stride_bucket(delta)) << delta;
}

// --- sampled simulation ----------------------------------------------------

SimConfig sim_config() {
  SimConfig cfg;
  cfg.run_seed = 1;
  return cfg;
}

TEST(SampledRun, DegenerateClustersEqualsRegionsIsBitIdenticalToFull) {
  PlannedTrace t(300'000);
  SampleConfig cfg = small_sample_config();
  cfg.clusters = 100;  // >= 6 regions -> exhaustive

  for (const char* policy : {"none", "mapg"}) {
    FileTraceSource src(t.file.path);
    SamplePlan plan = build_sample_plan(src, cfg);
    EXPECT_TRUE(plan.exhaustive);
    SampledRunner runner(sim_config(), src, std::move(plan), "trc");
    SampledResult sampled = runner.run(policy);
    ASSERT_TRUE(sampled.exact);
    ASSERT_TRUE(sampled.full.has_value());

    FileTraceSource direct_src(t.file.path);
    SimConfig direct_cfg = sim_config();
    direct_cfg.warmup_instructions = 0;
    direct_cfg.instructions = t.count;
    const SimResult direct =
        Simulator(direct_cfg).run(direct_src, "trc", policy);
    EXPECT_EQ(dump(*sampled.full), dump(direct)) << policy;

    // Exact results report zero-width intervals.
    for (const MetricEstimate& m : sampled.metrics) {
      EXPECT_EQ(m.stderr_, 0.0) << m.name;
      EXPECT_EQ(m.ci_lo, m.ci_hi) << m.name;
    }
  }
}

TEST(SampledRun, ProjectionBracketsAndTracksTheFullRun) {
  // Regions must be long enough for the dispersion model's brackets to be
  // meaningful (TRACE.md §9); this axis mirrors bench/micro_sampling's
  // smoke configuration, where measured coverage holds for every timing
  // metric.
  PlannedTrace t(2'000'000);  // 20 regions of 100k
  SampleConfig cfg;
  cfg.region_instructions = 100'000;
  cfg.clusters = 4;
  cfg.warmup_instructions = 20'000;
  cfg.seed = 42;

  FileTraceSource src(t.file.path);
  SamplePlan plan = build_sample_plan(src, cfg);
  ASSERT_FALSE(plan.exhaustive);
  SampledRunner runner(sim_config(), src, std::move(plan), "trc");
  const SampledResult sampled = runner.run("mapg");
  EXPECT_FALSE(sampled.exact);
  EXPECT_LT(sampled.instructions_simulated, t.count);
  EXPECT_EQ(sampled.instructions_projected, t.count);

  FileTraceSource direct_src(t.file.path);
  SimConfig direct_cfg = sim_config();
  direct_cfg.warmup_instructions = 0;
  direct_cfg.instructions = t.count;
  const SimResult full = Simulator(direct_cfg).run(direct_src, "trc", "mapg");

  const MetricEstimate* instrs = sampled.find("instructions");
  ASSERT_NE(instrs, nullptr);
  EXPECT_EQ(instrs->value, static_cast<double>(t.count));  // exact by design
  EXPECT_EQ(instrs->stderr_, 0.0);

  struct Check {
    const char* name;
    double full_value;
  } checks[] = {
      {"cycles", static_cast<double>(full.core.cycles)},
      {"ipc", full.ipc()},
      {"mpki", full.mpki()},
      {"gated_time_fraction", full.gated_time_fraction()},
  };
  for (const Check& c : checks) {
    const MetricEstimate* m = sampled.find(c.name);
    ASSERT_NE(m, nullptr) << c.name;
    // Within 5% of truth on this axis, and the 95% bracket is ordered and
    // contains the estimate.
    EXPECT_NEAR(m->value, c.full_value, 0.05 * std::abs(c.full_value) + 1e-9)
        << c.name;
    EXPECT_LE(m->ci_lo, m->value) << c.name;
    EXPECT_GE(m->ci_hi, m->value) << c.name;
    // The bracket covers the full-run value on these timing metrics (the
    // documented energy-bias caveat is exercised by bench/micro_sampling,
    // not asserted here).
    EXPECT_GE(c.full_value, m->ci_lo - 1e-9) << c.name;
    EXPECT_LE(c.full_value, m->ci_hi + 1e-9) << c.name;
  }

  // Re-running the identical spec projects identically (timelines are
  // cached per representative, and replay is deterministic).
  const SampledResult again = runner.run("mapg");
  for (std::size_t i = 0; i < sampled.metrics.size(); ++i) {
    EXPECT_EQ(sampled.metrics[i].value, again.metrics[i].value);
    EXPECT_EQ(sampled.metrics[i].stderr_, again.metrics[i].stderr_);
  }
}

// --- engine identity -------------------------------------------------------

TEST(TraceBindingIdentity, DigestKeysTheCachePathDoesNot) {
  const SimConfig cfg = sim_config();
  const WorkloadProfile& profile = *find_profile("mcf-like");

  TraceBinding a;
  a.path = "/tmp/a.trc";
  a.digest_hex = "00deadbeef001122";
  a.offset = 0;
  a.name = "trc";
  TraceBinding renamed = a;
  renamed.path = "/somewhere/else.trc";  // same content, different path
  TraceBinding edited = a;
  edited.digest_hex = "ffffffffffffffff";  // different content
  TraceBinding shifted = a;
  shifted.offset = 1'000'000;  // different window

  const std::string key_plain = cache_key(cfg, profile, "mapg");
  const std::string key_a = cache_key(cfg, profile, "mapg", &a);
  const std::string key_renamed = cache_key(cfg, profile, "mapg", &renamed);
  const std::string key_edited = cache_key(cfg, profile, "mapg", &edited);
  const std::string key_shifted = cache_key(cfg, profile, "mapg", &shifted);

  EXPECT_NE(key_a, key_plain);    // trace-bound is a distinct experiment
  EXPECT_EQ(key_a, key_renamed);  // renaming never splits the cache
  EXPECT_NE(key_a, key_edited);   // content changes always miss
  EXPECT_NE(key_a, key_shifted);  // windows are distinct cells
}

}  // namespace
}  // namespace mapg
