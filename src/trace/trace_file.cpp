#include "trace/trace_file.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <stdexcept>

namespace mapg {
namespace {

constexpr std::array<char, 8> kMagicV2 = {'M', 'A', 'P', 'G',
                                          'T', 'R', 'C', '2'};
constexpr std::size_t kRecordSize = 1 + 2 + 8;
constexpr std::size_t kV2HeaderSize = 8 + 4 * 8;  ///< magic + 4 u64 fields
constexpr std::size_t kIndexEntrySize = 3 * 8;
/// Refuse absurd headers rather than attempt a huge allocation.
constexpr std::uint64_t kMaxRecords = 1ULL << 40;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
/// Chunks digest-checked together by one FileTraceSource::verify_group pass.
constexpr std::size_t kVerifyLanes = 4;

void put_u16(char* p, std::uint16_t v) {
  p[0] = static_cast<char>(v & 0xff);
  p[1] = static_cast<char>((v >> 8) & 0xff);
}

void put_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      (static_cast<unsigned char>(p[1]) << 8));
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

void pack_record(char* rec, const Instr& instr) {
  rec[0] = static_cast<char>(instr.op);
  put_u16(rec + 1, instr.dep_dist);
  put_u64(rec + 3, instr.addr);
}

/// Decode one record; throws on an out-of-range op class (corruption the
/// chunk digest cannot catch when the digest entry itself was forged).
Instr unpack_record(const char* rec, std::uint64_t index) {
  const auto op = static_cast<unsigned char>(rec[0]);
  if (op >= kNumOpClasses)
    throw std::runtime_error("trace record " + std::to_string(index) +
                             ": bad op class " + std::to_string(op));
  Instr instr;
  instr.op = static_cast<OpClass>(op);
  instr.dep_dist = get_u16(rec + 1);
  instr.addr = get_u64(rec + 3);
  return instr;
}

/// Decode `n` packed records starting at `rec` into the block's SoA lanes —
/// the bulk path of FileTraceSource::next_batch.  Same op-class validation
/// (and message) as unpack_record; `first_index` is the absolute index of
/// rec[0].
void decode_records(const char* rec, std::uint64_t first_index, std::size_t n,
                    InstrBlock& out) {
  for (std::size_t i = 0; i < n; ++i, rec += kRecordSize) {
    const auto op = static_cast<unsigned char>(rec[0]);
    if (op >= kNumOpClasses)
      throw std::runtime_error("trace record " + std::to_string(first_index + i) +
                               ": bad op class " + std::to_string(op));
    out.op[out.count] = static_cast<OpClass>(op);
    out.dep_dist[out.count] = get_u16(rec + 1);
    out.addr[out.count] = get_u64(rec + 3);
    ++out.count;
  }
}

/// FNV-1a64 of `len` bytes at each data[j], as N independent chains
/// advanced in lockstep; h[j] seeds and receives chain j.  One chain is a
/// serial multiply dependency, so N chains overlap in the multiplier and N
/// ranges hash in little more than the time of one.  Each chain's result is
/// exactly trace_digest_update(data[j], len, h[j]).
template <std::size_t N>
void digest_lanes(const std::array<const char*, N>& data, std::size_t len,
                  std::array<std::uint64_t, N>& h) {
  // Chains live in a local so the char loads cannot alias them.
  std::array<std::uint64_t, N> chain = h;
  for (std::size_t i = 0; i < len; ++i)
    for (std::size_t j = 0; j < N; ++j) {
      chain[j] ^= static_cast<unsigned char>(data[j][i]);
      chain[j] *= kFnvPrime;
    }
  h = chain;
}

}  // namespace

std::uint64_t trace_digest_update(const char* data, std::size_t len,
                                  std::uint64_t seed) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

std::string trace_digest_hex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string TraceFileInfo::digest_hex() const {
  return trace_digest_hex(stream_digest);
}

std::uint64_t write_trace_v2(std::ostream& os, TraceSource& source,
                             std::uint64_t count, std::uint64_t chunk_size) {
  if (chunk_size == 0) chunk_size = kTraceChunkRecords;
  const std::uint64_t reserved_chunks =
      count == 0 ? 0 : (count + chunk_size - 1) / chunk_size;
  const std::streampos base = os.tellp();

  // Placeholder header + index; backpatched once the true chunk layout is
  // known (the source may end early).  Payload offsets are explicit, so the
  // reserved-but-unused index tail is dead space, not a format violation.
  std::vector<char> zeros(kV2HeaderSize + reserved_chunks * kIndexEntrySize,
                          0);
  os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));

  struct Meta {
    std::uint64_t offset, records, digest;
  };
  std::vector<Meta> metas;
  metas.reserve(reserved_chunks);
  std::vector<char> payload;
  payload.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(chunk_size, count) * kRecordSize));

  std::uint64_t written = 0;
  std::uint64_t stream_digest = kTraceDigestSeed;
  Instr instr;
  char rec[kRecordSize];
  while (written < count) {
    payload.clear();
    const std::uint64_t want = std::min(chunk_size, count - written);
    std::uint64_t got = 0;
    while (got < want && source.next(instr)) {
      pack_record(rec, instr);
      payload.insert(payload.end(), rec, rec + kRecordSize);
      ++got;
    }
    if (got == 0) break;
    Meta m;
    m.offset = static_cast<std::uint64_t>(os.tellp() - base) +
               static_cast<std::uint64_t>(base);
    m.records = got;
    // Chunk and stream digests in one pass: two chains over the same bytes.
    std::array<std::uint64_t, 2> h = {kTraceDigestSeed, stream_digest};
    digest_lanes<2>({payload.data(), payload.data()}, payload.size(), h);
    m.digest = h[0];
    stream_digest = h[1];
    metas.push_back(m);
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    written += got;
    if (got < want) break;  // source ended early
  }

  // Backpatch header + valid index entries.
  os.seekp(base);
  char header[kV2HeaderSize];
  std::copy(kMagicV2.begin(), kMagicV2.end(), header);
  put_u64(header + 8, written);
  put_u64(header + 16, chunk_size);
  put_u64(header + 24, metas.size());
  put_u64(header + 32, stream_digest);
  os.write(header, kV2HeaderSize);
  char entry[kIndexEntrySize];
  for (const Meta& m : metas) {
    put_u64(entry, m.offset);
    put_u64(entry + 8, m.records);
    put_u64(entry + 16, m.digest);
    os.write(entry, kIndexEntrySize);
  }
  os.seekp(0, std::ios::end);
  return written;
}

bool write_trace_file_v2(const std::string& path, TraceSource& source,
                         std::uint64_t count, std::string* error,
                         std::uint64_t chunk_size) {
  std::ofstream os(path, std::ios::binary);
  if (!os) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  write_trace_v2(os, source, count, chunk_size);
  os.flush();
  if (!os) {
    if (error) *error = "write failure on " + path;
    return false;
  }
  return true;
}

FileTraceSource::FileTraceSource(const std::string& path)
    : path_(path), is_(path, std::ios::binary) {
  if (!is_) throw std::runtime_error("cannot open trace file " + path);
  is_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is_.tellg());
  is_.seekg(0);

  std::array<char, 8> magic{};
  is_.read(magic.data(), magic.size());
  if (!is_) throw std::runtime_error(path + ": truncated magic");

  if (magic != kMagicV2)
    throw std::runtime_error(path + ": not a MAPGTRC2 trace");
  char header[kV2HeaderSize - 8];
  is_.read(header, sizeof header);
  if (!is_) throw std::runtime_error(path + ": truncated MAPGTRC2 header");
  info_.records = get_u64(header);
  info_.chunk_size = get_u64(header + 8);
  info_.n_chunks = get_u64(header + 16);
  info_.stream_digest = get_u64(header + 24);
  if (info_.records > kMaxRecords || info_.chunk_size == 0 ||
      info_.n_chunks > (info_.records / info_.chunk_size) + 1)
    throw std::runtime_error(path + ": malformed MAPGTRC2 header");
  // Bound the index by the file before allocating it: a lying chunk count
  // must be a malformed file, not a multi-gigabyte allocation.
  if (kV2HeaderSize + info_.n_chunks * kIndexEntrySize > file_size)
    throw std::runtime_error(path + ": truncated chunk index");

  chunks_.resize(info_.n_chunks);
  std::vector<char> index(info_.n_chunks * kIndexEntrySize);
  is_.read(index.data(), static_cast<std::streamsize>(index.size()));
  if (!is_) throw std::runtime_error(path + ": truncated chunk index");
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < info_.n_chunks; ++i) {
    const char* e = index.data() + i * kIndexEntrySize;
    chunks_[i].offset = get_u64(e);
    chunks_[i].records = get_u64(e + 8);
    chunks_[i].digest = get_u64(e + 16);
    // Every chunk but the last is full: the reader maps record r to chunk
    // r / chunk_size, so a short middle chunk would misplace every later
    // record.
    const bool last = i + 1 == info_.n_chunks;
    if (chunks_[i].records == 0 || chunks_[i].records > info_.chunk_size ||
        (!last && chunks_[i].records != info_.chunk_size))
      throw std::runtime_error(path + ": malformed chunk index entry " +
                               std::to_string(i));
    if (chunks_[i].offset + chunks_[i].records * kRecordSize > file_size)
      throw std::runtime_error(path + ": chunk " + std::to_string(i) +
                               " extends past end of file");
    total += chunks_[i].records;
  }
  if (total != info_.records)
    throw std::runtime_error(
        path + ": chunk index records disagree with header count");
  verdict_.assign(chunks_.size(), Verdict::kUnchecked);
}

void FileTraceSource::verify_group(std::uint64_t first) {
  // The group: `first` plus the unchecked chunks among the next three.
  // `first` is the largest of them (only a file's last chunk is short), so
  // buf_ sized for it splits into one slice per lane.
  struct Lane {
    std::uint64_t chunk, offset, left, digest;
  };
  std::array<Lane, kVerifyLanes> group{};
  std::size_t n = 0;
  for (std::uint64_t c = first;
       c < chunks_.size() && c < first + kVerifyLanes; ++c)
    if (verdict_[c] == Verdict::kUnchecked)
      group[n++] = {c, chunks_[c].offset, chunks_[c].records * kRecordSize,
                    kTraceDigestSeed};
  buf_chunk_ = ~0ULL;  // buf_ is scratch from here on
  buf_.resize(static_cast<std::size_t>(chunks_[first].records * kRecordSize));
  const std::size_t slice = buf_.size() / kVerifyLanes;

  while (true) {
    // Read the next slice of every lane with bytes left; a failed read
    // settles that chunk's verdict and retires its lane.
    std::array<Lane*, kVerifyLanes> live{};
    std::array<const char*, kVerifyLanes> data{};
    std::array<std::size_t, kVerifyLanes> take{};
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      Lane& l = group[j];
      if (l.left == 0) continue;
      char* dst = buf_.data() + m * slice;
      take[m] =
          static_cast<std::size_t>(std::min<std::uint64_t>(l.left, slice));
      is_.clear();
      is_.seekg(static_cast<std::streamoff>(l.offset));
      if (!is_.read(dst, static_cast<std::streamsize>(take[m]))) {
        verdict_[l.chunk] = Verdict::kShort;
        l.left = 0;
        continue;
      }
      l.offset += take[m];
      l.left -= take[m];
      data[m] = dst;
      live[m++] = &l;
    }
    if (m == 0) break;
    // The common prefix runs as interleaved chains (spare chains rehash
    // lane 0 into digests nobody reads); each lane finishes its own tail.
    const std::size_t common =
        *std::min_element(take.begin(), take.begin() + m);
    std::array<std::uint64_t, kVerifyLanes> h{};
    for (std::size_t j = 0; j < kVerifyLanes; ++j) {
      if (j >= m) data[j] = data[0];
      h[j] = j < m ? live[j]->digest : kTraceDigestSeed;
    }
    digest_lanes(data, common, h);
    for (std::size_t j = 0; j < m; ++j)
      live[j]->digest =
          trace_digest_update(data[j] + common, take[j] - common, h[j]);
  }
  for (std::size_t j = 0; j < n; ++j) {
    Verdict& v = verdict_[group[j].chunk];
    if (v == Verdict::kShort) continue;
    v = group[j].digest == chunks_[group[j].chunk].digest ? Verdict::kIntact
                                                          : Verdict::kCorrupt;
  }
}

void FileTraceSource::load_chunk(std::uint64_t chunk_index) {
  const ChunkMeta& m = chunks_.at(chunk_index);
  // Digest-check each chunk once, four at a time: revisits (sampled
  // simulation seeking back into warmup windows) reload the bytes but skip
  // the FNV scan.  A bad verdict stored for a later chunk of the group is
  // raised only here, when that chunk is entered.
  if (verdict_[chunk_index] == Verdict::kUnchecked) verify_group(chunk_index);
  buf_chunk_ = ~0ULL;  // until buf_ holds this whole chunk
  const Verdict v = verdict_[chunk_index];
  if (v == Verdict::kCorrupt)
    throw std::runtime_error(path_ + ": chunk " + std::to_string(chunk_index) +
                             " payload digest mismatch (corrupt trace)");
  if (v == Verdict::kIntact) {
    buf_.resize(static_cast<std::size_t>(m.records * kRecordSize));
    is_.clear();
    is_.seekg(static_cast<std::streamoff>(m.offset));
    is_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
  }
  if (v == Verdict::kShort || !is_)
    throw std::runtime_error(path_ + ": short read in chunk " +
                             std::to_string(chunk_index));
  buf_chunk_ = chunk_index;
  // Chunks are full except possibly the last, so the first absolute record
  // of chunk i is i * chunk_size.
  buf_first_ = chunk_index * info_.chunk_size;
}

bool FileTraceSource::next(Instr& out) {
  if (pos_ >= info_.records) return false;
  const std::uint64_t chunk = pos_ / info_.chunk_size;
  if (chunk != buf_chunk_) load_chunk(chunk);
  const std::uint64_t local = pos_ - buf_first_;
  out = unpack_record(buf_.data() + local * kRecordSize, pos_);
  ++pos_;
  return true;
}

std::size_t FileTraceSource::next_batch(InstrBlock& out, std::size_t max) {
  out.clear();
  if (max > InstrBlock::kCapacity) max = InstrBlock::kCapacity;
  while (out.count < max && pos_ < info_.records) {
    const std::uint64_t chunk = pos_ / info_.chunk_size;
    if (chunk != buf_chunk_) load_chunk(chunk);
    const std::uint64_t chunk_end = buf_first_ + chunks_[chunk].records;
    const std::size_t take = static_cast<std::size_t>(
        std::min<std::uint64_t>(max - out.count, chunk_end - pos_));
    decode_records(buf_.data() + (pos_ - buf_first_) * kRecordSize, pos_,
                   take, out);
    pos_ += take;
  }
  return out.count;
}

void FileTraceSource::seek(std::uint64_t pos) {
  pos_ = std::min(pos, info_.records);
}

bool trace_file_digest(const std::string& path, std::uint64_t& digest,
                       std::string* error) {
  try {
    const FileTraceSource src(path);
    digest = src.info().stream_digest;
    return true;
  } catch (const std::exception& e) {
    if (error) *error = e.what();
    return false;
  }
}

}  // namespace mapg
