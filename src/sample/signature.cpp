#include "sample/signature.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

namespace mapg {
namespace {

/// Open-addressing line -> last-mem-op-index map.  The reuse-distance
/// feature touches this once per memory op, which makes it the hot path of
/// the whole signature scan; a flat linear-probe table with O(1)
/// epoch-based clearing is severalfold faster than node-based hashing and
/// is why planning a 50M-instruction trace stays in scan-bound territory.
class LineMap {
 public:
  LineMap() { rehash(1 << 12); }

  void clear() {
    size_ = 0;
    if (++epoch_ == 0) {  // epoch wrapped: invalidate every slot for real
      for (Slot& s : slots_) s.epoch = 0;
      epoch_ = 1;
    }
  }

  std::size_t size() const { return size_; }

  /// Insert `line -> idx`; if the line was already present, store the
  /// previous index in `*prev` and return false (not a first touch).
  bool touch(std::uint64_t line, std::uint64_t idx, std::uint64_t* prev) {
    if (size_ * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t i = hash(line) & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.epoch != epoch_) {
        s.key = line;
        s.val = idx;
        s.epoch = epoch_;
        ++size_;
        return true;
      }
      if (s.key == line) {
        *prev = s.val;
        s.val = idx;
        return false;
      }
      i = (i + 1) & mask_;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t val = 0;
    std::uint32_t epoch = 0;  ///< occupied iff == current epoch
  };

  static std::size_t hash(std::uint64_t k) {
    k *= 0x9E3779B97F4A7C15ULL;  // Fibonacci multiplier, then fold high bits
    return static_cast<std::size_t>(k ^ (k >> 32));
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    const std::uint32_t live = epoch_;
    epoch_ = 1;
    size_ = 0;
    std::uint64_t ignored;
    for (const Slot& s : old)
      if (s.epoch == live) touch(s.key, s.val, &ignored);
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;
};

constexpr std::size_t kOpBase = 0;      // 7 dims
constexpr std::size_t kDepBase = 7;     // 8 dims
constexpr std::size_t kStrideBase = 15; // 9 dims
constexpr std::size_t kReuseBase = 24;  // 8 dims

struct RegionAccum {
  std::array<std::uint64_t, kNumOpClasses> ops{};
  std::array<std::uint64_t, 8> dep{};
  std::array<std::uint64_t, 9> stride{};
  std::array<std::uint64_t, 8> reuse{};
  std::uint64_t loads = 0, mem_ops = 0, deltas = 0, first_touches = 0;
  LineMap last_seen;  ///< line -> mem-op idx of last touch
  bool have_prev_line = false;
  std::uint64_t prev_line = 0;

  void reset() {
    ops.fill(0);
    dep.fill(0);
    stride.fill(0);
    reuse.fill(0);
    loads = mem_ops = deltas = first_touches = 0;
    last_seen.clear();
    have_prev_line = false;
    prev_line = 0;
  }

  void add(OpClass op, std::uint16_t dep_dist, Addr addr,
           std::uint64_t line_shift) {
    ops[static_cast<std::size_t>(op)]++;
    if (op == OpClass::kLoad) {
      ++loads;
      dep[dep_bucket(dep_dist)]++;
    }
    const bool is_mem =
        (op == OpClass::kLoad || op == OpClass::kStore) && addr != kNoAddr;
    if (!is_mem) return;
    const std::uint64_t line = addr >> line_shift;
    if (have_prev_line) {
      ++deltas;
      stride[stride_bucket(static_cast<std::int64_t>(line) -
                           static_cast<std::int64_t>(prev_line))]++;
    }
    prev_line = line;
    have_prev_line = true;
    std::uint64_t prev = 0;
    if (last_seen.touch(line, mem_ops, &prev)) {
      ++first_touches;
    } else {
      reuse[reuse_bucket(mem_ops - prev)]++;
    }
    ++mem_ops;
  }

  RegionSignature finish(std::uint64_t start, std::uint64_t length) const {
    RegionSignature sig;
    sig.start = start;
    sig.length = length;
    const double n = length ? static_cast<double>(length) : 1.0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kNumOpClasses); ++i)
      sig.v[kOpBase + i] = static_cast<double>(ops[i]) / n;
    const double nl = loads ? static_cast<double>(loads) : 1.0;
    for (std::size_t i = 0; i < dep.size(); ++i)
      sig.v[kDepBase + i] = static_cast<double>(dep[i]) / nl;
    const double nd = deltas ? static_cast<double>(deltas) : 1.0;
    for (std::size_t i = 0; i < stride.size(); ++i)
      sig.v[kStrideBase + i] = static_cast<double>(stride[i]) / nd;
    const double nm = mem_ops ? static_cast<double>(mem_ops) : 1.0;
    for (std::size_t i = 0; i < reuse.size(); ++i)
      sig.v[kReuseBase + i] = static_cast<double>(reuse[i]) / nm;
    sig.mem_ops = mem_ops;
    sig.distinct_lines = last_seen.size();
    sig.first_touch_fraction =
        mem_ops ? static_cast<double>(first_touches) / nm : 0.0;
    return sig;
  }
};

}  // namespace

std::vector<RegionSignature> compute_region_signatures(
    FileTraceSource& trace, std::uint64_t region_instructions,
    std::uint64_t line_bytes) {
  if (region_instructions == 0) region_instructions = 1;
  std::uint64_t line_shift = 0;
  while ((1ULL << line_shift) < line_bytes) ++line_shift;

  std::vector<RegionSignature> out;
  RegionAccum acc;
  std::uint64_t region_start = 0, in_region = 0;
  InstrBlock block;
  while (trace.next_batch(block) > 0) {
    for (std::size_t i = 0; i < block.count;) {
      // Run to the end of the block or of the region, whichever is first.
      const std::size_t end =
          i + static_cast<std::size_t>(std::min<std::uint64_t>(
                  block.count - i, region_instructions - in_region));
      in_region += end - i;
      for (; i < end; ++i)
        acc.add(block.op[i], block.dep_dist[i], block.addr[i], line_shift);
      if (in_region == region_instructions) {
        out.push_back(acc.finish(region_start, in_region));
        acc.reset();
        region_start += in_region;
        in_region = 0;
      }
    }
  }
  if (in_region > 0) {
    // A trailing sliver (< 1% of nominal) would make a meaningless
    // representative, so when a predecessor exists its instructions join
    // that region's length and keep its signature; otherwise the tail is a
    // region of its own.
    if (!out.empty() && in_region < region_instructions / 100) {
      out.back().length += in_region;
    } else {
      out.push_back(acc.finish(region_start, in_region));
    }
  }
  return out;
}

double signature_l1(const std::array<double, kSignatureDims>& a,
                    const std::array<double, kSignatureDims>& b) {
  double d = 0;
  for (std::size_t i = 0; i < kSignatureDims; ++i) d += std::abs(a[i] - b[i]);
  return d;
}

namespace {

constexpr char kSigMagic[8] = {'M', 'A', 'P', 'G', 'S', 'I', 'G', '1'};
/// Bytes per region: four u64 counts, f64 first_touch_fraction, f64 v[].
constexpr std::size_t kRegionBytes = 8 * 5 + 8 * kSignatureDims;

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  put_u64(out, bits);
}

bool get_u64(const std::string& in, std::size_t& pos, std::uint64_t* v) {
  if (pos + 8 > in.size()) return false;
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i)
    r |= static_cast<std::uint64_t>(
             static_cast<unsigned char>(in[pos + static_cast<std::size_t>(i)]))
         << (8 * i);
  pos += 8;
  *v = r;
  return true;
}

bool get_f64(const std::string& in, std::size_t& pos, double* v) {
  std::uint64_t bits;
  if (!get_u64(in, pos, &bits)) return false;
  std::memcpy(v, &bits, 8);
  return true;
}

}  // namespace

bool save_region_signatures(const std::string& path, std::uint64_t digest,
                            std::uint64_t region_instructions,
                            std::uint64_t line_bytes,
                            const std::vector<RegionSignature>& sigs,
                            std::string* error) {
  std::string buf;
  buf.reserve(40 + sigs.size() * kRegionBytes);
  buf.append(kSigMagic, sizeof(kSigMagic));
  put_u64(buf, digest);
  put_u64(buf, region_instructions);
  put_u64(buf, line_bytes);
  put_u64(buf, sigs.size());
  for (const RegionSignature& s : sigs) {
    put_u64(buf, s.start);
    put_u64(buf, s.length);
    put_u64(buf, s.mem_ops);
    put_u64(buf, s.distinct_lines);
    put_f64(buf, s.first_touch_fraction);
    for (double d : s.v) put_f64(buf, d);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  out.flush();
  if (!out) {
    if (error) *error = "cannot write signature cache '" + path + "'";
    return false;
  }
  return true;
}

std::optional<std::vector<RegionSignature>> load_region_signatures(
    const std::string& path, std::uint64_t digest,
    std::uint64_t region_instructions, std::uint64_t line_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (buf.size() < 40 ||
      std::memcmp(buf.data(), kSigMagic, sizeof(kSigMagic)) != 0)
    return std::nullopt;
  std::size_t pos = sizeof(kSigMagic);
  std::uint64_t got_digest, got_region, got_line, count;
  if (!get_u64(buf, pos, &got_digest) || !get_u64(buf, pos, &got_region) ||
      !get_u64(buf, pos, &got_line) || !get_u64(buf, pos, &count))
    return std::nullopt;
  // Any header mismatch means the cache describes a DIFFERENT slicing of a
  // DIFFERENT stream: reject, never adapt.
  if (got_digest != digest || got_region != region_instructions ||
      got_line != line_bytes)
    return std::nullopt;
  // Bound the count by the bytes present before reserving: a lying count
  // is a truncated file (a rescan), not a huge allocation.
  if (count > (buf.size() - pos) / kRegionBytes) return std::nullopt;
  std::vector<RegionSignature> sigs;
  sigs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    RegionSignature s;
    if (!get_u64(buf, pos, &s.start) || !get_u64(buf, pos, &s.length) ||
        !get_u64(buf, pos, &s.mem_ops) ||
        !get_u64(buf, pos, &s.distinct_lines) ||
        !get_f64(buf, pos, &s.first_touch_fraction))
      return std::nullopt;
    for (double& d : s.v)
      if (!get_f64(buf, pos, &d)) return std::nullopt;
    sigs.push_back(s);
  }
  if (pos != buf.size()) return std::nullopt;  // trailing garbage
  return sigs;
}

}  // namespace mapg
