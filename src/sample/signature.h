// Per-region memory-access-vector signatures.
//
// Sampled simulation (planner.h) clusters fixed-size trace regions by
// behaviour; the signature is the feature vector that makes "behaviour"
// concrete.  Following the memory-access-vector idea (PAPERS.md,
// arXiv 2506.02344), each region is summarized by normalized histograms of
// exactly the stream properties that determine stall structure in this
// model (trace/instr.h): what the ops are, how soon loads block, where the
// addresses go, and how much of the footprint is re-touched.
//
//   dims  0..6   op-class mix        fraction of region instructions
//   dims  7..14  load dep_dist       log2 buckets (0, 1, 2-3, …, 64+),
//                                    normalized by load count
//   dims 15..23  mem-op line stride  successive line-address deltas:
//                                    {0, +1..2, +3..16, +17..256, +257+,
//                                     and the four negative mirrors},
//                                    normalized by delta count
//   dims 24..31  line reuse distance mem-ops since the line's previous
//                                    touch WITHIN the region, log2 buckets
//                                    (1, 2-3, 4-7, …, 128+), normalized by
//                                    mem-op count; first touches carry no
//                                    bucket (their mass is the remainder)
//
// Reuse state is cleared at every region boundary, so signature extraction
// streams with O(region footprint) memory and regions are position-
// independent.  Auxiliary raw counts (mem ops, distinct lines, first-touch
// fraction) ride along for the projection's dispersion model (runner.h).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/trace_file.h"

namespace mapg {

inline constexpr std::size_t kSignatureDims = 32;

struct RegionSignature {
  std::uint64_t start = 0;   ///< absolute instruction index of first instr
  std::uint64_t length = 0;  ///< instructions in the region
  std::array<double, kSignatureDims> v{};  ///< normalized feature vector

  // Auxiliary per-region counts for the projection dispersion model.
  std::uint64_t mem_ops = 0;
  std::uint64_t distinct_lines = 0;
  double first_touch_fraction = 0;  ///< of mem ops (cold-miss proxy)

  /// Scalar work-intensity proxy: how much distinct memory traffic the
  /// region generates per instruction.  Used by the runner's CI model to
  /// score how far a region sits from its cluster representative.
  double aux_intensity() const {
    return length == 0
               ? 0.0
               : (static_cast<double>(distinct_lines) +
                  0.1 * static_cast<double>(mem_ops) + 1.0) /
                     static_cast<double>(length);
  }
};

/// Slice `trace` (from its current position to its end) into consecutive
/// regions of `region_instructions` and compute each region's signature.
/// Region starts count from that position.  The final region may be short;
/// a trailing region shorter than 1% of the nominal size is merged into its
/// predecessor so degenerate slivers never become cluster representatives.
/// `line_bytes` sets the address granularity for stride/reuse features.
/// Records arrive through the reader's block decoder (next_batch), so its
/// errors propagate unchanged.
std::vector<RegionSignature> compute_region_signatures(
    FileTraceSource& trace, std::uint64_t region_instructions,
    std::uint64_t line_bytes = 64);

// Histogram bucket of each feature (the dims table above).  Exact integer
// arithmetic with no data-dependent loop: these run once per record in the
// signature scan.

/// floor(log2(value)) clamped to the last of `buckets` (>= 1); 0 maps to 0.
inline std::size_t log2_bucket(std::uint64_t value, std::size_t buckets) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(std::bit_width(value | 1)) - 1, buckets - 1);
}

/// dep_dist buckets: 0 (no consumer in window), then log2 classes of the
/// distance (1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+).
inline std::size_t dep_bucket(std::uint16_t dep) {
  return std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(dep)),
                               7);
}

/// Stride buckets over successive mem-op line deltas: 0, then four
/// magnitude classes per direction (|d| in 1-2, 3-16, 17-256, 257+).
inline std::size_t stride_bucket(std::int64_t delta) {
  if (delta == 0) return 0;
  const std::uint64_t mag = delta > 0 ? static_cast<std::uint64_t>(delta)
                                      : 0 - static_cast<std::uint64_t>(delta);
  const std::size_t cls = std::size_t{mag > 2} + std::size_t{mag > 16} +
                          std::size_t{mag > 256};
  return (delta > 0 ? 1 : 5) + cls;
}

/// Reuse buckets over mem-ops-since-last-touch (>= 1): log2 classes
/// (1, 2-3, 4-7, 8-15, 16-31, 32-63, 64-127, 128+).
inline std::size_t reuse_bucket(std::uint64_t dist) {
  return log2_bucket(dist, 8);
}

/// L1 distance between two signature vectors (the clustering metric).
double signature_l1(const std::array<double, kSignatureDims>& a,
                    const std::array<double, kSignatureDims>& b);

// --- signature cache (MAPGSIG1) -------------------------------------------
//
// Signatures depend only on trace CONTENT (stream digest) and the slicing
// parameters — not on cluster count, seed, or policy — so they are computed
// once per trace and reused across every sampled run, SimPoint-BBV style.
// The cache file is little-endian binary:
//
//   offset  size  field
//   0       8     magic "MAPGSIG1"
//   8       8     u64 trace stream digest (FNV-1a64, trace_file.h)
//   16      8     u64 region_instructions
//   24      8     u64 line_bytes
//   32      8     u64 region count N
//   40      296*N per region: u64 start, u64 length, u64 mem_ops,
//                 u64 distinct_lines, f64 first_touch_fraction,
//                 f64 v[32]  (IEEE-754 bit patterns — reload is exact)
//
// Loaders REJECT (return nullopt) on any mismatch of magic, digest, or
// slicing parameters, so a stale cache can never silently shape a plan.

/// Write `sigs` to `path`.  Returns false (with `*error` set) on I/O error.
bool save_region_signatures(const std::string& path, std::uint64_t digest,
                            std::uint64_t region_instructions,
                            std::uint64_t line_bytes,
                            const std::vector<RegionSignature>& sigs,
                            std::string* error = nullptr);

/// Load signatures from `path` if it exists and its header matches the
/// given digest and slicing parameters exactly; nullopt otherwise (missing
/// file, stale digest, different slicing, or truncation).
std::optional<std::vector<RegionSignature>> load_region_signatures(
    const std::string& path, std::uint64_t digest,
    std::uint64_t region_instructions, std::uint64_t line_bytes);

}  // namespace mapg
