// Synthetic trace generator: turns a WorkloadProfile into a deterministic,
// unbounded instruction stream (see profile.h for the substitution rationale).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "trace/instr.h"
#include "trace/profile.h"

namespace mapg {

/// Table form of the geometric draw Prng::geometric_at(k, log1m_p) over
/// 53-bit draws k, for a fixed log1m_p = log1p(-p) with p in (0, 1).
/// edge(m) is the first k at which the libm quotient reaches m, for
/// m = 1 .. size(), size() = min(limit, kCap).  A draw at least kGuard away
/// from every edge takes its failure count from the edges alone; a draw
/// inside that guard band, or above a capped table, evaluates the libm
/// expression itself.  For every k,
///   min(failures(k), limit) == min(Prng::geometric_at(k, log1m_p), limit);
/// docs/MODEL.md §4e gives the exactness argument.
class GeometricTable {
 public:
  static constexpr unsigned kCap = 64;                 ///< most edges kept
  static constexpr std::uint64_t kGuard = 1ULL << 20;  ///< band half-width
  static constexpr int kGuideBits = 10;                ///< guide on k >> 43

  GeometricTable() = default;
  GeometricTable(double log1m_p, std::uint64_t limit);

  std::uint64_t failures(std::uint64_t k) const {
    const unsigned m = locate(k);
    return answers(m, k) ? m : Prng::geometric_at(k, log1m_p_);
  }

  /// Number of edges at or below k: the guide entry plus a short walk.
  unsigned locate(std::uint64_t k) const {
    unsigned m = guide_[k >> (53 - kGuideBits)];
    while (k >= edge_[m + 1]) ++m;
    return m;
  }

  /// True when failures(k) evaluates libm rather than answering locate(k).
  bool exact_band(std::uint64_t k) const { return !answers(locate(k), k); }

  unsigned size() const { return size_; }
  std::uint64_t edge(unsigned m) const { return edge_[m]; }

 private:
  /// Draws in [lo, lo + width) are answered by the table.
  struct Span {
    std::uint64_t lo = 0;
    std::uint64_t width = 0;
  };

  /// True when `m` edges lie at or below k and k is outside every band.
  bool answers(unsigned m, std::uint64_t k) const {
    return k - span_[m].lo < span_[m].width;
  }

  double log1m_p_ = 0.0;
  unsigned size_ = 0;
  /// edge_[0] = 0, edge_[1 .. size_] ascending, edge_[size_ + 1] = ~0.
  std::array<std::uint64_t, kCap + 2> edge_{0, ~0ULL};
  std::array<Span, kCap + 1> span_{};
  std::array<std::uint8_t, std::size_t{1} << kGuideBits> guide_{};
};

class TraceGenerator final : public TraceSource {
 public:
  /// `run_seed` is mixed with the profile's own seed so repeated experiments
  /// can draw independent traces from the same profile.
  explicit TraceGenerator(WorkloadProfile profile, std::uint64_t run_seed = 0);

  bool next(Instr& out) override;  ///< Always returns true (unbounded).
  void reset() override;

  const WorkloadProfile& profile() const { return profile_; }

 private:
  struct Stream {
    Addr base = 0;    ///< region start
    Addr length = 0;  ///< wrap length in bytes
    Addr pos = 0;     ///< next offset
  };

  void init_streams();
  Addr data_addr();
  Addr next_stream_addr();
  Addr random_addr(Addr span);  ///< uniform aligned address in [0, span)
  std::uint16_t draw_dep_dist();

  WorkloadProfile profile_;
  std::uint64_t run_seed_;
  Prng prng_;
  std::vector<Stream> streams_;
  std::size_t next_stream_ = 0;

  // Every `uniform() < p` decision of the draw as a Prng::threshold, fixed
  // by the profile.  op_t_ holds the cumulative op-class sums in
  // load, store, branch, mul, div, fp order; an op is the count of them a
  // draw passes.
  std::array<std::uint64_t, 6> op_t_{};
  std::uint64_t chase_t_ = 0;        ///< p_pointer_chase
  std::uint64_t stream_t_ = 0;       ///< p_stream
  std::uint64_t stream_cold_t_ = 0;  ///< p_stream + p_cold
  std::uint64_t no_consumer_t_ = 0;  ///< p_no_consumer
  // Dependence distance: geometric with p = 1 / max(1, dep_dist_mean).
  // p >= 1 and p <= 0 (an infinite mean) draw nothing and always count 0
  // and ~0 failures; any other p draws once through the table.
  bool dep_draws_ = false;
  std::uint64_t dep_fixed_failures_ = 0;
  GeometricTable dep_table_;

  // Address-space layout: [0, hot) hot set, [hot, hot+stream) stream arena,
  // cold accesses may touch the entire working set.  Spans are at least
  // one aligned access.
  Addr hot_span_ = 0;
  Addr cold_span_ = 0;
};

/// Non-stationary workload: alternates between two profiles every
/// `phase_instructions`, modeling SPEC-like phase behaviour (e.g. a
/// pointer-chasing phase followed by a compute phase).  Stationary profiles
/// make stall lengths trivially learnable; phased ones are where
/// estimate-driven MAPG and history-driven prediction genuinely differ
/// (R-Tab.6).
class PhasedTraceGenerator final : public TraceSource {
 public:
  PhasedTraceGenerator(WorkloadProfile a, WorkloadProfile b,
                       std::uint64_t phase_instructions,
                       std::uint64_t run_seed = 0);

  bool next(Instr& out) override;  ///< Always returns true (unbounded).
  void reset() override;

  /// Name of the profile currently generating ("a" phase first).
  const std::string& current_phase_name() const;
  std::uint64_t phase_switches() const { return switches_; }

 private:
  TraceGenerator gen_a_;
  TraceGenerator gen_b_;
  std::uint64_t phase_instructions_;
  std::uint64_t emitted_in_phase_ = 0;
  std::uint64_t switches_ = 0;
  bool in_a_ = true;
};

}  // namespace mapg
