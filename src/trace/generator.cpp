#include "trace/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mapg {
namespace {

constexpr Addr kAccessAlign = 8;  // all accesses are 8-byte aligned

Addr align_down(Addr a) { return a & ~(kAccessAlign - 1); }

/// One past the largest 53-bit draw.
constexpr std::uint64_t kDrawTop = 1ULL << 53;

/// Op class by the number of cumulative thresholds a draw passes.
constexpr std::array<OpClass, 7> kOpOrder = {
    OpClass::kLoad, OpClass::kStore, OpClass::kBranch, OpClass::kMul,
    OpClass::kDiv,  OpClass::kFp,    OpClass::kAlu};

}  // namespace

GeometricTable::GeometricTable(double log1m_p, std::uint64_t limit)
    : log1m_p_(log1m_p),
      size_(static_cast<unsigned>(std::min<std::uint64_t>(limit, kCap))) {
  // libm's quotient reaches m close to the real solution
  // k = 2^53 (1 - (1 - p)^m); a few exact evaluations then find the first k
  // where it does (floor(q) >= m is q >= m for whole m).  In practice the
  // ceiled seed lands on that k or one below it, so the upward scan runs at
  // most once and the downward one checks a single draw.  The steps are capped:
  // exactness rests on the guard band, not on the refinement.
  constexpr int kRefineSteps = 16;
  const auto reaches = [log1m_p](std::uint64_t k, unsigned m) {
    const double u = 1.0 - static_cast<double>(k) * 0x1.0p-53;
    return std::log(u) / log1m_p >= m;
  };
  for (unsigned m = 1; m <= size_; ++m) {
    const std::uint64_t prev = edge_[m - 1];
    const double seed =
        std::ceil(-std::expm1(static_cast<double>(m) * log1m_p) * 0x1.0p53);
    std::uint64_t k = seed < static_cast<double>(kDrawTop)
                          ? std::max(prev, static_cast<std::uint64_t>(seed))
                          : kDrawTop;
    bool stepped_up = false;
    for (int i = 0; i < kRefineSteps && k < kDrawTop && !reaches(k, m); ++i) {
      ++k;
      stepped_up = true;
    }
    if (!stepped_up)
      for (int i = 0; i < kRefineSteps && k > prev && reaches(k - 1, m); ++i)
        --k;
    edge_[m] = k;
  }
  edge_[size_ + 1] = ~0ULL;

  // Table answers keep kGuard away from every edge.  Above the last edge
  // the answer is size_ only when the table is uncapped (size_ == limit);
  // the caller clamps at limit, so larger counts need not be exact.
  for (unsigned m = 0; m <= size_; ++m) {
    const std::uint64_t lo = m == 0 ? 0 : edge_[m] + kGuard;
    std::uint64_t hi;
    if (m < size_)
      hi = edge_[m + 1] > kGuard ? edge_[m + 1] - kGuard : 0;
    else
      hi = size_ == limit ? ~0ULL : 0;
    span_[m] = {lo, hi > lo ? hi - lo : 0};
  }

  unsigned m = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    const std::uint64_t bucket_start = j << (53 - kGuideBits);
    while (m < size_ && edge_[m + 1] <= bucket_start) ++m;
    guide_[j] = static_cast<std::uint8_t>(m);
  }
}

TraceGenerator::TraceGenerator(WorkloadProfile profile, std::uint64_t run_seed)
    : profile_(std::move(profile)), run_seed_(run_seed) {
  // The same float sums, in the same order, that a walk of `uniform() < acc`
  // compares would form (0.0 + x is x, up to the sign of zero).  A running
  // maximum keeps the thresholds ascending, so counting the ones passed
  // finds the first compare that holds even for negative fractions.
  const double fractions[6] = {profile_.f_load, profile_.f_store,
                               profile_.f_branch, profile_.f_mul,
                               profile_.f_div, profile_.f_fp};
  double acc = 0.0;
  std::uint64_t floor_t = 0;
  for (std::size_t i = 0; i < op_t_.size(); ++i) {
    acc += fractions[i];
    floor_t = std::max(floor_t, Prng::threshold(acc));
    op_t_[i] = floor_t;
  }
  chase_t_ = Prng::threshold(profile_.p_pointer_chase);
  stream_t_ = Prng::threshold(profile_.p_stream);
  stream_cold_t_ = Prng::threshold(profile_.p_stream + profile_.p_cold);
  no_consumer_t_ = Prng::threshold(profile_.p_no_consumer);
  hot_span_ = std::max<Addr>(profile_.hot_set_bytes, kAccessAlign);
  cold_span_ = std::max<Addr>(profile_.working_set_bytes, kAccessAlign);

  const double p = 1.0 / std::max(1.0, profile_.dep_dist_mean);
  dep_draws_ = p > 0.0 && p < 1.0;
  dep_fixed_failures_ = p >= 1.0 ? 0 : ~0ULL;
  if (dep_draws_) {
    // Distances clamp at dep_dist_max, so failure counts past
    // dep_dist_max - 1 never need to be told apart.
    const std::uint64_t limit =
        profile_.dep_dist_max > 0 ? profile_.dep_dist_max - 1u : 0u;
    dep_table_ = GeometricTable(std::log1p(-p), limit);
  }
  reset();
}

void TraceGenerator::reset() {
  // Mix the profile seed and run seed through SplitMix so that distinct
  // (profile, run) pairs land in unrelated xoshiro subsequences.
  SplitMix64 mixer(profile_.seed * 0x9e3779b97f4a7c15ULL + run_seed_);
  prng_.reseed(mixer.next());
  init_streams();
}

void TraceGenerator::init_streams() {
  streams_.clear();
  next_stream_ = 0;

  const Addr stream_base = profile_.hot_set_bytes;
  const int n = std::max(1, profile_.num_streams);
  // The stream arena is everything between the hot set and the end of the
  // working set; each stream sweeps its own slice so sweeps never collide.
  const Addr arena = profile_.working_set_bytes > stream_base
                         ? profile_.working_set_bytes - stream_base
                         : (1ULL << 20);
  const Addr slice = std::max<Addr>(arena / static_cast<Addr>(n), 4096);
  for (int i = 0; i < n; ++i) {
    Stream s;
    s.base = stream_base + slice * static_cast<Addr>(i);
    s.length = slice;
    // Start each stream at a random phase so they do not miss in lockstep.
    s.pos = align_down(prng_.below(slice));
    streams_.push_back(s);
  }
}

Addr TraceGenerator::next_stream_addr() {
  Stream& s = streams_[next_stream_];
  if (++next_stream_ == streams_.size()) next_stream_ = 0;
  const Addr a = s.base + s.pos;
  s.pos += profile_.stream_stride_bytes;
  if (s.pos >= s.length) s.pos = 0;
  return align_down(a);
}

// The draw helpers below are declared inline so they fold into next(); only
// this file calls them.
inline Addr TraceGenerator::random_addr(Addr span) {
  return align_down(prng_.below(span));
}

inline Addr TraceGenerator::data_addr() {
  const std::uint64_t k = prng_.next53();
  if (k < stream_t_) return next_stream_addr();
  // Cold and hot accesses are the same draw over different spans, so the
  // choice between them is a select rather than a branch.
  return random_addr(k < stream_cold_t_ ? cold_span_ : hot_span_);
}

inline std::uint16_t TraceGenerator::draw_dep_dist() {
  if (prng_.next53() < no_consumer_t_) return 0;
  // Geometric with mean max(1, dep_dist_mean) on support {1, ...}, clamped
  // at dep_dist_max.
  const std::uint64_t failures = dep_draws_
                                     ? dep_table_.failures(prng_.next53())
                                     : dep_fixed_failures_;
  const std::uint16_t max = profile_.dep_dist_max;
  return failures < max ? static_cast<std::uint16_t>(failures + 1) : max;
}

bool TraceGenerator::next(Instr& out) {
  const std::uint64_t k = prng_.next53();
  unsigned passed = 0;
  for (const std::uint64_t t : op_t_) passed += k >= t;
  if (passed >= 2) {
    out.op = kOpOrder[passed];
    out.addr = kNoAddr;
    out.dep_dist = 0;
    return true;
  }
  if (passed == 0) {
    out.op = OpClass::kLoad;
    if (prng_.next53() < chase_t_) {
      // Pointer chase: the loaded value is the next address, so the very
      // next instruction depends on it and misses serialize.
      out.addr = random_addr(cold_span_);
      out.dep_dist = 1;
      return true;
    }
    out.addr = data_addr();
    out.dep_dist = draw_dep_dist();
    return true;
  }
  out.op = OpClass::kStore;
  out.addr = data_addr();
  out.dep_dist = 0;
  return true;
}

PhasedTraceGenerator::PhasedTraceGenerator(WorkloadProfile a,
                                           WorkloadProfile b,
                                           std::uint64_t phase_instructions,
                                           std::uint64_t run_seed)
    : gen_a_(std::move(a), run_seed),
      gen_b_(std::move(b), run_seed + 0x9e37),
      phase_instructions_(phase_instructions) {
  assert(phase_instructions_ > 0 && "phases must have positive length");
}

void PhasedTraceGenerator::reset() {
  gen_a_.reset();
  gen_b_.reset();
  emitted_in_phase_ = 0;
  switches_ = 0;
  in_a_ = true;
}

const std::string& PhasedTraceGenerator::current_phase_name() const {
  return (in_a_ ? gen_a_ : gen_b_).profile().name;
}

bool PhasedTraceGenerator::next(Instr& out) {
  if (emitted_in_phase_ >= phase_instructions_) {
    emitted_in_phase_ = 0;
    in_a_ = !in_a_;
    ++switches_;
  }
  ++emitted_in_phase_;
  return (in_a_ ? gen_a_ : gen_b_).next(out);
}

}  // namespace mapg
