// Reference oracle for mapg::TraceGenerator: the floating-point draw the
// integer-threshold generator replaced, kept verbatim in behaviour.  Every
// decision is a `uniform() < p` compare walked in op-class order, and each
// dependent load's distance is floor(log(1 - u) / log1p(-p)) through libm.
// test_generator_diff.cpp drives both from the same (profile, seed) pairs and
// asserts identical records.  Test-only; not linked into src/.
//
// The one deliberate difference from the current generator: this oracle
// keeps the old handling of huge and infinite dep_dist means (an undefined
// out-of-range cast, and a `1 + ~0` wrap to dep_dist 0), so tests compare
// against it only for profiles with finite, moderate means.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "trace/instr.h"
#include "trace/profile.h"

namespace mapg::testref {

class RefTraceGenerator {
 public:
  explicit RefTraceGenerator(WorkloadProfile profile,
                             std::uint64_t run_seed = 0)
      : profile_(std::move(profile)), run_seed_(run_seed) {
    dep_p_ = 1.0 / std::max(1.0, profile_.dep_dist_mean);
    dep_log1m_p_ = std::log1p(-dep_p_);
    reset();
  }

  void reset() {
    SplitMix64 mixer(profile_.seed * 0x9e3779b97f4a7c15ULL + run_seed_);
    prng_.reseed(mixer.next());
    streams_.clear();
    next_stream_ = 0;
    stream_base_ = profile_.hot_set_bytes;
    const int n = std::max(1, profile_.num_streams);
    const Addr arena = profile_.working_set_bytes > stream_base_
                           ? profile_.working_set_bytes - stream_base_
                           : (1ULL << 20);
    const Addr slice = std::max<Addr>(arena / static_cast<Addr>(n), 4096);
    for (int i = 0; i < n; ++i) {
      Stream s;
      s.base = stream_base_ + slice * static_cast<Addr>(i);
      s.length = slice;
      s.pos = align_down(prng_.below(slice));
      streams_.push_back(s);
    }
  }

  void next(Instr& out) {
    const double u = prng_.uniform();
    double acc = profile_.f_load;
    if (u < acc) {
      out.op = OpClass::kLoad;
      if (prng_.bernoulli(profile_.p_pointer_chase)) {
        out.addr = random_cold_addr();
        out.dep_dist = 1;
        return;
      }
      out.addr = data_addr();
      out.dep_dist = draw_dep_dist();
      return;
    }
    acc += profile_.f_store;
    if (u < acc) {
      out.op = OpClass::kStore;
      out.addr = data_addr();
      out.dep_dist = 0;
      return;
    }
    out.addr = kNoAddr;
    out.dep_dist = 0;
    acc += profile_.f_branch;
    if (u < acc) {
      out.op = OpClass::kBranch;
      return;
    }
    acc += profile_.f_mul;
    if (u < acc) {
      out.op = OpClass::kMul;
      return;
    }
    acc += profile_.f_div;
    if (u < acc) {
      out.op = OpClass::kDiv;
      return;
    }
    acc += profile_.f_fp;
    out.op = u < acc ? OpClass::kFp : OpClass::kAlu;
  }

 private:
  struct Stream {
    Addr base = 0;
    Addr length = 0;
    Addr pos = 0;
  };

  static constexpr Addr kAccessAlign = 8;
  static Addr align_down(Addr a) { return a & ~(kAccessAlign - 1); }

  Addr data_addr() {
    const double r = prng_.uniform();
    if (r < profile_.p_stream) return next_stream_addr();
    if (r < profile_.p_stream + profile_.p_cold) return random_cold_addr();
    return random_hot_addr();
  }

  Addr next_stream_addr() {
    Stream& s = streams_[next_stream_];
    next_stream_ = (next_stream_ + 1) % streams_.size();
    const Addr a = s.base + s.pos;
    s.pos += profile_.stream_stride_bytes;
    if (s.pos >= s.length) s.pos = 0;
    return align_down(a);
  }

  Addr random_hot_addr() {
    const Addr span = std::max<Addr>(profile_.hot_set_bytes, kAccessAlign);
    return align_down(prng_.below(span));
  }

  Addr random_cold_addr() {
    const Addr span = std::max<Addr>(profile_.working_set_bytes, kAccessAlign);
    return align_down(prng_.below(span));
  }

  std::uint16_t draw_dep_dist() {
    if (prng_.bernoulli(profile_.p_no_consumer)) return 0;
    std::uint64_t failures;
    if (dep_p_ >= 1.0) {
      failures = 0;
    } else if (dep_p_ <= 0.0) {
      failures = ~0ULL;
    } else {
      const double u = 1.0 - prng_.uniform();
      failures = static_cast<std::uint64_t>(
          std::floor(std::log(u) / dep_log1m_p_));
    }
    const std::uint64_t d = 1 + failures;
    return static_cast<std::uint16_t>(
        std::min<std::uint64_t>(d, profile_.dep_dist_max));
  }

  WorkloadProfile profile_;
  std::uint64_t run_seed_;
  Prng prng_;
  std::vector<Stream> streams_;
  std::size_t next_stream_ = 0;
  double dep_p_ = 1.0;
  double dep_log1m_p_ = 0.0;
  Addr stream_base_ = 0;
};

}  // namespace mapg::testref
