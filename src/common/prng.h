// Deterministic pseudo-random number generation for workload synthesis.
//
// Reproducibility is a hard requirement: every experiment in EXPERIMENTS.md
// must regenerate bit-identical traces from a (profile, seed) pair.  We use
// xoshiro256** seeded through SplitMix64 — fast, well-studied, and stable
// across platforms (unlike std::default_random_engine, whose mapping is
// implementation-defined).  All distribution helpers below are hand-rolled
// for the same reason: libstdc++/libc++ distributions are not portable.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace mapg {

/// SplitMix64: used only to expand a single 64-bit seed into xoshiro state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna).  Period 2^256 - 1.
class Prng {
 public:
  using result_type = std::uint64_t;
  /// The full generator state.  Exposed so Cache::export_state /
  /// import_state can snapshot and restore a victim stream mid-run
  /// bit-exactly; the state is the only mutable member, so
  /// set_state(state()) round-trips perfectly.
  using State = std::array<std::uint64_t, 4>;

  explicit Prng(std::uint64_t seed = 0x3243f6a8885a308dULL) { reseed(seed); }

  const State& state() const { return state_; }
  void set_state(const State& s) { state_ = s; }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (for std::shuffle etc.).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// The 53-bit integer behind uniform(): uniform() is exactly
  /// next53() * 2^-53.
  std::uint64_t next53() { return next() >> 11; }

  /// Uniform double in [0, 1).  53-bit mantissa path.
  double uniform() { return static_cast<double>(next53()) * 0x1.0p-53; }

  /// Integer form of the compare `uniform() < p`: it holds exactly when
  /// next53() < threshold(p).  k * 2^-53 and p * 2^53 are both exact, so
  /// k * 2^-53 < p  <=>  k < p * 2^53  <=>  k < ceil(p * 2^53).  p <= 0 or
  /// NaN never passes (0); p >= 1 always does (2^53).
  static std::uint64_t threshold(double p) {
    const double x = p * 0x1.0p53;  // exact: a power-of-two scale
    if (!(x > 0.0)) return 0;
    if (x >= 0x1.0p53) return 1ULL << 53;
    return static_cast<std::uint64_t>(std::ceil(x));
  }

  /// Uniform integer in [0, n).  Lemire's unbiased multiply-shift rejection.
  std::uint64_t below(std::uint64_t n) {
    if (n <= 1) return 0;
    // 128-bit multiply rejection sampling.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < n) {
      const std::uint64_t t = (0 - n) % n;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Geometric: number of failures before first success, success prob p.
  std::uint64_t geometric(double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return ~0ULL;
    return geometric_at(next53(), std::log1p(-p));
  }

  /// The geometric draw's expression at the 53-bit draw `k`:
  /// floor(log(1 - k * 2^-53) / log1m_p), for log1m_p < 0.  A quotient too
  /// large for 64 bits (a tiny p) saturates at ~0ULL, the count geometric()
  /// returns for p <= 0.
  static std::uint64_t geometric_at(std::uint64_t k, double log1m_p) {
    const double u = 1.0 - static_cast<double>(k) * 0x1.0p-53;  // (0, 1]
    const double q = std::floor(std::log(u) / log1m_p);
    if (!(q < 0x1.0p64)) return ~0ULL;
    return q > 0.0 ? static_cast<std::uint64_t>(q) : 0;
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    const double u = 1.0 - uniform();  // (0, 1]
    return -mean * std::log(u);
  }

  /// Pareto-ish bounded heavy tail in [lo, hi] with shape alpha (> 0).
  /// Used for dependency-distance tails in pointer-chasing profiles.
  std::uint64_t bounded_pareto(std::uint64_t lo, std::uint64_t hi,
                               double alpha) {
    if (hi <= lo) return lo;
    const double l = static_cast<double>(lo);
    const double h = static_cast<double>(hi) + 1.0;
    const double u = uniform();
    const double la = std::pow(l, -alpha);
    const double ha = std::pow(h, -alpha);
    const double x = std::pow(la - u * (la - ha), -1.0 / alpha);
    auto v = static_cast<std::uint64_t>(x);
    return v > hi ? hi : (v < lo ? lo : v);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace mapg
