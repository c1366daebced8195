#include "power/pg_circuit.h"

#include <cmath>
#include <stdexcept>

namespace mapg {

PgCircuit::PgCircuit(const PgCircuitConfig& config, const TechParams& tech)
    : config_(config), tech_(tech) {
  if (!config_.valid())
    throw std::invalid_argument(
        "invalid PG circuit configuration (see PgCircuitConfig::valid)");
  if (!tech_.valid())
    throw std::invalid_argument(
        "invalid technology parameters (see TechParams::valid)");

  entry_cycles_ = static_cast<Cycle>(
      std::ceil(tech_.ns_to_cycles(config_.entry_ns)));
  wakeup_cycles_ = wakeup_latency_cycles(config_.wakeup_stages);
  light_wakeup_cycles_ = wakeup_latency_cycles(config_.light_wakeup_stages);

  // Supply energy to recharge the virtual rail: the supply delivers charge
  // Q = C * dV at potential Vdd (half stored, half dissipated in the sleep
  // transistors — all of it is drawn from the supply, which is what counts).
  // Light sleep droops the rail by a smaller dV, so its recharge scales
  // with light_swing_frac; the gate-drive term is common to both modes
  // (the whole sleep-transistor bank switches either way).
  const double gate_j = config_.gate_charge_nj * 1e-9;
  auto recharge_j = [&](double swing) {
    return config_.c_vrail_nf * 1e-9 * tech_.vdd * swing * tech_.vdd;
  };
  overhead_j_ =
      (recharge_j(config_.rail_swing_frac) + gate_j) * config_.overhead_scale;
  light_overhead_j_ =
      (recharge_j(config_.light_swing_frac) + gate_j) * config_.overhead_scale;

  auto bet = [&](double overhead, double p_saved) -> Cycle {
    if (p_saved <= 0) return kNoCycle;
    return static_cast<Cycle>(
        std::ceil(overhead / p_saved * tech_.freq_ghz * 1e9));
  };
  break_even_cycles_ = bet(overhead_j_, tech_.savable_leakage_w());
  light_break_even_cycles_ =
      bet(light_overhead_j_,
          tech_.savable_leakage_w() * config_.light_save_frac);
}

Cycle PgCircuit::wakeup_latency_cycles(std::uint32_t stages) const {
  const double ns = static_cast<double>(stages) * config_.stage_delay_ns +
                    config_.settle_ns;
  return static_cast<Cycle>(std::ceil(tech_.ns_to_cycles(ns)));
}

double PgCircuit::rush_current_peak_a(std::uint32_t stages) const {
  if (stages == 0) stages = 1;
  const double dv = tech_.vdd * config_.rail_swing_frac;
  const double q = config_.c_vrail_nf * 1e-9 * dv;  // coulombs
  const double q_per_stage = q / static_cast<double>(stages);
  return q_per_stage / (config_.stage_delay_ns * 1e-9);
}

double PgCircuit::rush_current_peak_a() const {
  return rush_current_peak_a(config_.wakeup_stages);
}

std::uint32_t PgCircuit::min_stages_for_rush_limit(double imax_a) const {
  if (imax_a <= 0) return 0;
  for (std::uint32_t n = 1; n <= 4096; n *= 2) {
    if (rush_current_peak_a(n) <= imax_a) {
      // Binary refinement between n/2 and n for the exact minimum.
      std::uint32_t lo = n / 2 + 1, hi = n;
      if (n == 1) return 1;
      while (lo < hi) {
        const std::uint32_t mid = lo + (hi - lo) / 2;
        if (rush_current_peak_a(mid) <= imax_a)
          hi = mid;
        else
          lo = mid + 1;
      }
      return lo;
    }
  }
  return 0;
}

}  // namespace mapg
