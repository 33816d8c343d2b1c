// Theory-vs-exact validation drivers: the law of C (Eq. 26/44) and the
// stationary distribution of C_F (Eq. 37).
#pragma once

#include <cstdint>

namespace neatbound::analysis {

/// Convergence-opportunity count: Eq. (26)'s T·ᾱ^{2Δ}α₁ against the exact
/// law of C(1, T) from genesis (chains::convergence_opportunity_law).
struct ConvergenceRateRow {
  double n, delta, c, nu;
  double analytic_rate;   ///< ᾱ^{2Δ}α₁      (Eq. 44)
  double expected_count;  ///< T·ᾱ^{2Δ}α₁    (Eq. 26)
  double exact_mean;      ///< E[C] under the exact law
  double exact_sd;        ///< sd[C] under the exact law
  double ratio;           ///< exact / expected
  /// |E[C] − T·ᾱ^{2Δ}α₁| ≤ Δ·α₁: the genesis start and the window's
  /// last Δ rounds are the only difference from the stationary count.
  bool within_edge;
};

[[nodiscard]] ConvergenceRateRow validate_convergence_rate(
    double n, double delta, double c, double nu, std::uint64_t rounds);

/// Stationary distribution of the suffix chain: closed form (Eq. 37) vs
/// numeric solvers vs empirical random-walk visits.
struct StationaryComparisonRow {
  std::uint64_t delta;
  double alpha;
  double max_abs_err_power;   ///< closed form vs power iteration
  double max_abs_err_fixed;   ///< closed form vs damped fixed point
  double max_abs_err_walk;    ///< closed form vs 10⁶-step walk frequencies
  double closed_form_sum;     ///< Σπ (should be 1)
  bool ergodic;               ///< structural check result
};

[[nodiscard]] StationaryComparisonRow compare_stationary(
    std::uint64_t delta, double alpha, std::uint64_t walk_steps = 1000000,
    std::uint64_t seed = 4242);

}  // namespace neatbound::analysis
