#include "analysis/validation.hpp"

#include <cmath>

#include "bounds/params.hpp"
#include "chains/convergence.hpp"
#include "chains/suffix_chain.hpp"
#include "markov/stationary.hpp"
#include "markov/structure.hpp"
#include "markov/walk.hpp"

namespace neatbound::analysis {

ConvergenceRateRow validate_convergence_rate(double n, double delta, double c,
                                             double nu, std::uint64_t rounds) {
  const auto params = bounds::ProtocolParams::from_c(n, delta, nu, c);
  ConvergenceRateRow row{};
  row.n = n;
  row.delta = delta;
  row.c = c;
  row.nu = nu;
  const auto d = static_cast<std::uint64_t>(delta);
  row.analytic_rate = chains::convergence_opportunity_probability(
                          params.alpha_bar(), params.alpha1(), d)
                          .linear();
  row.expected_count = row.analytic_rate * static_cast<double>(rounds);
  const chains::OpportunityLaw law = chains::convergence_opportunity_law(
      {.honest_trials = params.honest_trials(), .p = params.p()}, d, rounds);
  row.exact_mean = law.mean();
  row.exact_sd = law.stddev();
  row.ratio =
      row.expected_count > 0.0 ? row.exact_mean / row.expected_count : 0.0;
  row.within_edge = std::fabs(row.exact_mean - row.expected_count) <=
                    delta * params.alpha1().linear();
  return row;
}

StationaryComparisonRow compare_stationary(std::uint64_t delta, double alpha,
                                           std::uint64_t walk_steps,
                                           std::uint64_t seed) {
  const chains::SuffixStateSpace space(delta);
  const auto matrix = chains::build_suffix_chain_matrix(space, alpha);
  const auto closed = chains::stationary_closed_form_vector(space, alpha);

  StationaryComparisonRow row{};
  row.delta = delta;
  row.alpha = alpha;
  row.ergodic = markov::is_ergodic(matrix);

  double sum = 0.0;
  for (const double x : closed) sum += x;
  row.closed_form_sum = sum;

  const auto power = markov::solve_stationary_power(matrix);
  const auto fixed = markov::solve_stationary_fixed_point(matrix);
  for (std::size_t i = 0; i < closed.size(); ++i) {
    row.max_abs_err_power = std::max(
        row.max_abs_err_power, std::fabs(closed[i] - power.distribution[i]));
    row.max_abs_err_fixed = std::max(
        row.max_abs_err_fixed, std::fabs(closed[i] - fixed.distribution[i]));
  }

  markov::RandomWalk walk(matrix, /*start=*/0, crng::Key{seed, 0});
  const auto visits = walk.visit_counts(walk_steps);
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const double freq = static_cast<double>(visits[i]) /
                        static_cast<double>(walk_steps);
    row.max_abs_err_walk =
        std::max(row.max_abs_err_walk, std::fabs(closed[i] - freq));
  }
  return row;
}

}  // namespace neatbound::analysis
