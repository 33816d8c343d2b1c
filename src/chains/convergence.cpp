#include "chains/convergence.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "stats/distributions.hpp"

namespace neatbound::chains {

LogProb DetailedStateModel::prob_h(std::uint64_t h) const {
  NEATBOUND_EXPECTS(h >= 1, "H_h states require h >= 1");
  const stats::Binomial binom(honest_trials, p);
  return binom.pmf(static_cast<double>(h));
}

LogProb DetailedStateModel::prob_n() const {
  return stats::Binomial(honest_trials, p).prob_zero();
}

LogProb DetailedStateModel::prob_some() const {
  return stats::Binomial(honest_trials, p).prob_positive();
}

LogProb DetailedStateModel::prob_one() const {
  return stats::Binomial(honest_trials, p).prob_one();
}

LogProb DetailedStateModel::min_detailed_prob() const {
  NEATBOUND_EXPECTS(p > 0.0 && p < 1.0, "requires p in (0,1)");
  // Eq. (97): the extremes of the detailed pmf are H_{μn} (= p^{μn}) and
  // N (= (1−p)^{μn}); the smaller is the minimum over the whole set.
  const LogProb all_mine =
      LogProb::from_log(honest_trials * std::log(p));
  const LogProb none = prob_n();
  return all_mine < none ? all_mine : none;
}

LogProb convergence_opportunity_probability(LogProb alpha_bar, LogProb alpha1,
                                            std::uint64_t delta) {
  NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  return alpha_bar.pow(2.0 * static_cast<double>(delta)) * alpha1;
}

LogProb expected_convergence_opportunities(LogProb alpha_bar, LogProb alpha1,
                                           std::uint64_t delta,
                                           double window) {
  NEATBOUND_EXPECTS(window > 0.0, "window must be positive");
  return LogProb::from_linear(window) *
         convergence_opportunity_probability(alpha_bar, alpha1, delta);
}

LogProb min_stationary_concatenated(const DetailedStateModel& model,
                                    std::uint64_t delta, LogProb alpha_bar) {
  const LogProb min_pi_f = min_stationary_suffix(delta, alpha_bar);
  const LogProb min_detail = model.min_detailed_prob();
  return min_pi_f * min_detail.pow(static_cast<double>(delta) + 1.0);
}

std::uint64_t count_convergence_opportunities(
    std::span<const std::uint32_t> honest_blocks, std::uint64_t delta) {
  NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  const std::size_t n = honest_blocks.size();
  std::uint64_t count = 0;
  // quiet_before: number of consecutive zero rounds immediately before t.
  std::uint64_t quiet_before = delta;  // genesis supplies the leading quiet H
  for (std::size_t t = 0; t < n; ++t) {
    if (honest_blocks[t] == 0) {
      ++quiet_before;
      continue;
    }
    if (honest_blocks[t] == 1 && quiet_before >= delta &&
        t + delta < n) {
      bool quiet_after = true;
      for (std::size_t j = t + 1; j <= t + delta; ++j) {
        if (honest_blocks[j] != 0) {
          quiet_after = false;
          break;
        }
      }
      if (quiet_after) ++count;
    }
    quiet_before = 0;
  }
  return count;
}

OpportunityAutomaton::OpportunityAutomaton(std::uint64_t delta)
    : delta_(static_cast<std::size_t>(delta)) {
  NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
}

OpportunityAutomaton::Step OpportunityAutomaton::step(
    std::size_t state, Input input) const noexcept {
  if (state <= delta_) {  // unarmed, `state` quiet rounds
    switch (input) {
      case Input::kQuiet: return {std::min(state + 1, delta_), false};
      case Input::kOne: return {state == delta_ ? delta_ + 1 : 0, false};
      case Input::kMany: return {0, false};
    }
  }
  // Armed: any honest block kills the candidate, and leaves fewer than Δ
  // quiet rounds before itself, so it cannot arm a new one.
  if (input != Input::kQuiet) return {0, false};
  if (state == 2 * delta_) return {delta_, true};
  return {state + 1, false};
}

OpportunityAutomaton::Step OpportunityAutomaton::step_quiet(
    std::size_t state, std::uint64_t quiet) const noexcept {
  // Compared as gaps, so a long stretch cannot overflow state + quiet.
  if (state <= delta_) {
    return {quiet >= delta_ - state ? delta_ : state + quiet, false};
  }
  if (quiet >= 2 * delta_ + 1 - state) return {delta_, true};
  return {state + quiet, false};
}

double OpportunityLaw::mass() const noexcept {
  double total = 0.0;
  for (const double x : pmf) total += x;
  return total;
}

double OpportunityLaw::mean() const noexcept {
  double total = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    total += static_cast<double>(first + k) * pmf[k];
  }
  return total;
}

double OpportunityLaw::stddev() const noexcept {
  const double m = mean();
  double total = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    const double d = static_cast<double>(first + k) - m;
    total += d * d * pmf[k];
  }
  return std::sqrt(total);
}

double OpportunityLaw::cdf(double x) const noexcept {
  double total = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    if (static_cast<double>(first + k) > x) break;
    total += pmf[k];
  }
  return total;
}

OpportunityLaw convergence_opportunity_law(const DetailedStateModel& model,
                                           std::uint64_t delta,
                                           std::uint64_t rounds) {
  NEATBOUND_EXPECTS(model.p > 0.0 && model.p < 1.0, "requires p in (0,1)");
  const OpportunityAutomaton automaton(delta);
  using Input = OpportunityAutomaton::Input;
  const double quiet = model.prob_n().linear();
  const double one = model.prob_one().linear();
  const std::pair<Input, double> inputs[] = {
      {Input::kQuiet, quiet},
      {Input::kOne, one},
      {Input::kMany, std::max(0.0, model.prob_some().linear() - one)}};

  // mass[s * width + k] = P[state s, C = first + k]: one row per state
  // over a common count window that grows by one column per round (a
  // completion shifts its mass up by one) and is trimmed at both ends.
  const std::size_t states = automaton.states();
  std::uint64_t first = 0;
  std::size_t width = 1;
  std::vector<double> mass(states, 0.0), next;
  mass[automaton.start()] = 1.0;
  // column[k] = P[C = first − lo + k], the law over the untrimmed window.
  std::vector<double> column = {1.0};
  std::size_t lo = 0, hi = 1;
  for (std::uint64_t t = 0; t < rounds; ++t) {
    const std::size_t grown = width + 1;
    next.assign(states * grown, 0.0);
    for (std::size_t s = 0; s < states; ++s) {
      const double* from = &mass[s * width];
      for (const auto& [input, prob] : inputs) {
        const auto [to, completes] = automaton.step(s, input);
        double* into = &next[to * grown + (completes ? 1 : 0)];
        for (std::size_t k = 0; k < width; ++k) into[k] += prob * from[k];
      }
    }
    column.assign(grown, 0.0);
    for (std::size_t s = 0; s < states; ++s) {
      for (std::size_t k = 0; k < grown; ++k) column[k] += next[s * grown + k];
    }
    lo = 0;
    hi = grown;
    for (double dropped = 0.0;
         lo + 1 < hi && dropped + column[lo] < kOpportunityLawCutoff; ++lo) {
      dropped += column[lo];
    }
    for (double dropped = 0.0;
         hi - 1 > lo && dropped + column[hi - 1] < kOpportunityLawCutoff;
         --hi) {
      dropped += column[hi - 1];
    }
    width = hi - lo;
    first += lo;
    mass.resize(states * width);
    for (std::size_t s = 0; s < states; ++s) {
      std::copy_n(&next[s * grown + lo], width, &mass[s * width]);
    }
  }

  OpportunityLaw law;
  law.first = first;
  law.pmf.assign(column.begin() + static_cast<std::ptrdiff_t>(lo),
                 column.begin() + static_cast<std::ptrdiff_t>(hi));
  return law;
}

}  // namespace neatbound::chains
