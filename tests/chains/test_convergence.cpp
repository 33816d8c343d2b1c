#include "chains/convergence.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "stats/distributions.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::chains {
namespace {

TEST(DetailedStateModel, MatchesBinomialPmf) {
  const DetailedStateModel model{.honest_trials = 20, .p = 0.1};
  const stats::Binomial binom(20, 0.1);
  EXPECT_NEAR(model.prob_n().log(), binom.prob_zero().log(), 1e-12);
  EXPECT_NEAR(model.prob_one().log(), binom.prob_one().log(), 1e-12);
  EXPECT_NEAR(model.prob_some().log(), binom.prob_positive().log(), 1e-12);
  for (std::uint64_t h : {1ULL, 2ULL, 5ULL}) {
    EXPECT_NEAR(model.prob_h(h).log(),
                binom.pmf(static_cast<double>(h)).log(), 1e-12);
  }
}

TEST(DetailedStateModel, MinDetailedProbEq97) {
  // p ≤ ½ → min is p^{μn} (all honest miners succeed at once).
  const DetailedStateModel small_p{.honest_trials = 10, .p = 0.2};
  EXPECT_NEAR(small_p.min_detailed_prob().log(), 10.0 * std::log(0.2),
              1e-12);
  // p > ½ → min is (1−p)^{μn} (nobody succeeds).
  const DetailedStateModel large_p{.honest_trials = 10, .p = 0.8};
  EXPECT_NEAR(large_p.min_detailed_prob().log(), 10.0 * std::log(0.2),
              1e-12);
}

TEST(DetailedStateModel, HZeroRejected) {
  const DetailedStateModel model{.honest_trials = 10, .p = 0.1};
  EXPECT_THROW((void)model.prob_h(0), ContractViolation);
}

TEST(ConvergenceProbability, Eq44Product) {
  // π = ᾱ^{2Δ}·α₁ exactly.
  const LogProb abar = LogProb::from_linear(0.9);
  const LogProb a1 = LogProb::from_linear(0.08);
  const LogProb pi = convergence_opportunity_probability(abar, a1, 3);
  EXPECT_NEAR(pi.linear(), std::pow(0.9, 6.0) * 0.08, 1e-12);
}

TEST(ConvergenceProbability, PaperScale) {
  // Paper scale: ᾱ^{2Δ} ≈ e^{−2μ/c}; with μ/c = 0.375: e^{−0.75}.
  const std::uint64_t delta = 10000000000000ULL;  // 10¹³
  const LogProb abar = LogProb::from_log(-3.75e-14 / 1e13);
  const LogProb a1 = LogProb::from_linear(1e-14);
  const LogProb pi = convergence_opportunity_probability(abar, a1, delta);
  EXPECT_NEAR(pi.log(), -2.0 * 3.75e-14 / 1e13 * 1e13 + std::log(1e-14),
              1e-9);
}

TEST(ExpectedConvergence, Eq26LinearInWindow) {
  const LogProb abar = LogProb::from_linear(0.95);
  const LogProb a1 = LogProb::from_linear(0.04);
  const double t1 =
      expected_convergence_opportunities(abar, a1, 2, 1000).linear();
  const double t2 =
      expected_convergence_opportunities(abar, a1, 2, 2000).linear();
  EXPECT_NEAR(t2, 2.0 * t1, 1e-9);
}

TEST(MinStationaryConcatenated, Proposition1Product) {
  // min π_{F‖P} = min π_F · (min detailed)^{Δ+1}.
  const DetailedStateModel model{.honest_trials = 8, .p = 0.25};
  const std::uint64_t delta = 3;
  const LogProb abar = model.prob_n();
  const LogProb expected =
      min_stationary_suffix(delta, abar) *
      model.min_detailed_prob().pow(static_cast<double>(delta) + 1.0);
  EXPECT_NEAR(min_stationary_concatenated(model, delta, abar).log(),
              expected.log(), 1e-12);
}

// --- count_convergence_opportunities ------------------------------------

TEST(CountOpportunities, SimplePattern) {
  // Δ = 2; genesis provides the leading quiet H.  Series:
  // round:  0 1 2 3 4
  // blocks: 0 0 1 0 0   → round 2 is H₁ with quiet-before = 2 (+ genesis)
  //                       and quiet-after = 2 → one opportunity.
  const std::vector<std::uint32_t> counts = {0, 0, 1, 0, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 2), 1u);
}

TEST(CountOpportunities, GenesisSuppliesLeadingQuiet) {
  // H₁ at round 0 counts if Δ quiet rounds follow (quiet_before starts
  // at Δ thanks to genesis).
  const std::vector<std::uint32_t> counts = {1, 0, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 2), 1u);
}

TEST(CountOpportunities, TwoBlocksInRoundDisqualify) {
  const std::vector<std::uint32_t> counts = {0, 0, 2, 0, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 2), 0u);
}

TEST(CountOpportunities, ShortQuietBeforeDisqualifies) {
  // Block at round 1 breaks the pre-quiet of the H₁ at round 2.
  const std::vector<std::uint32_t> counts = {0, 1, 1, 0, 0, 0, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 2), 0u);
}

TEST(CountOpportunities, ShortQuietAfterDisqualifies) {
  const std::vector<std::uint32_t> counts = {0, 0, 1, 1, 0, 0, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 2), 0u);
}

TEST(CountOpportunities, TruncatedTailDoesNotCount) {
  // Quiet-after extends past the end of the window: not counted (the
  // window must contain the full N^Δ suffix).
  const std::vector<std::uint32_t> counts = {0, 0, 1, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 2), 0u);
}

TEST(CountOpportunities, MultipleOpportunities) {
  // Δ = 1: pattern "1 0" repeated, with genesis leading.
  const std::vector<std::uint32_t> counts = {1, 0, 1, 0, 1, 0};
  EXPECT_EQ(count_convergence_opportunities(counts, 1), 3u);
}

TEST(CountOpportunities, BackToBackBlocksDelta1) {
  const std::vector<std::uint32_t> counts = {1, 1, 0, 0};
  // Round 0: quiet-after fails (round 1 has a block).
  // Round 1: quiet-before = 0 < Δ.  So zero opportunities.
  EXPECT_EQ(count_convergence_opportunities(counts, 1), 0u);
}

TEST(CountOpportunities, EmptySeries) {
  const std::vector<std::uint32_t> counts;
  EXPECT_EQ(count_convergence_opportunities(counts, 3), 0u);
}

TEST(CountOpportunities, AllQuiet) {
  const std::vector<std::uint32_t> counts(20, 0);
  EXPECT_EQ(count_convergence_opportunities(counts, 3), 0u);
}

// --- the exact law of C ---------------------------------------------------

/// C over `counts` by the automaton, one step per round.
std::uint64_t automaton_count(std::span<const std::uint32_t> counts,
                              std::uint64_t delta) {
  const OpportunityAutomaton automaton(delta);
  std::size_t state = automaton.start();
  std::uint64_t count = 0;
  for (const std::uint32_t h : counts) {
    const auto step = automaton.step(state, OpportunityAutomaton::input_of(h));
    state = step.next;
    count += step.completes ? 1 : 0;
  }
  return count;
}

TEST(OpportunityAutomaton, MatchesCountOnRandomSeries) {
  crng::Stream rng({2718, 0}, 0, 0, crng::Purpose::kGeneric);
  std::uint64_t total = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t delta = 1 + rng.uniform_below(5);
    // Mostly quiet rounds, so opportunities are common.
    const double quiet = 0.5 + 0.45 * rng.uniform();
    std::vector<std::uint32_t> counts(rng.uniform_below(300));
    for (std::uint32_t& h : counts) {
      h = rng.bernoulli(quiet) ? 0 : 1 + static_cast<std::uint32_t>(
                                             rng.uniform_below(3));
    }
    const std::uint64_t expected =
        count_convergence_opportunities(counts, delta);
    ASSERT_EQ(automaton_count(counts, delta), expected)
        << "trial " << trial << " delta " << delta;
    total += expected;
  }
  EXPECT_GT(total, 2000u);  // the series exercise the counting path
}

TEST(OpportunityAutomaton, StepQuietEqualsSingleQuietSteps) {
  // From every state, a jump of k quiet rounds lands where k single
  // quiet steps do, and completes iff one of them did (at most one can:
  // a completion lands on the saturated unarmed state).
  using Input = OpportunityAutomaton::Input;
  for (const std::uint64_t delta : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const OpportunityAutomaton automaton(delta);
    for (std::size_t state = 0; state < automaton.states(); ++state) {
      for (std::uint64_t k = 0; k <= 3 * delta; ++k) {
        std::size_t stepped = state;
        std::uint64_t completions = 0;
        for (std::uint64_t i = 0; i < k; ++i) {
          const auto step = automaton.step(stepped, Input::kQuiet);
          stepped = step.next;
          completions += step.completes ? 1 : 0;
        }
        const auto jump = automaton.step_quiet(state, k);
        ASSERT_LE(completions, 1u);
        EXPECT_EQ(jump.next, stepped)
            << "delta " << delta << " state " << state << " k " << k;
        EXPECT_EQ(jump.completes, completions == 1)
            << "delta " << delta << " state " << state << " k " << k;
      }
    }
  }
}

TEST(OpportunityAutomaton, QuietJumpsMatchCountOnRandomSeries) {
  // The engine's way: one step per busy round and one jump per stretch
  // of quiet rounds, however long.
  crng::Stream rng({3141, 0}, 0, 0, crng::Purpose::kGeneric);
  std::uint64_t total = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::uint64_t delta = 1 + rng.uniform_below(5);
    const double quiet = 0.5 + 0.45 * rng.uniform();
    std::vector<std::uint32_t> counts(rng.uniform_below(300));
    for (std::uint32_t& h : counts) {
      h = rng.bernoulli(quiet) ? 0 : 1 + static_cast<std::uint32_t>(
                                             rng.uniform_below(3));
    }
    const OpportunityAutomaton automaton(delta);
    std::size_t state = automaton.start();
    std::uint64_t count = 0;
    for (std::size_t t = 0; t < counts.size();) {
      std::size_t end = t;
      while (end < counts.size() && counts[end] == 0) ++end;
      const auto step =
          end > t ? automaton.step_quiet(state, end - t)
                  : automaton.step(state,
                                   OpportunityAutomaton::input_of(counts[t]));
      state = step.next;
      count += step.completes ? 1 : 0;
      t = end > t ? end : t + 1;
    }
    const std::uint64_t expected =
        count_convergence_opportunities(counts, delta);
    ASSERT_EQ(count, expected) << "trial " << trial << " delta " << delta;
    total += expected;
  }
  EXPECT_GT(total, 2000u);
}

TEST(OpportunityAutomaton, StepQuietSaturatesOnLongStretches) {
  const OpportunityAutomaton automaton(4);
  const std::uint64_t huge = ~std::uint64_t{0};
  for (std::size_t state = 0; state < automaton.states(); ++state) {
    const auto jump = automaton.step_quiet(state, huge);
    EXPECT_EQ(jump.next, 4u) << state;
    EXPECT_EQ(jump.completes, state > 4) << state;
  }
}

TEST(OpportunityLaw, EqualsBruteForceEnumeration) {
  // Every sequence of T rounds over {N, H₁, H₂}, weighted by its
  // probability and counted by the one definition of C.
  const DetailedStateModel model{.honest_trials = 4, .p = 0.2};
  const double probs[3] = {
      model.prob_n().linear(), model.prob_one().linear(),
      model.prob_some().linear() - model.prob_one().linear()};
  for (const std::uint64_t delta : {1ULL, 2ULL, 3ULL}) {
    for (std::uint64_t rounds = 0; rounds <= 9; ++rounds) {
      std::vector<double> brute(rounds + 1, 0.0);
      std::vector<std::uint32_t> counts(rounds);
      std::uint64_t sequences = 1;
      for (std::uint64_t t = 0; t < rounds; ++t) sequences *= 3;
      for (std::uint64_t code = 0; code < sequences; ++code) {
        double weight = 1.0;
        std::uint64_t rest = code;
        for (std::uint32_t& h : counts) {
          h = static_cast<std::uint32_t>(rest % 3);
          weight *= probs[h];
          rest /= 3;
        }
        brute[count_convergence_opportunities(counts, delta)] += weight;
      }
      const OpportunityLaw law =
          convergence_opportunity_law(model, delta, rounds);
      for (std::uint64_t k = 0; k <= rounds; ++k) {
        const double exact = k >= law.first && k - law.first < law.pmf.size()
                                 ? law.pmf[k - law.first]
                                 : 0.0;
        EXPECT_NEAR(exact, brute[k], 1e-12)
            << "delta " << delta << " T " << rounds << " k " << k;
      }
    }
  }
}

TEST(OpportunityLaw, MeanIsEq26UpToTheEdges) {
  // Round t counts with probability ᾱ^{t+Δ}α₁ for t < Δ (genesis is the
  // leading H), ᾱ^{2Δ}α₁ in the bulk, and 0 in the last Δ rounds.
  const DetailedStateModel model{.honest_trials = 150, .p = 0.001};
  const double abar = model.prob_n().linear();
  const double alpha1 = model.prob_one().linear();
  for (const std::uint64_t delta : {1ULL, 2ULL, 4ULL}) {
    const std::uint64_t rounds = 5000;
    const OpportunityLaw law = convergence_opportunity_law(model, delta, rounds);
    EXPECT_NEAR(law.mass(), 1.0, 1e-12);
    const double d = static_cast<double>(delta);
    const double rate =
        convergence_opportunity_probability(model.prob_n(), model.prob_one(),
                                            delta)
            .linear();
    double head = 0.0;
    for (std::uint64_t t = 0; t < delta; ++t) {
      head += std::pow(abar, static_cast<double>(t) + d) * alpha1;
    }
    const double exact =
        head + (static_cast<double>(rounds) - 2.0 * d) * rate;
    EXPECT_NEAR(law.mean(), exact, 1e-9 * exact);
    EXPECT_LE(std::fabs(law.mean() - static_cast<double>(rounds) * rate),
              d * alpha1);
  }
}

TEST(OpportunityLaw, CdfAndTrimmedSupport) {
  const DetailedStateModel model{.honest_trials = 150, .p = 0.001};
  const OpportunityLaw law = convergence_opportunity_law(model, 2, 20000);
  // The count window is trimmed to the ~1e-30 core, far narrower than T.
  EXPECT_GT(law.first, 0u);
  EXPECT_LT(law.pmf.size(), 2000u);
  EXPECT_NEAR(law.mass(), 1.0, 1e-12);
  EXPECT_EQ(law.cdf(static_cast<double>(law.first) - 1.0), 0.0);
  EXPECT_NEAR(law.cdf(1e9), law.mass(), 0.0);
  const double median_side = law.cdf(law.mean());
  EXPECT_GT(median_side, 0.4);
  EXPECT_LT(median_side, 0.6);
}

TEST(OpportunityLaw, RejectsDegenerateInputs) {
  EXPECT_THROW((void)convergence_opportunity_law(
                   {.honest_trials = 10, .p = 0.0}, 2, 10),
               ContractViolation);
  EXPECT_THROW((void)convergence_opportunity_law(
                   {.honest_trials = 10, .p = 0.1}, 0, 10),
               ContractViolation);
}

}  // namespace
}  // namespace neatbound::chains
