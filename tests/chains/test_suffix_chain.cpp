#include "chains/suffix_chain.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "markov/stationary.hpp"
#include "markov/structure.hpp"
#include "markov/walk.hpp"
#include "support/contracts.hpp"

namespace neatbound::chains {
namespace {

TEST(SuffixChain, MatrixIsStochastic) {
  for (const std::uint64_t delta : {1ULL, 2ULL, 5ULL, 16ULL}) {
    const SuffixStateSpace space(delta);
    const auto m = build_suffix_chain_matrix(space, 0.2);
    EXPECT_NO_THROW(m.check_stochastic());
  }
}

TEST(SuffixChain, IsErgodicAsThePaperAsserts) {
  // §V-A claims C_F is time-homogeneous, irreducible and ergodic; verify
  // mechanically for a range of Δ.
  for (const std::uint64_t delta : {1ULL, 2ULL, 3ULL, 8ULL, 32ULL}) {
    const SuffixStateSpace space(delta);
    const auto m = build_suffix_chain_matrix(space, 0.37);
    EXPECT_TRUE(markov::is_irreducible(m)) << "delta=" << delta;
    EXPECT_TRUE(markov::is_ergodic(m)) << "delta=" << delta;
  }
}

TEST(SuffixChain, ClosedFormSumsToOne) {
  for (const std::uint64_t delta : {1ULL, 2ULL, 4ULL, 9ULL, 33ULL}) {
    const SuffixStateSpace space(delta);
    for (const double alpha : {0.01, 0.2, 0.5, 0.9}) {
      const auto pi = stationary_closed_form_vector(space, alpha);
      double sum = 0.0;
      for (const double x : pi) sum += x;
      EXPECT_NEAR(sum, 1.0, 1e-12) << "delta=" << delta
                                   << " alpha=" << alpha;
    }
  }
}

TEST(SuffixChain, ClosedFormSatisfiesBalanceEquations) {
  // π = πP verified directly: the strongest check of Eq. (37a–d) against
  // the transition structure of Fig. 2.
  for (const std::uint64_t delta : {1ULL, 2ULL, 3ULL, 7ULL, 16ULL}) {
    const SuffixStateSpace space(delta);
    for (const double alpha : {0.05, 0.3, 0.75}) {
      const auto m = build_suffix_chain_matrix(space, alpha);
      const auto pi = stationary_closed_form_vector(space, alpha);
      EXPECT_LT(markov::stationarity_residual(m, pi), 1e-13)
          << "delta=" << delta << " alpha=" << alpha;
    }
  }
}

TEST(SuffixChain, ClosedFormMatchesEq37Values) {
  // Hand-check (37a–d) at Δ = 2, α = 0.4 (ᾱ = 0.6):
  //   π(HN^{≤1}H)    = 0.4·(1−0.36)        = 0.256
  //   π(HN^{≤1}HN¹)  = 0.256·0.6           = 0.1536
  //   π(HN^{≥2})     = 0.36
  //   π(HN^{≥2}HN⁰)  = 0.4·0.36            = 0.144
  //   π(HN^{≥2}HN¹)  = 0.4·0.216           = 0.0864
  const SuffixStateSpace space(2);
  const auto pi = stationary_closed_form_vector(space, 0.4);
  EXPECT_NEAR(pi[space.index_of({SuffixKind::kShortGapHead, 0})], 0.256,
              1e-12);
  EXPECT_NEAR(pi[space.index_of({SuffixKind::kShortGapTail, 1})], 0.1536,
              1e-12);
  EXPECT_NEAR(pi[space.index_of({SuffixKind::kLongGap, 0})], 0.36, 1e-12);
  EXPECT_NEAR(pi[space.index_of({SuffixKind::kLongGapTail, 0})], 0.144,
              1e-12);
  EXPECT_NEAR(pi[space.index_of({SuffixKind::kLongGapTail, 1})], 0.0864,
              1e-12);
}

TEST(SuffixChain, LogSpaceClosedFormMatchesVector) {
  const SuffixStateSpace space(6);
  const double alpha = 0.15;
  const LogProb abar = LogProb::from_linear(1.0 - alpha);
  const auto vec = stationary_closed_form_vector(space, alpha);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_NEAR(
        stationary_closed_form(space.state_at(i), space.delta(), abar)
            .linear(),
        vec[i], 1e-14);
  }
}

TEST(SuffixChain, ClosedFormWorksAtPaperScale) {
  // Δ = 10¹³ and ᾱ = exp(−3.75·10⁻¹⁴/round): cannot materialize the state
  // space, but single-state closed forms must still evaluate.
  const std::uint64_t delta = 10000000000000ULL;  // 10¹³
  const LogProb abar = LogProb::from_log(-3.75e-14);
  // π(HN^{≥Δ}) = ᾱ^Δ = exp(−0.375).
  const LogProb lg =
      stationary_closed_form({SuffixKind::kLongGap, 0}, delta, abar);
  EXPECT_NEAR(lg.log(), -0.375, 1e-12);
  // π(HN^{≤Δ−1}H) = α(1−ᾱ^Δ).
  const LogProb head =
      stationary_closed_form({SuffixKind::kShortGapHead, 0}, delta, abar);
  const double alpha_lin = -std::expm1(-3.75e-14);
  EXPECT_NEAR(head.linear() / alpha_lin, -std::expm1(-0.375), 1e-9);
}

TEST(SuffixChain, NumericSolversAgreeWithClosedForm) {
  for (const std::uint64_t delta : {1ULL, 3ULL, 8ULL}) {
    const SuffixStateSpace space(delta);
    for (const double alpha : {0.1, 0.45}) {
      const auto m = build_suffix_chain_matrix(space, alpha);
      const auto closed = stationary_closed_form_vector(space, alpha);
      const auto power = markov::solve_stationary_power(m);
      ASSERT_TRUE(power.converged);
      for (std::size_t i = 0; i < space.size(); ++i) {
        EXPECT_NEAR(power.distribution[i], closed[i], 1e-9)
            << "delta=" << delta << " alpha=" << alpha << " state=" << i;
      }
    }
  }
}

TEST(SuffixChain, MinStationaryMatchesVectorMin) {
  for (const std::uint64_t delta : {1ULL, 2ULL, 5ULL, 12ULL}) {
    const SuffixStateSpace space(delta);
    for (const double alpha : {0.05, 0.3, 0.8}) {
      const auto pi = stationary_closed_form_vector(space, alpha);
      double min_pi = 1.0;
      for (const double x : pi) min_pi = std::min(min_pi, x);
      const double closed =
          min_stationary_suffix(delta, LogProb::from_linear(1.0 - alpha))
              .linear();
      EXPECT_NEAR(closed, min_pi, 1e-12)
          << "delta=" << delta << " alpha=" << alpha;
    }
  }
}

TEST(SuffixChain, NamedChainHasReadableStates) {
  const SuffixStateSpace space(2);
  const auto chain = build_suffix_chain(space, 0.3);
  EXPECT_EQ(chain.state_name(0), "HN<=1.H");
  EXPECT_EQ(chain.state_name(2), "HN>=2");
}

TEST(SuffixChain, RejectsDegenerateAlpha) {
  const SuffixStateSpace space(2);
  EXPECT_THROW((void)build_suffix_chain_matrix(space, 0.0),
               ContractViolation);
  EXPECT_THROW((void)build_suffix_chain_matrix(space, 1.0),
               ContractViolation);
}

// Property sweep over (Δ, α): the LongGap mass ᾱ^Δ dominates-or-not in a
// way that must match the closed form's min computation (Eq. 99 split).
struct ChainCase {
  std::uint64_t delta;
  double alpha;
};

class SuffixChainSweep : public ::testing::TestWithParam<ChainCase> {};

TEST_P(SuffixChainSweep, StationaryResidualTiny) {
  const auto [delta, alpha] = GetParam();
  const SuffixStateSpace space(delta);
  const auto m = build_suffix_chain_matrix(space, alpha);
  const auto pi = stationary_closed_form_vector(space, alpha);
  EXPECT_LT(markov::stationarity_residual(m, pi), 1e-12);
}

TEST_P(SuffixChainSweep, WalkFrequenciesApproachClosedForm) {
  const auto [delta, alpha] = GetParam();
  const SuffixStateSpace space(delta);
  const auto m = build_suffix_chain_matrix(space, alpha);
  const auto pi = stationary_closed_form_vector(space, alpha);
  markov::RandomWalk walk(m, 0, crng::Key{1234 + delta, 0});
  const std::uint64_t steps = 200000;
  const auto visits = walk.visit_counts(steps);
  for (std::size_t i = 0; i < space.size(); ++i) {
    const double freq = static_cast<double>(visits[i]) /
                        static_cast<double>(steps);
    // 5σ of a binomial proportion estimate.
    const double tolerance =
        5.0 * std::sqrt(pi[i] * (1 - pi[i]) / static_cast<double>(steps)) +
        1e-4;
    EXPECT_NEAR(freq, pi[i], tolerance) << "state " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, SuffixChainSweep,
                         ::testing::Values(ChainCase{1, 0.3},
                                           ChainCase{2, 0.1},
                                           ChainCase{3, 0.5},
                                           ChainCase{4, 0.05},
                                           ChainCase{6, 0.25},
                                           ChainCase{8, 0.6}));

}  // namespace
}  // namespace neatbound::chains
