#include <cmath>
#include <gtest/gtest.h>

#include "chains/suffix_chain.hpp"
#include "markov/mixing.hpp"
#include "markov/stationary.hpp"
#include "support/contracts.hpp"

namespace neatbound::markov {
namespace {

TransitionMatrix two_state(double a, double b) {
  TransitionMatrix m(2);
  m.set(0, 0, 1.0 - a);
  m.set(0, 1, a);
  m.set(1, 0, b);
  m.set(1, 1, 1.0 - b);
  return m;
}

TEST(Stationary, TwoStateClosedForm) {
  // π = (b, a)/(a+b).
  const double a = 0.3, b = 0.1;
  const auto m = two_state(a, b);
  for (const auto& result :
       {solve_stationary_power(m), solve_stationary_fixed_point(m)}) {
    ASSERT_TRUE(result.converged);
    EXPECT_NEAR(result.distribution[0], b / (a + b), 1e-10);
    EXPECT_NEAR(result.distribution[1], a / (a + b), 1e-10);
    EXPECT_LT(result.residual, 1e-10);
  }
}

TEST(Stationary, UniformChainIsUniform) {
  const std::size_t n = 8;
  TransitionMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      m.set(i, j, 1.0 / static_cast<double>(n));
    }
  }
  const auto result = solve_stationary_power(m);
  for (const double pi : result.distribution) {
    EXPECT_NEAR(pi, 1.0 / static_cast<double>(n), 1e-12);
  }
}

TEST(Stationary, SumsToOne) {
  const auto m = two_state(0.9, 0.05);
  const auto result = solve_stationary_power(m);
  double sum = 0.0;
  for (const double x : result.distribution) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Stationary, BothSolversAgree) {
  // A 4-state chain with asymmetric structure.
  TransitionMatrix m(4);
  m.set(0, 1, 0.7);
  m.set(0, 3, 0.3);
  m.set(1, 2, 1.0);
  m.set(2, 0, 0.4);
  m.set(2, 2, 0.6);
  m.set(3, 0, 0.5);
  m.set(3, 1, 0.5);
  const auto a = solve_stationary_power(m);
  const auto b = solve_stationary_fixed_point(m);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(a.distribution[i], b.distribution[i], 1e-9);
  }
}

TEST(Stationary, ResidualOfExactPiIsZero) {
  const auto m = two_state(0.2, 0.4);
  const std::vector<double> pi = {2.0 / 3.0, 1.0 / 3.0};
  EXPECT_LT(stationarity_residual(m, pi), 1e-15);
}

TEST(Stationary, ResidualDetectsNonStationary) {
  const auto m = two_state(0.2, 0.4);
  const std::vector<double> not_pi = {0.5, 0.5};
  EXPECT_GT(stationarity_residual(m, not_pi), 0.01);
}

TEST(TotalVariation, Properties) {
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_DOUBLE_EQ(total_variation(a, b), 1.0);
  EXPECT_DOUBLE_EQ(total_variation(a, a), 0.0);
  const std::vector<double> c = {0.5, 0.5};
  EXPECT_DOUBLE_EQ(total_variation(a, c), 0.5);
}

TEST(TotalVariation, SizeChecked) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {0.5, 0.5};
  EXPECT_THROW((void)total_variation(a, b), ContractViolation);
}

TEST(Mixing, TwoStateGeometricRate) {
  // For the two-state chain the TV from stationarity contracts by a
  // factor |1−a−b| per step; with a = b = 0.5 mixing is immediate.
  const auto instant = two_state(0.5, 0.5);
  const std::vector<double> pi = {0.5, 0.5};
  const auto r = mixing_time(instant, pi, 1.0 / 8.0);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.time, 1u);
}

TEST(Mixing, SlowChainTakesLonger) {
  const double a = 0.01, b = 0.01;
  const auto slow = two_state(a, b);
  const std::vector<double> pi = {0.5, 0.5};
  const auto r = mixing_time(slow, pi, 1.0 / 8.0);
  ASSERT_TRUE(r.converged);
  // TV after t steps = ½·(0.98)^t; ≤ 1/8 needs t ≥ ln(1/4)/ln(0.98) ≈ 69.
  EXPECT_NEAR(static_cast<double>(r.time), 69.0, 2.0);
}

TEST(Mixing, TimeZeroWhenStartingAtStationary) {
  // A chain whose every row equals π mixes in one step from any start;
  // epsilon = 0.6 > max TV at t=0 only if start is near π.  From point
  // masses the TV at t = 0 is 1 − min π, so expect time 1 when ε < that.
  const auto m = two_state(0.3, 0.7);
  const std::vector<double> pi = {0.7, 0.3};
  const auto r = mixing_time(m, pi, 0.75);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.time, 0u);
}

TEST(Mixing, TvFromStateMatchesManualEvolution) {
  const auto m = two_state(0.3, 0.1);
  const std::vector<double> pi = {0.25, 0.75};
  const double tv0 = tv_from_state(m, 0, 0, pi);
  EXPECT_NEAR(tv0, 0.75, 1e-12);  // point mass at 0 vs π
  const double tv1 = tv_from_state(m, 0, 1, pi);
  // After one step from state 0: (0.7, 0.3); TV vs π = 0.45.
  EXPECT_NEAR(tv1, 0.45, 1e-12);
}

TEST(Mixing, ReportsNonConvergenceOnPeriodicChain) {
  // A 2-cycle never mixes; distribution oscillates.
  TransitionMatrix m(2);
  m.set(0, 1, 1.0);
  m.set(1, 0, 1.0);
  const std::vector<double> pi = {0.5, 0.5};
  const auto r = mixing_time(m, pi, 0.1, /*max_steps=*/100);
  EXPECT_FALSE(r.converged);
}

TEST(Mixing, SuffixChainMixesWithinTwoDelta) {
  // The suffix state F_t is a deterministic function of the last 2Δ
  // rounds' coarse states (an H in the last Δ−1 rounds pins the preceding
  // gap inside the previous Δ rounds; no H there means HN^{≥Δ} regardless
  // of older history).  So P^{2Δ} has identical rows and TV reaches ~0
  // (hence any ε, including 1e-9) within 2Δ steps — mixing is transient,
  // not geometric.
  for (const std::uint64_t delta : {1ULL, 2ULL, 4ULL, 8ULL, 16ULL}) {
    for (const double alpha : {0.05, 0.3, 0.7}) {
      const chains::SuffixStateSpace space(delta);
      const auto matrix = chains::build_suffix_chain_matrix(space, alpha);
      const auto pi = chains::stationary_closed_form_vector(space, alpha);
      const auto loose = mixing_time(matrix, pi, 1.0 / 8.0, 1 << 16);
      ASSERT_TRUE(loose.converged);
      EXPECT_LE(loose.time, 2 * delta)
          << "delta=" << delta << " alpha=" << alpha;
      const auto strict = mixing_time(matrix, pi, 1e-9, 1 << 16);
      ASSERT_TRUE(strict.converged);
      EXPECT_LE(strict.time, 2 * delta)
          << "delta=" << delta << " alpha=" << alpha;
    }
  }
}

}  // namespace
}  // namespace neatbound::markov
