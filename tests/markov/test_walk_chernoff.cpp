#include <cmath>
#include <gtest/gtest.h>

#include "markov/chernoff.hpp"
#include "markov/mixing.hpp"
#include "markov/stationary.hpp"
#include "markov/walk.hpp"
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

TEST(RandomWalk, VisitFrequenciesMatchStationary) {
  const double a = 0.3, b = 0.1;
  const auto m = two_state(a, b);
  RandomWalk walk(m, 0, crng::Key{99, 0});
  const std::uint64_t steps = 400000;
  const auto visits = walk.visit_counts(steps);
  const double freq1 =
      static_cast<double>(visits[1]) / static_cast<double>(steps);
  EXPECT_NEAR(freq1, a / (a + b), 0.01);
}

TEST(RandomWalk, StepReturnsCurrentState) {
  const auto m = two_state(0.5, 0.5);
  RandomWalk walk(m, 0, crng::Key{7, 0});
  for (int i = 0; i < 10; ++i) {
    const std::size_t stepped = walk.step();
    EXPECT_EQ(stepped, walk.current());
  }
}

TEST(RandomWalk, DeterministicChainFollowsCycle) {
  TransitionMatrix m(3);
  m.set(0, 1, 1.0);
  m.set(1, 2, 1.0);
  m.set(2, 0, 1.0);
  RandomWalk walk(m, 0, crng::Key{1, 0});
  EXPECT_EQ(walk.step(), 1u);
  EXPECT_EQ(walk.step(), 2u);
  EXPECT_EQ(walk.step(), 0u);
}

TEST(RandomWalk, StartOutOfRangeThrows) {
  const auto m = two_state(0.5, 0.5);
  EXPECT_THROW(RandomWalk(m, 5, crng::Key{1, 0}), ContractViolation);
}

TEST(PiNorm, UniformOverUniformIsOne) {
  const std::vector<double> phi = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(pi_norm(phi, phi), 1.0, 1e-12);
}

TEST(PiNorm, PointMassValue) {
  // ‖δ₀‖_π = 1/sqrt(π₀).
  const std::vector<double> phi = {1.0, 0.0};
  const std::vector<double> pi = {0.25, 0.75};
  EXPECT_NEAR(pi_norm(phi, pi), 2.0, 1e-12);
}

TEST(PiNorm, RequiresSupportInclusion) {
  const std::vector<double> phi = {0.5, 0.5};
  const std::vector<double> pi = {1.0, 0.0};
  EXPECT_THROW((void)pi_norm(phi, pi), ContractViolation);
}

TEST(PiNorm, BoundFromMinDominates) {
  const std::vector<double> phi = {0.9, 0.1};
  const std::vector<double> pi = {0.6, 0.4};
  EXPECT_LE(pi_norm(phi, pi), pi_norm_bound_from_min(0.4) + 1e-12);
}

TEST(MarkovChernoff, BoundDecaysWithSteps) {
  MarkovChernoffParams p;
  p.stationary_mass = 0.01;
  p.delta = 0.5;
  p.mixing_time = 4.0;
  p.phi_pi_norm = 2.0;
  p.steps = 1000;
  const double b1 = markov_chernoff_lower(p).log();
  p.steps = 2000;
  const double b2 = markov_chernoff_lower(p).log();
  // Exponent is linear in T (the paper's exp(−Ω(T))).
  EXPECT_NEAR(b2 - std::log(2.0), 2.0 * (b1 - std::log(2.0)), 1e-9);
}

TEST(MarkovChernoff, MatchesEq47Shape) {
  // Eq. (47): exponent = −δ²·(Tᾱ^{2Δ}α₁)/(72τ).
  MarkovChernoffParams p;
  p.stationary_mass = 0.02;
  p.delta = 0.3;
  p.mixing_time = 7.0;
  p.phi_pi_norm = 1.5;
  p.constant = 2.0;
  p.steps = 5000;
  const double expected = std::log(2.0) + std::log(1.5) -
                          0.09 * 0.02 * 5000.0 / (72.0 * 7.0);
  EXPECT_NEAR(markov_chernoff_lower(p).log(), expected, 1e-12);
}

TEST(MarkovChernoff, LongerMixingWeakensBound) {
  MarkovChernoffParams p;
  p.stationary_mass = 0.01;
  p.delta = 0.5;
  p.steps = 1000;
  p.mixing_time = 2.0;
  const double fast = markov_chernoff_lower(p).log();
  p.mixing_time = 20.0;
  const double slow = markov_chernoff_lower(p).log();
  EXPECT_LT(fast, slow);
}

TEST(MarkovChernoff, ContractChecks) {
  MarkovChernoffParams p;
  p.stationary_mass = 0.01;
  p.delta = 1.5;  // invalid for lower tail
  p.steps = 10;
  EXPECT_THROW((void)markov_chernoff_lower(p), ContractViolation);
  p.delta = 0.5;
  p.mixing_time = 0.5;  // < 1
  EXPECT_THROW((void)markov_chernoff_lower(p), ContractViolation);
}

TEST(MarkovChernoff, EmpiricalConcentrationWithinBound) {
  // Count visits to state 1 of a two-state chain over T steps, many
  // repetitions; the observed lower-tail frequency must not exceed the
  // bound (the bound is loose, so this mostly guards sign errors).
  const double a = 0.2, b = 0.2;
  const auto m = two_state(a, b);
  const auto pi = solve_stationary_power(m).distribution;
  const std::uint64_t steps = 2000;
  const double mass = pi[1];
  const double delta = 0.5;
  int below = 0;
  const int reps = 300;
  for (int r = 0; r < reps; ++r) {
    RandomWalk walk(m, 0, crng::Key{1000 + static_cast<std::uint64_t>(r), 0});
    const auto visits = walk.visit_counts(steps);
    const double count = static_cast<double>(visits[1]);
    if (count <= (1.0 - delta) * mass * static_cast<double>(steps)) ++below;
  }
  const auto mix = mixing_time(m, pi, 1.0 / 8.0);
  MarkovChernoffParams p;
  p.stationary_mass = mass;
  p.steps = static_cast<double>(steps);
  p.delta = delta;
  p.mixing_time = std::max(1.0, static_cast<double>(mix.time));
  p.phi_pi_norm = pi_norm(std::vector<double>{1.0, 0.0}, pi);
  const double bound = markov_chernoff_lower(p).linear();
  EXPECT_LE(static_cast<double>(below) / reps, std::min(1.0, bound) + 0.02);
}

}  // namespace
}  // namespace neatbound::markov
