#include "stats/distributions.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "stats/large_deviations.hpp"
#include "support/contracts.hpp"

namespace neatbound::stats {
namespace {

TEST(Binomial, PmfMatchesHandValues) {
  const Binomial b(4, 0.5);
  EXPECT_NEAR(b.pmf(0).linear(), 1.0 / 16, 1e-14);
  EXPECT_NEAR(b.pmf(1).linear(), 4.0 / 16, 1e-14);
  EXPECT_NEAR(b.pmf(2).linear(), 6.0 / 16, 1e-14);
  EXPECT_NEAR(b.pmf(4).linear(), 1.0 / 16, 1e-14);
}

TEST(Binomial, PmfSumsToOne) {
  const Binomial b(12, 0.3);
  LogProb total = LogProb::zero();
  for (double k = 0; k <= 12; ++k) total += b.pmf(k);
  EXPECT_NEAR(total.linear(), 1.0, 1e-12);
}

TEST(Binomial, CdfComplementsSf) {
  const Binomial b(20, 0.1);
  for (std::uint64_t k : {0ULL, 1ULL, 3ULL, 10ULL}) {
    EXPECT_NEAR(b.cdf(k).linear() + b.sf(k + 1).linear(), 1.0, 1e-10);
  }
}

TEST(Binomial, DeepUpperTailKeepsItsPrecision) {
  // Far past the mean the tail is far below 1 − cdf's rounding error, so
  // it must sit between its first term and the Chernoff–KL bound.
  for (const double trials : {5e6, 5e7}) {
    const Binomial b(trials, 0.00125);
    const auto k = static_cast<std::uint64_t>(std::ceil(1.1 * b.mean()));
    const LogProb tail = b.sf(k);
    EXPECT_GE(tail.log(), b.pmf(static_cast<double>(k)).log());
    EXPECT_LE(tail.log(),
              binomial_upper_tail_bound(trials, 0.00125, 0.1).log());
  }
}

TEST(Binomial, ZeroOneShortcutsMatchPmf) {
  const Binomial b(50, 0.02);
  EXPECT_NEAR(b.prob_zero().log(), b.pmf(0).log(), 1e-12);
  EXPECT_NEAR(b.prob_one().log(), b.pmf(1).log(), 1e-12);
  EXPECT_NEAR(b.prob_positive().linear(), 1.0 - b.pmf(0).linear(), 1e-12);
}

TEST(Binomial, PaperScaleAlphaQuantities) {
  // n = 10⁵ miners, μ = 0.75, Δ = 10¹³, c = 2 → p = 1/(c·n·Δ) = 5·10⁻¹⁹.
  const double mu_n = 0.75e5;
  const double p = 5e-19;
  const Binomial b(mu_n, p);
  // ᾱ = (1−p)^{μn}: ln ᾱ ≈ −μn·p = −3.75·10⁻¹⁴.
  EXPECT_NEAR(b.prob_zero().log(), -mu_n * p, 1e-20);
  // α ≈ μn·p at this scale.
  EXPECT_NEAR(b.prob_positive().linear(), mu_n * p, mu_n * p * 1e-6);
  // α₁ ≈ α (two successes in one round are vanishingly unlikely).
  EXPECT_NEAR(b.prob_one().linear() / b.prob_positive().linear(), 1.0, 1e-10);
}

TEST(Binomial, RealValuedTrialsSupported) {
  // μn need not be integral; pmf via gamma functions must still normalize
  // over the integer support closely for large fractional n.
  const Binomial b(10.5, 0.2);
  EXPECT_GT(b.pmf(2).linear(), 0.0);
  EXPECT_NEAR(b.mean(), 2.1, 1e-12);
}

TEST(Binomial, DegenerateP) {
  const Binomial zero(10, 0.0);
  EXPECT_EQ(zero.pmf(0).linear(), 1.0);
  EXPECT_TRUE(zero.pmf(3).is_zero());
  const Binomial one(10, 1.0);
  EXPECT_EQ(one.pmf(10).linear(), 1.0);
  EXPECT_TRUE(one.pmf(3).is_zero());
}

TEST(Binomial, ContractChecks) {
  EXPECT_THROW(Binomial(-1, 0.5), neatbound::ContractViolation);
  EXPECT_THROW(Binomial(10, 1.5), neatbound::ContractViolation);
  const Binomial b(10, 0.5);
  EXPECT_THROW((void)b.pmf(11), neatbound::ContractViolation);
}

TEST(Geometric, PmfAndSf) {
  const Geometric g(0.25);
  EXPECT_NEAR(g.pmf(0).linear(), 0.25, 1e-14);
  EXPECT_NEAR(g.pmf(2).linear(), 0.75 * 0.75 * 0.25, 1e-14);
  EXPECT_NEAR(g.sf(3).linear(), std::pow(0.75, 3.0), 1e-14);
  EXPECT_NEAR(g.mean(), 3.0, 1e-12);
}

TEST(Geometric, PmfSumsToOne) {
  const Geometric g(0.4);
  LogProb total = LogProb::zero();
  for (std::uint64_t k = 0; k < 100; ++k) total += g.pmf(k);
  EXPECT_NEAR(total.linear(), 1.0, 1e-12);
}

TEST(Poisson, MatchesHandValues) {
  const Poisson po(2.0);
  EXPECT_NEAR(po.pmf(0).linear(), std::exp(-2.0), 1e-14);
  EXPECT_NEAR(po.pmf(2).linear(), 2.0 * std::exp(-2.0), 1e-14);
}

TEST(Poisson, LimitsOfBinomial) {
  // Binomial(n, λ/n) → Poisson(λ): the approximation the paper's "c means
  // expected Δ-delays per block" intuition rests on.
  const double lambda = 0.8;
  const Binomial b(1e7, lambda / 1e7);
  const Poisson po(lambda);
  for (std::uint64_t k = 0; k <= 5; ++k) {
    EXPECT_NEAR(b.pmf(static_cast<double>(k)).linear(), po.pmf(k).linear(),
                1e-7);
  }
}

// Property sweep: prob_one ≤ prob_positive, and the three α-quantities
// respect α + ᾱ = 1 across the (n, p) grid.
struct AlphaCase {
  double n;
  double p;
};

class BinomialAlphaSweep : public ::testing::TestWithParam<AlphaCase> {};

TEST_P(BinomialAlphaSweep, AlphaIdentities) {
  const auto [n, p] = GetParam();
  const Binomial b(n, p);
  EXPECT_NEAR((b.prob_zero() + b.prob_positive()).linear(), 1.0, 1e-9);
  EXPECT_LE(b.prob_one().log(), b.prob_positive().log() + 1e-12);
  // α₁ = np(1−p)^{n−1} exactly (Eq. 9):
  EXPECT_NEAR(b.prob_one().log(),
              std::log(n * p) + (n - 1) * std::log1p(-p), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BinomialAlphaSweep,
    ::testing::Values(AlphaCase{10, 0.3}, AlphaCase{100, 0.01},
                      AlphaCase{1000, 1e-4}, AlphaCase{75000, 5e-19},
                      AlphaCase{64, 0.5}, AlphaCase{4, 0.24},
                      AlphaCase{1e5, 1e-9}));

}  // namespace
}  // namespace neatbound::stats
