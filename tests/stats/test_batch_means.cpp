#include "stats/batch_means.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::stats {
namespace {

/// AR(1) series x_{t+1} = φ·x_t + ε with known integrated autocorrelation
/// time (1+φ)/(1−φ).
std::vector<double> ar1(double phi, std::size_t n, std::uint64_t seed) {
  crng::Stream rng({seed, 0}, 0, 0, crng::Purpose::kGeneric);
  std::vector<double> x(n);
  double cur = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    // Sum of 12 uniforms − 6: near-Gaussian innovation, mean 0, var 1.
    double eps = -6.0;
    for (int k = 0; k < 12; ++k) eps += rng.uniform();
    cur = phi * cur + eps;
    x[t] = cur;
  }
  return x;
}

TEST(BatchMeans, IidSeriesMatchesNaive) {
  const auto series = ar1(0.0, 64000, 1);
  const auto result = batch_means(series);
  EXPECT_NEAR(result.mean, 0.0, 5.0 * result.stderr_mean);
  // For iid data the two stderrs coincide up to noise.
  EXPECT_NEAR(result.stderr_mean / result.naive_stderr, 1.0, 0.35);
  EXPECT_LT(result.autocorrelation_time, 2.0);
}

TEST(BatchMeans, CorrelatedSeriesInflatesError) {
  const double phi = 0.9;  // tau = (1+phi)/(1-phi) = 19
  // With 20 batches one estimate of tau is 19·χ²₁₉/19-distributed (sd ≈
  // 6.2), so a single series says little; the mean over 8 independent
  // series has sd ≈ 2.2 and must land within 10 of the truth.
  constexpr int kSeries = 8;
  double tau_sum = 0.0;
  for (int i = 0; i < kSeries; ++i) {
    const auto series = ar1(phi, 100000, 2 + static_cast<std::uint64_t>(i));
    const auto result = batch_means(series, 20);
    EXPECT_GT(result.stderr_mean, 2.0 * result.naive_stderr);
    tau_sum += result.autocorrelation_time;
  }
  EXPECT_NEAR(tau_sum / kSeries, 19.0, 10.0);
}

TEST(BatchMeans, MeanIsBatchInvariant) {
  const auto series = ar1(0.5, 9600, 3);
  const auto a = batch_means(series, 8);
  const auto b = batch_means(series, 32);
  EXPECT_NEAR(a.mean, b.mean, 1e-12);  // same used prefix length? close
}

TEST(BatchMeans, ContractChecks) {
  const std::vector<double> tiny = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)batch_means(tiny, 2), neatbound::ContractViolation);
  EXPECT_THROW((void)batch_means(tiny, 1), neatbound::ContractViolation);
}

TEST(Autocovariance, Lag0IsVariance) {
  const auto series = ar1(0.0, 50000, 4);
  const double c0 = autocovariance(series, 0);
  EXPECT_NEAR(c0, 1.0, 0.05);  // innovations have variance 1
}

TEST(Autocovariance, DecaysGeometrically) {
  const double phi = 0.7;
  const auto series = ar1(phi, 400000, 5);
  const double c0 = autocovariance(series, 0);
  for (std::size_t lag : {1UL, 2UL, 4UL}) {
    const double rho = autocovariance(series, lag) / c0;
    EXPECT_NEAR(rho, std::pow(phi, static_cast<double>(lag)), 0.03)
        << "lag " << lag;
  }
}

TEST(Autocovariance, LagBoundsChecked) {
  const std::vector<double> s = {1.0, 2.0};
  EXPECT_THROW((void)autocovariance(s, 2), neatbound::ContractViolation);
}

TEST(IntegratedTau, MatchesAr1ClosedForm) {
  for (const double phi : {0.0, 0.5, 0.8}) {
    const auto series = ar1(phi, 400000, 6);
    const double expected = (1.0 + phi) / (1.0 - phi);
    EXPECT_NEAR(integrated_autocorrelation_time(series), expected,
                expected * 0.2 + 0.2)
        << "phi=" << phi;
  }
}

TEST(IntegratedTau, ConstantSeriesIsOne) {
  const std::vector<double> flat(100, 3.5);
  EXPECT_EQ(integrated_autocorrelation_time(flat), 1.0);
}

}  // namespace
}  // namespace neatbound::stats
