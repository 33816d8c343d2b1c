// The execution engine's counting processes against their exact laws.
//
// Over 2,000 fixed seeds at one small cell, each run's convergence-
// opportunity count C must follow the exact law of C from genesis
// (chains::convergence_opportunity_law) and its adversary block count A
// must follow Binomial(νnT, p) (Eq. 27), as its honest block count must
// follow Binomial(μnT, p).  Each fit is a chi-square test
// over bins of expected count ≥ 5 plus a z-test on the mean, both at a
// ~1e-5 false-alarm level; the seeds are fixed, so the verdict is
// deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "chains/convergence.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"
#include "stats/distributions.hpp"

namespace neatbound {
namespace {

constexpr std::uint32_t kSeeds = 2000;
constexpr double kZ = 4.26;  // one-sided normal quantile at ~1e-5

struct Counts {
  std::vector<std::uint64_t> c;
  std::vector<std::uint64_t> a;
  std::vector<std::uint64_t> honest;
};

sim::EngineConfig cell() {
  sim::EngineConfig config;
  config.miner_count = 20;
  config.adversary_fraction = 0.25;
  config.delta = 2;
  config.p = 0.01;
  config.rounds = 1000;
  return config;
}

const Counts& engine_counts() {
  static const Counts counts = [] {
    Counts out;
    for (std::uint32_t k = 0; k < kSeeds; ++k) {
      sim::EngineConfig config = cell();
      config.seed = 1 + k;
      sim::ExecutionEngine engine(
          config, std::make_unique<sim::PrivateWithholdAdversary>());
      const sim::RunResult result = engine.run();
      out.c.push_back(result.convergence_opportunities);
      out.a.push_back(result.adversary_blocks_total);
      out.honest.push_back(result.honest_blocks_total);
    }
    return out;
  }();
  return counts;
}

struct Fit {
  double chi2 = 0.0;
  double chi2_limit = 0.0;  ///< Wilson–Hilferty quantile at kZ
  double mean_z = 0.0;
};

/// Chi-square of `samples` against `pmf` (pmf[k] = P[X = k]) over bins
/// merged left to right until each expects ≥ 5 samples, plus the z-score
/// of the sample mean against the pmf's mean.
Fit fit(const std::vector<std::uint64_t>& samples,
        const std::vector<double>& pmf) {
  const double n = static_cast<double>(samples.size());
  std::vector<double> observed(pmf.size() + 1, 0.0);
  for (const std::uint64_t x : samples) {
    ++observed[std::min<std::size_t>(x, pmf.size())];  // last bin: overflow
  }
  double mean = 0.0, second = 0.0, mass = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    mean += static_cast<double>(k) * pmf[k];
    second += static_cast<double>(k * k) * pmf[k];
    mass += pmf[k];
  }
  std::vector<double> expected(pmf.begin(), pmf.end());
  expected.push_back(std::max(0.0, 1.0 - mass));
  for (double& e : expected) e *= n;

  Fit out;
  double bin_obs = 0.0, bin_exp = 0.0;
  std::size_t bins = 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    bin_obs += observed[k];
    bin_exp += expected[k];
    const bool last = k + 1 == expected.size();
    if (bin_exp >= 5.0 || last) {
      if (bin_exp > 0.0) {
        out.chi2 += (bin_obs - bin_exp) * (bin_obs - bin_exp) / bin_exp;
        ++bins;
      }
      bin_obs = bin_exp = 0.0;
    }
  }
  const double df = static_cast<double>(bins - 1);
  const double h = 2.0 / (9.0 * df);
  out.chi2_limit = df * std::pow(1.0 - h + kZ * std::sqrt(h), 3.0);

  double sample_mean = 0.0;
  for (const std::uint64_t x : samples) sample_mean += static_cast<double>(x);
  sample_mean /= n;
  const double sd = std::sqrt(second - mean * mean);
  out.mean_z = (sample_mean - mean) / (sd / std::sqrt(n));
  return out;
}

TEST(EngineVsLaw, ConvergenceOpportunitiesFollowTheExactLaw) {
  const sim::EngineConfig config = cell();
  const chains::DetailedStateModel model{
      .honest_trials = static_cast<double>(sim::honest_miner_count(config)),
      .p = config.p};
  const chains::OpportunityLaw law =
      chains::convergence_opportunity_law(model, config.delta, config.rounds);
  std::vector<double> pmf(law.first, 0.0);
  pmf.insert(pmf.end(), law.pmf.begin(), law.pmf.end());
  const Fit result = fit(engine_counts().c, pmf);
  EXPECT_LT(result.chi2, result.chi2_limit);
  EXPECT_LT(std::fabs(result.mean_z), kZ) << "mean z " << result.mean_z;
}

/// Binomial(trials, p) out to mean + 10 sd; the rest is the overflow bin.
std::vector<double> binomial_pmf(double trials, double p) {
  const stats::Binomial law(trials, p);
  const auto top = static_cast<std::size_t>(
      law.mean() + 10.0 * std::sqrt(law.variance()));
  std::vector<double> pmf;
  for (std::size_t k = 0; k <= top; ++k) {
    pmf.push_back(law.pmf(static_cast<double>(k)).linear());
  }
  return pmf;
}

TEST(EngineVsLaw, BlockCountsFollowTheBinomials) {
  const sim::EngineConfig config = cell();
  const double rounds = static_cast<double>(config.rounds);
  const double honest = static_cast<double>(sim::honest_miner_count(config));
  const double corrupted = config.miner_count - honest;
  const Fit adversary =
      fit(engine_counts().a, binomial_pmf(rounds * corrupted, config.p));
  EXPECT_LT(adversary.chi2, adversary.chi2_limit);
  EXPECT_LT(std::fabs(adversary.mean_z), kZ) << "mean z " << adversary.mean_z;
  const Fit mined =
      fit(engine_counts().honest, binomial_pmf(rounds * honest, config.p));
  EXPECT_LT(mined.chi2, mined.chi2_limit);
  EXPECT_LT(std::fabs(mined.mean_z), kZ) << "mean z " << mined.mean_z;
}

}  // namespace
}  // namespace neatbound
