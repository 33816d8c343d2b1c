// End-to-end experiments tying the analytic bounds to protocol-level
// behaviour: above the paper's bound the simulator shows bounded
// violation depth; inside the PSS attack regime the balancing adversary
// keeps honest views split.  These are the repo's "does the theory
// predict the system" tests; they use moderate sizes to stay fast.
#include <cmath>
#include <gtest/gtest.h>
#include <memory>

#include "bounds/frontier.hpp"
#include "bounds/pss.hpp"
#include "bounds/zhao.hpp"
#include "chains/convergence.hpp"
#include "sim/engine.hpp"
#include "sim/runner.hpp"
#include "sim/strategies.hpp"

namespace neatbound {
namespace {

using sim::EngineConfig;
using sim::ExperimentConfig;
using sim::ExperimentSummary;

std::unique_ptr<sim::Adversary> private_withhold(const EngineConfig&) {
  return std::make_unique<sim::PrivateWithholdAdversary>();
}

std::unique_ptr<sim::Adversary> max_delay(const EngineConfig& engine) {
  return std::make_unique<sim::MaxDelayAdversary>(engine.delta);
}

TEST(EndToEnd, SafeRegimeKeepsViolationsShallow) {
  // ν = 0.2, Δ = 3, c = 8: far above the neat bound 2μ/ln(μ/ν) ≈ 1.15.
  ExperimentConfig config;
  config.engine.miner_count = 40;
  config.engine.adversary_fraction = 0.2;
  config.engine.delta = 3;
  config.engine.p = 1.0 / (8.0 * 40.0 * 3.0);
  config.engine.rounds = 20000;
  config.seeds = 4;
  const ExperimentSummary summary =
      sim::run_experiment(config, 8, private_withhold);
  EXPECT_LT(summary.violation_depth.mean(), 8.0);
  EXPECT_EQ(summary.violation_exceeds_t.mean(), 0.0);
}

TEST(EndToEnd, ConvergenceOpportunitiesBeatAdversaryAboveBound) {
  // The operational content of Theorem 1 / Lemma 1: above the bound,
  // C(window) > A(window) with high probability.
  ExperimentConfig config;
  config.engine.miner_count = 40;
  config.engine.adversary_fraction = 0.25;
  config.engine.delta = 2;
  config.engine.p = 1.0 / (6.0 * 40.0 * 2.0);  // c = 6
  config.engine.rounds = 30000;
  config.seeds = 4;
  const ExperimentSummary summary = sim::run_experiment(config, 8, max_delay);
  EXPECT_GT(summary.convergence_opportunities.mean(),
            summary.adversary_blocks.mean());
}

TEST(EndToEnd, AdversaryOutpacesOpportunitiesBelowBound) {
  // Below the bound (c = 0.6 ≪ 2μ/ln(μ/ν) ≈ 1.9 at ν = 1/3) the adversary
  // mines more blocks than there are convergence opportunities — the
  // premise of consistency fails, matching Theorem 1's condition (10)
  // being violated.
  const auto params = bounds::ProtocolParams::from_c(40, 2, 1.0 / 3.0, 0.6);
  ASSERT_LT(bounds::theorem1_margin(params).log(), 0.0);
  ExperimentConfig config;
  config.engine.miner_count = 40;
  config.engine.adversary_fraction = 1.0 / 3.0;
  config.engine.delta = 2;
  config.engine.p = params.p();
  config.engine.rounds = 30000;
  config.seeds = 4;
  const ExperimentSummary summary = sim::run_experiment(config, 8, max_delay);
  EXPECT_LT(summary.convergence_opportunities.mean(),
            summary.adversary_blocks.mean());
}

TEST(EndToEnd, BalanceAttackSucceedsInsideRedRegion) {
  // Inside the PSS attack region (1/c > 1/ν − 1/μ) the balancing
  // adversary keeps divergence growing.
  const double nu = 0.4, c = 0.6;
  ASSERT_TRUE(bounds::pss_attack_applies(nu, c));
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = nu;
  config.delta = 4;
  config.p = 1.0 / (c * 40.0 * 4.0);
  config.rounds = 6000;
  config.seed = 3;
  sim::ExecutionEngine engine(
      config, std::make_unique<sim::BalanceAttackAdversary>(24, config.delta));
  const sim::RunResult result = engine.run();
  EXPECT_GE(result.max_divergence, 10u);
}

TEST(EndToEnd, TheoremOneMarginTracksSimulatedCounts) {
  // The analytic ratio (ᾱ^{2Δ}α₁)/(pνn) should approximate the simulated
  // C/A ratio under max-delay (the adversary mines but never interferes
  // with honest mining patterns).
  const double n = 40, delta = 2, c = 5.0, nu = 0.25;
  const auto params = bounds::ProtocolParams::from_c(n, delta, nu, c);
  const double analytic_ratio = bounds::theorem1_margin(params).linear();

  ExperimentConfig config;
  config.engine.miner_count = 40;
  config.engine.adversary_fraction = nu;
  config.engine.delta = 2;
  config.engine.p = params.p();
  config.engine.rounds = 60000;
  config.seeds = 6;
  const ExperimentSummary summary = sim::run_experiment(config, 8, max_delay);
  const double simulated_ratio = summary.convergence_opportunities.mean() /
                                 summary.adversary_blocks.mean();
  EXPECT_NEAR(simulated_ratio / analytic_ratio, 1.0, 0.25);
}

TEST(EndToEnd, GrowthMatchesAlphaOverOnePlusDeltaAlphaUnderMaxDelay) {
  // Folklore chain-growth heuristic g ≈ α/(1+Δα) for Δ-delayed delivery;
  // our engine should land near it (max-delay, no adversary blocks).
  EngineConfig config;
  config.miner_count = 30;
  config.adversary_fraction = 0.0;
  config.delta = 6;
  config.p = 0.004;  // α ≈ 0.113, Δα ≈ 0.68
  config.rounds = 40000;
  config.seed = 5;
  sim::ExecutionEngine engine(
      config, std::make_unique<sim::MaxDelayAdversary>(config.delta));
  const sim::RunResult result = engine.run();
  const double alpha = 1.0 - std::pow(1.0 - config.p, 30.0);
  const double heuristic = alpha / (1.0 + static_cast<double>(config.delta) * alpha);
  EXPECT_NEAR(result.chain.growth_per_round, heuristic, heuristic * 0.2);
}

TEST(EndToEnd, QualityNearMuMinusAttackGains) {
  // Chain quality under private withholding stays in [1−ν/μ−slack, 1].
  ExperimentConfig config;
  config.engine.miner_count = 40;
  config.engine.adversary_fraction = 0.3;
  config.engine.delta = 2;
  config.engine.p = 0.002;
  config.engine.rounds = 40000;
  config.seeds = 3;
  const ExperimentSummary summary =
      sim::run_experiment(config, 8, private_withhold);
  const double lower = 1.0 - (0.3 / 0.7) - 0.15;
  EXPECT_GT(summary.chain_quality.mean(), lower);
  EXPECT_LE(summary.chain_quality.mean(), 1.0);
}

}  // namespace
}  // namespace neatbound
