#include <cmath>
#include <gtest/gtest.h>

#include "chains/convergence.hpp"
#include "sim/aggregate.hpp"
#include "sim/runner.hpp"
#include "sim/strategies.hpp"
#include "support/contracts.hpp"

namespace neatbound::sim {
namespace {

/// Each round's honest block count, collected from the trace stream.
struct HonestCounts final : RoundTraceSink {
  std::vector<std::uint32_t> counts;
  void on_round(const RoundRecord& record) override {
    counts.push_back(record.honest_mined);
  }
};

AggregateConfig base_config() {
  AggregateConfig config;
  config.honest_trials = 150;
  config.adversary_trials = 50;
  config.p = 0.001;
  config.delta = 4;
  config.rounds = 100000;
  config.seed = 21;
  return config;
}

TEST(Aggregate, OnlineCounterMatchesOfflineRecount) {
  // The online opportunity counter must agree exactly with the offline
  // pattern scan on the same trace.
  HonestCounts trace;
  const AggregateResult result = run_aggregate_traced(base_config(), trace);
  EXPECT_EQ(trace.counts.size(), base_config().rounds);
  EXPECT_EQ(result.convergence_opportunities,
            chains::count_convergence_opportunities(trace.counts,
                                                    base_config().delta));
}

TEST(Aggregate, Deterministic) {
  const AggregateResult a = run_aggregate(base_config());
  const AggregateResult b = run_aggregate(base_config());
  EXPECT_EQ(a.honest_blocks, b.honest_blocks);
  EXPECT_EQ(a.adversary_blocks, b.adversary_blocks);
  EXPECT_EQ(a.convergence_opportunities, b.convergence_opportunities);
}

TEST(Aggregate, HonestBlockMeanMatchesBinomial) {
  const AggregateResult result = run_aggregate(base_config());
  const double expected = 150.0 * 0.001 * 100000.0;  // 15000
  EXPECT_NEAR(static_cast<double>(result.honest_blocks), expected,
              5.0 * std::sqrt(expected));
}

TEST(Aggregate, AdversaryBlockMeanMatchesEq27) {
  // E[A] = T·p·νn (Eq. 27).
  const AggregateResult result = run_aggregate(base_config());
  const double expected = 50.0 * 0.001 * 100000.0;  // 5000
  EXPECT_NEAR(static_cast<double>(result.adversary_blocks), expected,
              5.0 * std::sqrt(expected));
}

TEST(Aggregate, ConvergenceRateMatchesEq26) {
  // Empirical count across seeds vs T·ᾱ^{2Δ}α₁, 5σ band.
  AggregateConfig config = base_config();
  config.rounds = 200000;
  const double abar = std::pow(1.0 - config.p, config.honest_trials);
  const double alpha1 = config.p * config.honest_trials *
                        std::pow(1.0 - config.p, config.honest_trials - 1);
  const double rate = std::pow(abar, 2.0 * 4.0) * alpha1;
  const double expected = rate * static_cast<double>(config.rounds);

  double total = 0.0;
  const int seeds = 16;
  for (int k = 0; k < seeds; ++k) {
    config.seed = 1000 + static_cast<std::uint64_t>(k);
    total += static_cast<double>(
        run_aggregate(config).convergence_opportunities);
  }
  const double mean = total / seeds;
  // Counts are nearly Poisson; sd of the mean ≈ sqrt(expected/seeds).
  EXPECT_NEAR(mean, expected, 5.0 * std::sqrt(expected / seeds));
}

TEST(Aggregate, H1RoundsMatchAlpha1) {
  const AggregateResult result = run_aggregate(base_config());
  const double alpha1 = 0.001 * 150.0 * std::pow(0.999, 149.0);
  const double expected = alpha1 * 100000.0;
  EXPECT_NEAR(static_cast<double>(result.h1_rounds), expected,
              5.0 * std::sqrt(expected));
}

TEST(Aggregate, HRoundsMatchAlpha) {
  const AggregateResult result = run_aggregate(base_config());
  const double alpha = 1.0 - std::pow(0.999, 150.0);
  const double expected = alpha * 100000.0;
  EXPECT_NEAR(static_cast<double>(result.h_rounds), expected,
              5.0 * std::sqrt(expected));
}

TEST(Aggregate, ZeroAdversaryAllowed) {
  AggregateConfig config = base_config();
  config.adversary_trials = 0;
  const AggregateResult result = run_aggregate(config);
  EXPECT_EQ(result.adversary_blocks, 0u);
}

TEST(Aggregate, ConfigValidation) {
  AggregateConfig config = base_config();
  config.p = 0.0;
  EXPECT_THROW((void)run_aggregate(config), ContractViolation);
  config = base_config();
  config.rounds = 0;
  EXPECT_THROW((void)run_aggregate(config), ContractViolation);
  config = base_config();
  config.honest_trials = 0;
  EXPECT_THROW((void)run_aggregate(config), ContractViolation);
}

// --- runner ---------------------------------------------------------------

TEST(Runner, AggregatesAcrossSeeds) {
  ExperimentConfig config;
  config.engine.miner_count = 16;
  config.engine.adversary_fraction = 0.25;
  config.engine.p = 0.003;
  config.engine.delta = 2;
  config.engine.rounds = 3000;
  config.seeds = 5;
  const ExperimentSummary summary =
      run_experiment(config, /*violation_t=*/6, [](const EngineConfig&) {
        return std::make_unique<PrivateWithholdAdversary>();
      });
  EXPECT_EQ(summary.convergence_opportunities.count(), 5u);
  EXPECT_EQ(summary.chain_quality.count(), 5u);
  EXPECT_GT(summary.honest_blocks.mean(), 0.0);
  EXPECT_GE(summary.violation_exceeds_t.mean(), 0.0);
  EXPECT_LE(summary.violation_exceeds_t.mean(), 1.0);
}

TEST(Runner, CustomFactoryReceivesConfig) {
  ExperimentConfig config;
  config.engine.miner_count = 12;
  config.engine.adversary_fraction = 0.25;
  config.engine.p = 0.002;
  config.engine.delta = 2;
  config.engine.rounds = 500;
  config.seeds = 2;
  int calls = 0;
  const ExperimentSummary summary = run_experiment(
      config, 3, [&calls](const EngineConfig& engine_config) {
        ++calls;
        EXPECT_EQ(engine_config.miner_count, 12u);
        return std::make_unique<NullAdversary>();
      });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(summary.adversary_blocks.mean(), 0.0);
}

TEST(Runner, SeedsVaryAcrossRepetitions) {
  ExperimentConfig config;
  config.engine.miner_count = 12;
  config.engine.adversary_fraction = 0.0;
  config.engine.p = 0.01;
  config.engine.delta = 2;
  config.engine.rounds = 2000;
  config.seeds = 6;
  const ExperimentSummary summary =
      run_experiment(config, 3, [](const EngineConfig&) {
        return std::make_unique<NullAdversary>();
      });
  // With six independent seeds the per-run block counts almost surely
  // differ, so the variance is positive.
  EXPECT_GT(summary.honest_blocks.variance(), 0.0);
}

}  // namespace
}  // namespace neatbound::sim
