// The serial runner: per-seed runs folded into one ExperimentSummary.
#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "sim/strategies.hpp"

namespace neatbound::sim {
namespace {

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
