// Cross-product property sweep: every adversary strategy × a grid of
// engine configurations, asserting the universal invariants that must
// hold regardless of strategy or parameters.
#include <algorithm>
#include <gtest/gtest.h>

#include "block_records.hpp"
#include "chains/convergence.hpp"
#include "honest_series.hpp"
#include "reference_engine.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"

namespace neatbound::sim {
namespace {

struct SweepCase {
  const char* strategy;  ///< built-in registry strategy name
  std::uint32_t miners;
  double nu;
  std::uint64_t delta;
  double p;
};

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, UniversalInvariants) {
  const auto [strategy, miners, nu, delta, p] = GetParam();
  EngineConfig config;
  config.miner_count = miners;
  config.adversary_fraction = nu;
  config.delta = delta;
  config.p = p;
  config.rounds = 4000;
  config.seed = 1234;
  const auto make = [&] {
    return scenario::ScenarioRegistry::builtin().make_adversary(
        "strategy", scenario::Params{}, strategy, scenario::Params{}, config);
  };
  ExecutionEngine engine(config, make());
  const reference::SeriesRun run = reference::run_with_series(engine);
  const RunResult& result = run.result;

  // Counting identities.
  EXPECT_EQ(run.honest_mined.size(), config.rounds);
  std::uint64_t sum = 0;
  for (const auto c : run.honest_mined) sum += c;
  EXPECT_EQ(sum, result.honest_blocks_total);
  EXPECT_EQ(result.store_size,
            1 + result.honest_blocks_total + result.adversary_blocks_total);

  // Convergence opportunities are recountable from the trace.
  EXPECT_EQ(result.convergence_opportunities,
            chains::count_convergence_opportunities(run.honest_mined, delta));

  // The chain the network agrees on is valid and at least as high as the
  // count of convergence opportunities (each adds one agreed block).  The
  // store keeps no proof of work: it must equal the reference model's
  // whole records block for block, and the chain validates on those.
  const reference::ReferenceRun model =
      reference::run_reference(config, make());
  EXPECT_EQ(reference::store_mismatch(engine.store(), model.blocks), "");
  const auto report = reference::validate_chain(
      model.blocks, engine.best_honest_tip(), engine.oracle());
  EXPECT_TRUE(report.valid) << report.failure;
  EXPECT_GE(engine.store().height_of(engine.best_honest_tip()),
            result.convergence_opportunities);

  // Metrics are internally consistent.
  EXPECT_EQ(result.violation_depth,
            std::max(result.max_reorg_depth, result.max_divergence));
  EXPECT_GE(result.chain.quality, 0.0);
  EXPECT_LE(result.chain.quality, 1.0);
  EXPECT_EQ(result.chain.best_height,
            result.chain.honest_blocks_in_chain +
                result.chain.adversary_blocks_in_chain);

  // DAG accounting closes.
  const DagMetrics dag =
      measure_dag(engine.store(), engine.best_honest_tip());
  EXPECT_EQ(dag.total_blocks,
            result.honest_blocks_total + result.adversary_blocks_total);
  EXPECT_GE(dag.max_height, result.chain.best_height);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineSweep,
    ::testing::Values(
        SweepCase{"null", 8, 0.25, 1, 0.02},
        SweepCase{"null", 64, 0.1, 8, 0.0005},
        SweepCase{"max-delay", 16, 0.3, 2, 0.01},
        SweepCase{"max-delay", 40, 0.45, 6, 0.002},
        SweepCase{"private-withhold", 16, 0.4, 1, 0.02},
        SweepCase{"private-withhold", 48, 0.2, 4, 0.001},
        SweepCase{"balance-attack", 12, 0.3, 2, 0.01},
        SweepCase{"balance-attack", 40, 0.45, 8, 0.004},
        SweepCase{"selfish-mining", 16, 0.35, 2, 0.005},
        SweepCase{"selfish-mining", 32, 0.15, 4, 0.002},
        // Degenerate-ish corners: minimum miners, single-round delta,
        // heavy per-round block rate.
        SweepCase{"null", 4, 0.25, 1, 0.2},
        SweepCase{"private-withhold", 4, 0.25, 2, 0.1},
        SweepCase{"max-delay", 100, 0.49, 3, 0.01}));

}  // namespace
}  // namespace neatbound::sim
