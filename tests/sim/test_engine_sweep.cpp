// Cross-product property sweep: every adversary strategy × a grid of
// engine configurations, asserting the universal invariants that must
// hold regardless of strategy or parameters.
#include <cmath>
#include <gtest/gtest.h>

#include "chains/convergence.hpp"
#include "protocol/validation.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"

namespace neatbound::sim {
namespace {

struct SweepCase {
  AdversaryKind kind;
  std::uint32_t miners;
  double nu;
  std::uint64_t delta;
  double p;
};

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, UniversalInvariants) {
  const auto [kind, miners, nu, delta, p] = GetParam();
  EngineConfig config;
  config.miner_count = miners;
  config.adversary_fraction = nu;
  config.delta = delta;
  config.p = p;
  config.rounds = 4000;
  config.seed = 1234;
  const auto corrupted =
      static_cast<std::uint32_t>(std::llround(nu * miners));
  ExecutionEngine engine(
      config, make_adversary(kind, miners - corrupted, delta));
  const RunResult result = engine.run();

  // Counting identities.
  EXPECT_EQ(result.honest_counts.size(), config.rounds);
  std::uint64_t sum = 0;
  for (const auto c : result.honest_counts) sum += c;
  EXPECT_EQ(sum, result.honest_blocks_total);
  EXPECT_EQ(result.store_size,
            1 + result.honest_blocks_total + result.adversary_blocks_total);

  // Convergence opportunities are recountable from the trace.
  EXPECT_EQ(result.convergence_opportunities,
            chains::count_convergence_opportunities(result.honest_counts,
                                                    delta));

  // The chain the network agrees on is valid and at least as high as the
  // count of convergence opportunities (each adds one agreed block).
  const auto report = protocol::validate_chain(
      engine.store(), engine.best_honest_tip(), engine.oracle());
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
        SweepCase{AdversaryKind::kNull, 8, 0.25, 1, 0.02},
        SweepCase{AdversaryKind::kNull, 64, 0.1, 8, 0.0005},
        SweepCase{AdversaryKind::kMaxDelay, 16, 0.3, 2, 0.01},
        SweepCase{AdversaryKind::kMaxDelay, 40, 0.45, 6, 0.002},
        SweepCase{AdversaryKind::kPrivateWithhold, 16, 0.4, 1, 0.02},
        SweepCase{AdversaryKind::kPrivateWithhold, 48, 0.2, 4, 0.001},
        SweepCase{AdversaryKind::kBalanceAttack, 12, 0.3, 2, 0.01},
        SweepCase{AdversaryKind::kBalanceAttack, 40, 0.45, 8, 0.004},
        SweepCase{AdversaryKind::kSelfishMining, 16, 0.35, 2, 0.005},
        SweepCase{AdversaryKind::kSelfishMining, 32, 0.15, 4, 0.002},
        // Degenerate-ish corners: minimum miners, single-round delta,
        // heavy per-round block rate.
        SweepCase{AdversaryKind::kNull, 4, 0.25, 1, 0.2},
        SweepCase{AdversaryKind::kPrivateWithhold, 4, 0.25, 2, 0.1},
        SweepCase{AdversaryKind::kMaxDelay, 100, 0.49, 3, 0.01}));

}  // namespace
}  // namespace neatbound::sim
