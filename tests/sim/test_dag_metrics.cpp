#include <cmath>
#include <gtest/gtest.h>
#include <memory>

#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/strategies.hpp"

namespace neatbound::sim {
namespace {

using protocol::Block;
using protocol::BlockIndex;
using protocol::BlockStore;
using protocol::kGenesisIndex;

BlockIndex append(BlockStore& store, BlockIndex parent,
                  protocol::HashValue hash,
                  protocol::MinerClass who = protocol::MinerClass::kHonest) {
  Block b;
  b.hash = hash;
  b.parent = parent;
  b.parent_hash = store.block(parent).hash;
  b.round = store.block(parent).round + 1;
  b.miner_class = who;
  return store.add(std::move(b));
}

TEST(DagMetrics, EmptyStore) {
  const BlockStore store;
  const DagMetrics m = measure_dag(store, kGenesisIndex);
  EXPECT_EQ(m.total_blocks, 0u);
  EXPECT_EQ(m.orphan_rate, 0.0);
}

TEST(DagMetrics, LinearChainHasNoForks) {
  BlockStore store;
  BlockIndex tip = kGenesisIndex;
  for (protocol::HashValue h = 1; h <= 5; ++h) tip = append(store, tip, h);
  const DagMetrics m = measure_dag(store, tip);
  EXPECT_EQ(m.total_blocks, 5u);
  EXPECT_EQ(m.max_height, 5u);
  EXPECT_EQ(m.fork_heights, 0u);
  EXPECT_EQ(m.max_width, 1u);
  EXPECT_EQ(m.honest_off_chain, 0u);
  EXPECT_EQ(m.orphan_rate, 0.0);
}

TEST(DagMetrics, ForkCountsWidthAndOrphans) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, kGenesisIndex, 2);  // fork at height 1
  const BlockIndex a2 = append(store, a, 3);
  (void)append(store, b, 4, protocol::MinerClass::kAdversary);
  const DagMetrics m = measure_dag(store, a2);
  EXPECT_EQ(m.total_blocks, 4u);
  EXPECT_EQ(m.max_height, 2u);
  EXPECT_EQ(m.fork_heights, 2u);  // heights 1 and 2 both have two blocks
  EXPECT_EQ(m.max_width, 2u);
  // Honest blocks: a, b, a2; off chain: b only.
  EXPECT_EQ(m.honest_off_chain, 1u);
  EXPECT_NEAR(m.orphan_rate, 1.0 / 3.0, 1e-12);
}

TEST(DagMetrics, OrphanRateMatchesDeltaTheory) {
  // Under max-delay delivery, honest work is wasted at rate
  // ≈ 1 − g/α where g is the growth rate; check the engine's DAG agrees
  // with its own growth accounting.
  EngineConfig config;
  config.miner_count = 30;
  config.adversary_fraction = 0.0;
  config.p = 0.004;
  config.delta = 6;
  config.rounds = 30000;
  config.seed = 29;
  ExecutionEngine engine(config,
                         std::make_unique<MaxDelayAdversary>(config.delta));
  const RunResult result = engine.run();
  const DagMetrics dag = measure_dag(engine.store(), engine.best_honest_tip());
  // blocks mined = on-chain + off-chain (all honest here).
  EXPECT_EQ(dag.total_blocks, result.honest_blocks_total);
  EXPECT_EQ(dag.honest_off_chain + result.chain.best_height +
                (engine.store().height_of(engine.best_honest_tip()) -
                 result.chain.best_height),
            result.honest_blocks_total);
  // Rate identity: orphan_rate ≈ 1 − growth/ (blocks per round).
  const double blocks_per_round =
      static_cast<double>(result.honest_blocks_total) /
      static_cast<double>(config.rounds);
  const double predicted = 1.0 - result.chain.growth_per_round /
                                     blocks_per_round;
  EXPECT_NEAR(dag.orphan_rate, predicted, 0.02);
  EXPECT_GT(dag.fork_heights, 0u);  // Δ = 6 with busy mining must fork
}

TEST(DagMetrics, QuietNetworkBarelyForks) {
  EngineConfig config;
  config.miner_count = 30;
  config.adversary_fraction = 0.0;
  config.p = 0.0003;  // c large: rarely simultaneous blocks
  config.delta = 2;
  config.rounds = 30000;
  config.seed = 31;
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  (void)engine.run();
  const DagMetrics dag = measure_dag(engine.store(), engine.best_honest_tip());
  EXPECT_LT(dag.orphan_rate, 0.05);
}

}  // namespace
}  // namespace neatbound::sim
