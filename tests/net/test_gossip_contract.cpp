// Engine-level network contracts:
//   * gossip-echo Δ-bound — any chain held by one honest player at round r
//     is height-dominated by every honest player's chain at r + Δ, even
//     when the adversary publishes to a single victim only;
//   * engine-side clamping — out-of-range adversary delays (0, or far
//     beyond Δ) behave exactly like the nearest legal delay.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "honest_series.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"

namespace neatbound::sim {
namespace {

/// Mines a private chain and leaks every block to honest miner 0 only,
/// with the minimum delay; honest traffic is delayed far out of range.
/// The gossip echo is the only mechanism spreading the leaked blocks.
class SingleVictimAdversary final : public Adversary {
 public:
  std::uint64_t honest_delay(std::uint64_t, std::uint32_t, std::uint32_t,
                             protocol::BlockIndex) override {
    return 1000000;  // far out of range; engine must clamp to Δ
  }
  void act(AdversaryOps& ops) override {
    while (ops.remaining_queries() > 0) {
      if (const auto mined = ops.mine_on(tip_)) {
        tip_ = *mined;
        ops.publish_to(0, *mined, 1);
      }
    }
  }
  const char* name() const override { return "single-victim"; }

 private:
  protocol::BlockIndex tip_ = protocol::kGenesisIndex;
};

TEST(GossipEcho, DeltaBoundsHonestHeightDivergence) {
  EngineConfig config;
  config.miner_count = 20;
  config.adversary_fraction = 0.4;  // busy adversary: many leaked blocks
  config.p = 0.01;
  config.delta = 5;
  config.rounds = 4000;
  config.seed = 17;

  // Per-round min/max honest tip heights, indexed by round (1-based).
  std::vector<std::uint64_t> min_height(config.rounds + 1, 0);
  std::vector<std::uint64_t> max_height(config.rounds + 1, 0);
  const auto observer = [&](const ExecutionEngine& engine,
                            std::uint64_t round) {
    const auto& store = engine.store();
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const auto tip : engine.honest_tips()) {
      const std::uint64_t h = store.height_of(tip);
      lo = std::min(lo, h);
      hi = std::max(hi, h);
    }
    min_height[round] = lo;
    max_height[round] = hi;
  };

  ExecutionEngine engine(config, std::make_unique<SingleVictimAdversary>());
  (void)engine.run(observer);

  // The Δ-bound: whatever chain one honest player held at r, all honest
  // players hold at least that height by r + Δ — the gossip echo has
  // delivered every block of that chain to everyone within Δ of its first
  // honest receipt.
  for (std::uint64_t round = 1; round + config.delta <= config.rounds;
       ++round) {
    ASSERT_GE(min_height[round + config.delta], max_height[round])
        << "round " << round;
  }
}

/// Delays only; the corrupted miners never act (fraction 0 below).
class FixedReplyDelay final : public Adversary {
 public:
  explicit FixedReplyDelay(std::uint64_t reply) : reply_(reply) {}
  std::uint64_t honest_delay(std::uint64_t, std::uint32_t, std::uint32_t,
                             protocol::BlockIndex) override {
    return reply_;
  }
  void act(AdversaryOps&) override {}
  const char* name() const override { return "fixed-reply"; }

 private:
  std::uint64_t reply_;
};

reference::SeriesRun run_with_delay(std::uint64_t reply, std::uint64_t delta) {
  EngineConfig config;
  config.miner_count = 12;
  config.adversary_fraction = 0.0;
  config.p = 0.004;
  config.delta = delta;
  config.rounds = 3000;
  config.seed = 23;
  ExecutionEngine engine(config, std::make_unique<FixedReplyDelay>(reply));
  return reference::run_with_series(engine);
}

void expect_identical(const reference::SeriesRun& a_run,
                      const reference::SeriesRun& b_run) {
  EXPECT_EQ(a_run.honest_mined, b_run.honest_mined);
  const RunResult& a = a_run.result;
  const RunResult& b = b_run.result;
  EXPECT_EQ(a.honest_blocks_total, b.honest_blocks_total);
  EXPECT_EQ(a.adversary_blocks_total, b.adversary_blocks_total);
  EXPECT_EQ(a.convergence_opportunities, b.convergence_opportunities);
  EXPECT_EQ(a.max_reorg_depth, b.max_reorg_depth);
  EXPECT_EQ(a.max_divergence, b.max_divergence);
  EXPECT_EQ(a.disagreement_rounds, b.disagreement_rounds);
  EXPECT_EQ(a.violation_depth, b.violation_depth);
  EXPECT_EQ(a.store_size, b.store_size);
  EXPECT_EQ(a.chain.best_height, b.chain.best_height);
}

TEST(EngineClamping, HugeDelayBehavesExactlyLikeDelta) {
  const std::uint64_t delta = 4;
  expect_identical(run_with_delay(~0ULL, delta),
                   run_with_delay(delta, delta));
  expect_identical(run_with_delay(delta + 1, delta),
                   run_with_delay(delta, delta));
}

TEST(EngineClamping, ZeroDelayBehavesExactlyLikeOne) {
  const std::uint64_t delta = 4;
  expect_identical(run_with_delay(0, delta), run_with_delay(1, delta));
}

}  // namespace
}  // namespace neatbound::sim
