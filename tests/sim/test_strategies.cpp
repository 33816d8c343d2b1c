#include "sim/strategies.hpp"

#include <gtest/gtest.h>
#include <memory>

#include "sim/engine.hpp"

namespace neatbound::sim {
namespace {

TEST(NullAdversary, ImmediateDelays) {
  NullAdversary adv;
  EXPECT_EQ(adv.honest_delay(0, 0, 1, 0), 1u);
}

TEST(MaxDelayAdversary, FullDelta) {
  MaxDelayAdversary adv(7);
  EXPECT_EQ(adv.honest_delay(0, 0, 1, 0), 7u);
}

TEST(PrivateWithhold, ForcesDeepReorgsWhenStrong) {
  // ν = 0.45 with c ≈ 1.4: the adversary out-mines the honest majority's
  // effective rate often enough to force reorgs ≥ 2 within 30k rounds.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.45;
  config.p = 0.006;
  config.delta = 3;
  config.rounds = 30000;
  config.seed = 7;
  auto adversary = std::make_unique<PrivateWithholdAdversary>();
  const auto* observer = adversary.get();
  ExecutionEngine engine(config, std::move(adversary));
  const RunResult result = engine.run();
  EXPECT_GT(observer->successful_releases(), 0u);
  EXPECT_GE(result.max_reorg_depth, 2u);
  // Adversary blocks end up in honest chains after releases.
  EXPECT_LT(result.chain.quality, 1.0);
}

TEST(PrivateWithhold, HarmlessWhenWeak) {
  // ν = 0.1 with c = 12.5: private forks essentially never overtake.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.1;
  config.p = 0.001;
  config.delta = 2;
  config.rounds = 20000;
  config.seed = 8;
  auto adversary = std::make_unique<PrivateWithholdAdversary>();
  const auto* observer = adversary.get();
  ExecutionEngine engine(config, std::move(adversary));
  const RunResult result = engine.run();
  EXPECT_LE(observer->successful_releases(), 1u);
  EXPECT_LE(result.violation_depth, 4u);
}

TEST(BalanceAttack, SustainsDivergenceWhenFavoured) {
  // PSS Remark 8.5 regime: 1/c > 1/ν − 1/μ.  With ν = 0.4, the RHS is
  // 2.5 − 1.67 = 0.83, so c < 1.2 suffices; use c ≈ 0.63.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.4;
  config.p = 0.01;
  config.delta = 4;
  config.rounds = 8000;
  config.seed = 9;
  ExecutionEngine engine(
      config, std::make_unique<BalanceAttackAdversary>(24, config.delta));
  const RunResult result = engine.run();
  // The attack keeps two chains alive: divergence grows far beyond what a
  // benign run exhibits.
  EXPECT_GE(result.max_divergence, 8u);
  EXPECT_GT(result.disagreement_rounds, config.rounds / 2);
}

TEST(BalanceAttack, CollapsesWhenOutsideRegime) {
  // ν = 0.15 at c ≈ 4.2: 1/c = 0.24 < 1/ν − 1/μ = 5.5 — far outside the
  // attack regime; the two chains merge quickly and stay merged.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.15;
  config.p = 0.0015;
  config.delta = 4;
  config.rounds = 20000;
  config.seed = 10;
  ExecutionEngine engine(
      config, std::make_unique<BalanceAttackAdversary>(34, config.delta));
  const RunResult result = engine.run();
  EXPECT_LE(result.max_divergence, 6u);
}

TEST(SelfishMining, DegradesChainQuality) {
  // ν = 0.4 selfish miner should capture a super-proportional chain share:
  // quality drops clearly below μ = 0.6 plus margin.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.4;
  config.p = 0.002;
  config.delta = 2;
  config.rounds = 60000;
  config.seed = 11;
  ExecutionEngine engine(config, std::make_unique<SelfishMiningAdversary>());
  const RunResult result = engine.run();
  EXPECT_LT(result.chain.quality, 0.60);
  EXPECT_GT(result.chain.adversary_blocks_in_chain, 0u);
}

TEST(SelfishMining, NearHonestShareWhenWeak) {
  // A 10% selfish miner gains little; quality stays near μ = 0.9.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.1;
  config.p = 0.002;
  config.delta = 2;
  config.rounds = 60000;
  config.seed = 12;
  ExecutionEngine engine(config, std::make_unique<SelfishMiningAdversary>());
  const RunResult result = engine.run();
  EXPECT_GT(result.chain.quality, 0.82);
}

TEST(ForkBalancer, SplitsAndSustainsDivergenceWhenFavoured) {
  // Same favourable regime as the balance attack (ν = 0.4, c well below
  // 1/ν − 1/μ): the equivocating balancer must split the network and keep
  // the halves apart for most of the run.
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.4;
  config.p = 0.01;
  config.delta = 4;
  config.rounds = 8000;
  config.seed = 13;
  auto adversary = std::make_unique<ForkBalancerAdversary>(24, config.delta);
  const auto* observer = adversary.get();
  ExecutionEngine engine(config, std::move(adversary));
  const RunResult result = engine.run();
  EXPECT_GT(observer->equivocations(), 0u);
  EXPECT_GE(result.max_divergence, 8u);
  EXPECT_GT(result.disagreement_rounds, config.rounds / 2);
}

TEST(ForkBalancer, DelaysAreGroupLocal) {
  ForkBalancerAdversary adversary(10, 6);
  // Miners [0,5) are group 0, [5,10) group 1.
  EXPECT_EQ(adversary.honest_delay(0, 0, 4, 0), 1u);   // same group
  EXPECT_EQ(adversary.honest_delay(0, 7, 9, 0), 1u);   // same group
  EXPECT_EQ(adversary.honest_delay(0, 0, 5, 0), 6u);   // cross group
  EXPECT_EQ(adversary.honest_delay(0, 9, 4, 0), 6u);   // cross group
}

TEST(DelaySaturate, ForcesReorgsAndKeepsALeadWhenStrong) {
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.45;
  config.p = 0.006;
  config.delta = 3;
  config.rounds = 30000;
  config.seed = 14;
  auto adversary = std::make_unique<DelaySaturatingWithholder>();
  const auto* observer = adversary.get();
  ExecutionEngine engine(config, std::move(adversary));
  const RunResult result = engine.run();
  EXPECT_GT(observer->released_blocks(), 0u);
  EXPECT_GE(result.max_reorg_depth, 1u);
  // Released adversary blocks displace honest ones in the public chain.
  EXPECT_LT(result.chain.quality, 1.0);
}

TEST(DelaySaturate, HarmlessWhenWeak) {
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.1;
  config.p = 0.001;
  config.delta = 2;
  config.rounds = 20000;
  config.seed = 15;
  ExecutionEngine engine(config,
                         std::make_unique<DelaySaturatingWithholder>());
  const RunResult result = engine.run();
  EXPECT_LE(result.violation_depth, 4u);
}

}  // namespace
}  // namespace neatbound::sim
