#include "sim/engine.hpp"

#include <gtest/gtest.h>
#include <memory>

#include "block_records.hpp"
#include "chains/convergence.hpp"
#include "honest_series.hpp"
#include "reference_engine.hpp"
#include "sim/strategies.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.miner_count = 20;
  config.adversary_fraction = 0.0;
  config.p = 0.002;  // ≈ 0.04 blocks/round from 20 miners
  config.delta = 3;
  config.rounds = 4000;
  config.seed = 42;
  return config;
}

using reference::run_with_series;
using reference::SeriesRun;

TEST(Engine, RunsAndCountsBlocks) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const SeriesRun run = run_with_series(engine);
  const RunResult& result = run.result;
  EXPECT_EQ(run.honest_mined.size(), 4000u);
  std::uint64_t total = 0;
  for (const auto c : run.honest_mined) total += c;
  EXPECT_EQ(total, result.honest_blocks_total);
  EXPECT_GT(result.honest_blocks_total, 0u);
  EXPECT_EQ(result.adversary_blocks_total, 0u);
  // Store holds genesis + every mined block.
  EXPECT_EQ(result.store_size, result.honest_blocks_total + 1);
}

TEST(Engine, ConvergenceCountMatchesOfflineRecount) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const SeriesRun run = run_with_series(engine);
  EXPECT_EQ(run.result.convergence_opportunities,
            chains::count_convergence_opportunities(run.honest_mined,
                                                    small_config().delta));
  EXPECT_GT(run.result.convergence_opportunities, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  ExecutionEngine a(small_config(), std::make_unique<NullAdversary>());
  ExecutionEngine b(small_config(), std::make_unique<NullAdversary>());
  const SeriesRun sa = run_with_series(a);
  const SeriesRun sb = run_with_series(b);
  const RunResult& ra = sa.result;
  const RunResult& rb = sb.result;
  EXPECT_EQ(ra.honest_blocks_total, rb.honest_blocks_total);
  EXPECT_EQ(sa.honest_mined, sb.honest_mined);
  EXPECT_EQ(ra.convergence_opportunities, rb.convergence_opportunities);
  EXPECT_EQ(ra.chain.best_height, rb.chain.best_height);
}

TEST(Engine, DifferentSeedsDiffer) {
  EngineConfig other = small_config();
  other.seed = 43;
  ExecutionEngine a(small_config(), std::make_unique<NullAdversary>());
  ExecutionEngine b(other, std::make_unique<NullAdversary>());
  EXPECT_NE(run_with_series(a).honest_mined, run_with_series(b).honest_mined);
}

TEST(Engine, RunTwiceForbidden) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  (void)engine.run();
  EXPECT_THROW((void)engine.run(), ContractViolation);
}

TEST(Engine, HonestOnlyViewsConvergeEventually) {
  // With no adversary and immediate delivery, after a convergence
  // opportunity all honest tips agree; the divergence metric stays tiny.
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  // Same-round forks can still happen (two miners mine simultaneously),
  // but they resolve within a block or two.
  EXPECT_LE(result.violation_depth, 3u);
}

TEST(Engine, MaxDelayStillConsistentWhenQuiet) {
  // Max-delay benign adversary: consistency violations stay shallow when
  // c is large (few simultaneous blocks).
  EngineConfig config = small_config();
  config.p = 0.0005;  // c = 1/(p·n·Δ) ≈ 33
  ExecutionEngine engine(config,
                         std::make_unique<MaxDelayAdversary>(config.delta));
  const RunResult result = engine.run();
  EXPECT_LE(result.violation_depth, 3u);
  EXPECT_GT(result.chain.best_height, 0u);
}

TEST(Engine, AgreementAtConvergenceOpportunities) {
  // Protocol-level ground truth for the paper's Lemma 1 intuition: run
  // with the worst benign delivery (max delay), then confirm that at the
  // END of every convergence-opportunity pattern all honest tips agree.
  // We verify a necessary consequence: the best chain's height advanced
  // at least once per opportunity (each opportunity appends a new agreed
  // block), so height ≥ #opportunities.
  EngineConfig config = small_config();
  ExecutionEngine engine(config,
                         std::make_unique<MaxDelayAdversary>(config.delta));
  const RunResult result = engine.run();
  EXPECT_GE(result.chain.best_height, result.convergence_opportunities);
}

TEST(Engine, FinalChainValidates) {
  // The store keeps no proof of work, so the chain is validated on the
  // reference model's whole records, which the store must equal block for
  // block.
  EngineConfig config = small_config();
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  (void)engine.run();
  const reference::ReferenceRun model =
      reference::run_reference(config, std::make_unique<NullAdversary>());
  EXPECT_EQ(reference::store_mismatch(engine.store(), model.blocks), "");
  const auto report = reference::validate_chain(
      model.blocks, engine.best_honest_tip(), engine.oracle());
  EXPECT_TRUE(report.valid) << report.failure;
}

TEST(Engine, ChainGrowthMatchesTheoryForNullAdversary) {
  // With d = 1 delivery the longest chain grows by ≥1 whenever some honest
  // miner succeeds; growth/round ≈ α/(1+something small).  Just check the
  // order of magnitude against α.
  EngineConfig config = small_config();
  config.rounds = 20000;
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  const double alpha = 1.0 - std::pow(1.0 - config.p, 20.0);
  EXPECT_NEAR(result.chain.growth_per_round, alpha, alpha * 0.15);
}

TEST(Engine, QualityIsOneWithoutAdversary) {
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  EXPECT_DOUBLE_EQ(result.chain.quality, 1.0);
  EXPECT_EQ(result.chain.adversary_blocks_in_chain, 0u);
}

TEST(Engine, ConfigValidation) {
  EngineConfig config = small_config();
  config.miner_count = 3;
  EXPECT_THROW(
      ExecutionEngine(config, std::make_unique<NullAdversary>()),
      ContractViolation);
  config = small_config();
  config.adversary_fraction = 0.5;
  EXPECT_THROW(
      ExecutionEngine(config, std::make_unique<NullAdversary>()),
      ContractViolation);
  config = small_config();
  EXPECT_THROW(ExecutionEngine(config, nullptr), ContractViolation);
}

TEST(Engine, HonestBlockRateMatchesBinomialMean) {
  EngineConfig config = small_config();
  config.rounds = 30000;
  ExecutionEngine engine(config, std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  const double expected =
      static_cast<double>(config.rounds) * 20.0 * config.p;
  const double observed = static_cast<double>(result.honest_blocks_total);
  // sd ≈ sqrt(expected); allow 5σ.
  EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected));
}

TEST(Engine, AdversaryMinesAtExpectedRate) {
  EngineConfig config = small_config();
  config.adversary_fraction = 0.3;  // 6 of 20 miners
  config.rounds = 30000;
  ExecutionEngine engine(config,
                         std::make_unique<PrivateWithholdAdversary>());
  const RunResult result = engine.run();
  const double expected =
      static_cast<double>(config.rounds) * 6.0 * config.p;
  EXPECT_NEAR(static_cast<double>(result.adversary_blocks_total), expected,
              5.0 * std::sqrt(expected));
  // Honest miners are now 14.
  const double expected_honest =
      static_cast<double>(config.rounds) * 14.0 * config.p;
  EXPECT_NEAR(static_cast<double>(result.honest_blocks_total),
              expected_honest, 5.0 * std::sqrt(expected_honest));
}

/// Mines a chain on its own tip and publishes every block to all honest
/// players.  With `batched`, the first half of each round's budget goes
/// through one mine_run call and the rest through mine_on; otherwise every
/// query is a mine_on call.
class ChainPublisher final : public Adversary {
 public:
  explicit ChainPublisher(bool batched) : batched_(batched) {}
  std::uint64_t honest_delay(std::uint64_t, std::uint32_t, std::uint32_t,
                             protocol::BlockIndex) override {
    return 1;
  }
  void act(AdversaryOps& ops) override {
    if (ops.store().height_of(ops.best_honest_tip()) >
        ops.store().height_of(tip_)) {
      tip_ = ops.best_honest_tip();
    }
    if (batched_) {
      for (const protocol::BlockIndex b :
           ops.mine_run(tip_, ops.remaining_queries() / 2)) {
        ops.publish_to_all(b, 1);
        tip_ = b;
      }
    }
    while (ops.remaining_queries() > 0) {
      if (const auto mined = ops.mine_on(tip_)) {
        ops.publish_to_all(*mined, 1);
        tip_ = *mined;
      }
    }
  }
  [[nodiscard]] const char* name() const override { return "chain-publisher"; }

 private:
  bool batched_;
  protocol::BlockIndex tip_ = protocol::kGenesisIndex;
};

EngineConfig adversarial_config() {
  EngineConfig config = small_config();
  config.adversary_fraction = 0.4;  // 8 queries per round
  config.p = 0.02;
  config.rounds = 1500;
  return config;
}

TEST(Engine, MineRunMatchesMineOnQueries) {
  ExecutionEngine one_by_one(adversarial_config(),
                             std::make_unique<ChainPublisher>(false));
  ExecutionEngine batched(adversarial_config(),
                          std::make_unique<ChainPublisher>(true));
  const SeriesRun sa = run_with_series(one_by_one);
  const SeriesRun sb = run_with_series(batched);
  const RunResult& a = sa.result;
  const RunResult& b = sb.result;
  ASSERT_GT(a.adversary_blocks_total, 20u);
  EXPECT_EQ(a.adversary_blocks_total, b.adversary_blocks_total);
  EXPECT_EQ(sa.honest_mined, sb.honest_mined);
  EXPECT_EQ(a.violation_depth, b.violation_depth);
  ASSERT_EQ(one_by_one.store().size(), batched.store().size());
  for (protocol::BlockIndex i = 0; i < one_by_one.store().size(); ++i) {
    EXPECT_EQ(one_by_one.store().hash_of(i), batched.store().hash_of(i)) << i;
  }
}

std::uint64_t scheduled_runs(const RunResult& result) {
  return result.telemetry.counters[static_cast<std::size_t>(
      telemetry::Counter::kCalendarScheduled)];
}

TEST(Engine, CalendarHoldsOneRunPerBroadcastHalf) {
  // With one delay for every recipient, an honest broadcast is the run
  // below its sender plus the run above it (one run for an edge sender).
  ExecutionEngine engine(small_config(), std::make_unique<NullAdversary>());
  const RunResult result = engine.run();
  const std::uint32_t last = engine.honest_count() - 1;
  std::uint64_t expected = 0;
  for (protocol::BlockIndex b = 1; b < engine.store().size(); ++b) {
    const std::uint32_t sender = engine.store().miner_of(b);
    expected += sender == 0 || sender == last ? 1 : 2;
  }
  ASSERT_GT(expected, 50u);
  EXPECT_EQ(scheduled_runs(result), expected);
}

TEST(Engine, CalendarHoldsOneRunPerPublicationToAll) {
  // Each adversary block is one publish_to_all run plus one echo run.
  ExecutionEngine engine(adversarial_config(),
                         std::make_unique<ChainPublisher>(false));
  const RunResult result = engine.run();
  const std::uint32_t last = engine.honest_count() - 1;
  std::uint64_t expected = 0;
  for (protocol::BlockIndex b = 1; b < engine.store().size(); ++b) {
    if (engine.store().miner_class_of(b) ==
        protocol::MinerClass::kAdversary) {
      expected += 2;
      continue;
    }
    const std::uint32_t sender = engine.store().miner_of(b);
    expected += sender == 0 || sender == last ? 1 : 2;
  }
  ASSERT_GT(result.adversary_blocks_total, 20u);
  EXPECT_EQ(scheduled_runs(result), expected);
}

/// Publishes a block index that does not exist on its first turn: one
/// past the store (which used to be accepted silently and never
/// delivered) or the largest index (whose echo bookkeeping wrapped to an
/// out-of-bounds write), through either publication call.
class BadPublisher final : public Adversary {
 public:
  BadPublisher(bool past_end, bool to_all)
      : past_end_(past_end), to_all_(to_all) {}
  std::uint64_t honest_delay(std::uint64_t, std::uint32_t, std::uint32_t,
                             protocol::BlockIndex) override {
    return 1;
  }
  void act(AdversaryOps& ops) override {
    const auto block =
        past_end_ ? static_cast<protocol::BlockIndex>(ops.store().size())
                  : ~protocol::BlockIndex{0};
    if (to_all_) {
      ops.publish_to_all(block, 1);
    } else {
      ops.publish_to(0, block, 1);
    }
  }
  [[nodiscard]] const char* name() const override { return "bad-publisher"; }

 private:
  bool past_end_;
  bool to_all_;
};

TEST(Engine, PublishToRejectsUnknownBlock) {
  for (const bool past_end : {true, false}) {
    ExecutionEngine engine(adversarial_config(),
                           std::make_unique<BadPublisher>(past_end, false));
    EXPECT_THROW((void)engine.run(), ContractViolation) << past_end;
  }
}

TEST(Engine, PublishToAllRejectsUnknownBlock) {
  for (const bool past_end : {true, false}) {
    ExecutionEngine engine(adversarial_config(),
                           std::make_unique<BadPublisher>(past_end, true));
    EXPECT_THROW((void)engine.run(), ContractViolation) << past_end;
  }
}

}  // namespace
}  // namespace neatbound::sim
