// The batch delay hook against the per-recipient rule.  The engine reads
// an honest broadcast's delays through one Adversary::honest_delays call;
// every strategy defines its rule in honest_delay, and the reference
// model reads that one recipient at a time.  For every registry strategy
// over every network model, the batch must equal the per-recipient
// values at every recipient but the sender, and leave the sender's slot
// alone.  A wrapper that overrides only honest_delay (the default
// per-recipient loop) must then drive the engine to the same RunResult,
// counters included, as the strategy itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "honest_series.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {
namespace {

const char* const kStrategies[] = {
    "null",           "max-delay",    "private-withhold", "balance-attack",
    "selfish-mining", "fork-balancer", "delay-saturate",
};
const char* const kNetworks[] = {
    "immediate", "max-delay", "uniform", "split",
    "bursty",    "strategy",  "eclipse",
};

constexpr std::uint64_t kSentinel = 0xdead'beef'0bad'f00dULL;

EngineConfig config_n40() {
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.25;
  config.delta = 4;
  config.p = 0.01;
  config.rounds = 300;
  config.seed = 24;
  return config;
}

std::unique_ptr<Adversary> make_adversary(const char* network,
                                          const char* strategy,
                                          const EngineConfig& config) {
  return scenario::ScenarioRegistry::builtin().make_adversary(
      network, {}, strategy, {}, config);
}

/// Forwards everything but honest_delays, so the engine reads delays
/// through the base class's per-recipient loop.
class PerRecipientAdversary final : public Adversary {
 public:
  explicit PerRecipientAdversary(std::unique_ptr<Adversary> inner)
      : inner_(std::move(inner)) {}

  std::uint64_t honest_delay(std::uint64_t round, std::uint32_t sender,
                             std::uint32_t recipient,
                             protocol::BlockIndex block) override {
    return inner_->honest_delay(round, sender, recipient, block);
  }
  void on_honest_block(std::uint64_t round,
                       protocol::BlockIndex block) override {
    inner_->on_honest_block(round, block);
  }
  void act(AdversaryOps& ops) override { inner_->act(ops); }
  [[nodiscard]] bool quiet_act_is_noop() const override {
    return inner_->quiet_act_is_noop();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Adversary> inner_;
};

TEST(BatchDelays, EqualPerRecipientDelaysForEveryStrategyAndNetwork) {
  const EngineConfig config = config_n40();
  const std::uint32_t honest = honest_miner_count(config);
  ASSERT_EQ(honest, 30u);
  const std::uint32_t senders[] = {0, 1, honest / 2, honest - 2, honest - 1};
  const std::uint64_t rounds[] = {1, 2, 5, 8, 1'000'003};
  const protocol::BlockIndex blocks[] = {1, 17, 4096};
  for (const char* strategy : kStrategies) {
    for (const char* network : kNetworks) {
      SCOPED_TRACE(std::string(network) + "+" + strategy);
      const std::unique_ptr<Adversary> adversary =
          make_adversary(network, strategy, config);
      std::vector<std::uint64_t> out(honest);
      for (const std::uint64_t round : rounds) {
        for (const std::uint32_t sender : senders) {
          for (const protocol::BlockIndex block : blocks) {
            out.assign(honest, kSentinel);
            adversary->honest_delays(round, sender, block, out);
            EXPECT_EQ(out[sender], kSentinel) << "sender " << sender;
            for (std::uint32_t r = 0; r < honest; ++r) {
              if (r == sender) continue;
              ASSERT_EQ(out[r],
                        adversary->honest_delay(round, sender, r, block))
                  << "round " << round << " sender " << sender
                  << " recipient " << r << " block " << block;
            }
          }
        }
      }
    }
  }
}

void expect_result_equal(const reference::SeriesRun& got_run,
                         const reference::SeriesRun& want_run) {
  EXPECT_EQ(got_run.honest_mined, want_run.honest_mined);
  const RunResult& got = got_run.result;
  const RunResult& want = want_run.result;
  EXPECT_EQ(got.honest_blocks_total, want.honest_blocks_total);
  EXPECT_EQ(got.adversary_blocks_total, want.adversary_blocks_total);
  EXPECT_EQ(got.convergence_opportunities, want.convergence_opportunities);
  EXPECT_EQ(got.max_reorg_depth, want.max_reorg_depth);
  EXPECT_EQ(got.max_divergence, want.max_divergence);
  EXPECT_EQ(got.disagreement_rounds, want.disagreement_rounds);
  EXPECT_EQ(got.violation_depth, want.violation_depth);
  EXPECT_EQ(got.chain.best_height, want.chain.best_height);
  EXPECT_EQ(got.chain.growth_per_round, want.chain.growth_per_round);
  EXPECT_EQ(got.chain.honest_blocks_in_chain,
            want.chain.honest_blocks_in_chain);
  EXPECT_EQ(got.chain.adversary_blocks_in_chain,
            want.chain.adversary_blocks_in_chain);
  EXPECT_EQ(got.chain.quality, want.chain.quality);
  EXPECT_EQ(got.store_size, want.store_size);
  // Same calendar entries, so every counter agrees too.
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    EXPECT_EQ(got.telemetry.counters[i], want.telemetry.counters[i])
        << telemetry::counter_name(static_cast<telemetry::Counter>(i));
  }
}

TEST(BatchDelays, PerRecipientFallbackRunsIdentically) {
  const EngineConfig config = config_n40();
  for (const char* strategy : kStrategies) {
    for (const char* network : kNetworks) {
      SCOPED_TRACE(std::string(network) + "+" + strategy);
      ExecutionEngine batch_engine(config,
                                   make_adversary(network, strategy, config));
      ExecutionEngine fallback_engine(
          config, std::make_unique<PerRecipientAdversary>(
                      make_adversary(network, strategy, config)));
      const reference::SeriesRun batch =
          reference::run_with_series(batch_engine);
      const reference::SeriesRun fallback =
          reference::run_with_series(fallback_engine);
      ASSERT_GT(batch.result.honest_blocks_total, 0u);
      expect_result_equal(fallback, batch);
    }
  }
}

}  // namespace
}  // namespace neatbound::sim
