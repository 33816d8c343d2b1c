// Adversarial fuzz smoke for the replay protocol: a few hundred seeds
// through violent high-ν cells, and *every* violation the oracle
// freezes must survive the full build_artifact → serialize → parse →
// replay loop bit-for-bit.  This is the property the replayable-
// artifact design stands on (prefix determinism of engine trajectories
// in the round count); a single non-reproducing seed here is a
// determinism bug, not flakiness.
//
// The same battery, and every strategy × network pair, also drives the
// differential checks of the oracle's class-level observers against the
// per-view computations they replace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scenario/artifact.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/oracle.hpp"

namespace neatbound::scenario {
namespace {

struct FuzzCell {
  std::string strategy;
  std::string network;
  double nu;
  double p;
};

// Violent cells: ν at or past the neat bound's tolerable range for these
// Δ/p, strategies chosen for maximum disagreement.
const FuzzCell kFuzzCells[] = {
    {"fork-balancer", "strategy", 0.40, 0.030},
    {"private-withhold", "uniform", 0.45, 0.035},
    {"balance-attack", "split", 0.40, 0.030},
    {"delay-saturate", "bursty", 0.45, 0.035},
};
constexpr std::uint32_t kSeedsPerCell = 75;  // 300 runs total
constexpr std::uint64_t kBaseSeed = 50000;

sim::EngineConfig fuzz_config(const FuzzCell& cell, std::uint64_t seed) {
  sim::EngineConfig config;
  config.miner_count = 10;
  config.adversary_fraction = cell.nu;
  config.p = cell.p;
  config.delta = 3;
  config.rounds = 160;
  config.seed = seed;
  return config;
}

TEST(OracleFuzz, EveryFrozenViolationReplaysBitIdentically) {
  const auto& registry = ScenarioRegistry::builtin();
  std::uint64_t violations = 0;
  for (const FuzzCell& cell : kFuzzCells) {
    for (std::uint32_t k = 0; k < kSeedsPerCell; ++k) {
      const sim::EngineConfig config = fuzz_config(cell, kBaseSeed + k);

      sim::OracleConfig oracle_config;
      oracle_config.common_prefix_t = 3;
      oracle_config.slice_rounds = 24;
      sim::InvariantOracle oracle(oracle_config);

      auto adversary = registry.make_adversary(
          cell.network, Params{}, cell.strategy, Params{}, config);
      sim::ExecutionEngine engine(config, std::move(adversary));
      (void)engine.run(oracle.observer());
      if (!oracle.violated()) continue;
      ++violations;

      const std::string label = cell.strategy + " × " + cell.network +
                                " seed " + std::to_string(config.seed);
      const ViolationArtifact artifact = build_artifact(
          config, oracle_config.common_prefix_t,
          ComponentSpec{cell.strategy, Params{}},
          ComponentSpec{cell.network, Params{}}, oracle);

      // Through the serialized form, exactly as a file round trip would.
      std::ostringstream os;
      write_artifact(os, artifact);
      const ViolationArtifact parsed = parse_artifact(os.str());

      const ReplayResult replay = replay_artifact(parsed, registry);
      ASSERT_TRUE(replay.violated) << label;
      ASSERT_TRUE(replay.reproduced)
          << label << ": "
          << (replay.mismatches.empty() ? std::string("(no mismatches?)")
                                        : replay.mismatches.front());
      ASSERT_EQ(replay.violation, artifact.violation) << label;
    }
  }
  // The smoke must not pass vacuously: these cells are violent enough
  // that a healthy fraction of the 300 runs trips the oracle.
  EXPECT_GE(violations, 20u) << "fuzz grid produced too few violations to "
                                "exercise the replay protocol";
}

/// The per-view common-prefix scan the class-level one replaced: distinct
/// tips in first-occurrence order over the views, each owned by the first
/// view holding it, pairs compared in that order.
sim::TipDivergence per_view_divergence(
    const protocol::BlockStore& store,
    std::span<const protocol::BlockIndex> tips) {
  std::vector<protocol::BlockIndex> distinct;
  std::vector<std::uint32_t> owner;
  for (std::uint32_t m = 0; m < tips.size(); ++m) {
    if (std::find(distinct.begin(), distinct.end(), tips[m]) !=
        distinct.end()) {
      continue;
    }
    distinct.push_back(tips[m]);
    owner.push_back(m);
  }
  sim::TipDivergence result;
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    for (std::size_t j = i + 1; j < distinct.size(); ++j) {
      const std::uint64_t common =
          store.common_prefix_height(distinct[i], distinct[j]);
      const std::uint64_t deeper = std::max(store.height_of(distinct[i]),
                                            store.height_of(distinct[j]));
      if (deeper - common > result.depth) {
        result = {deeper - common, owner[i], owner[j]};
      }
    }
  }
  return result;
}

/// Honest blocks among the last `window` blocks ending at `tip`, by
/// walking parents.
std::uint64_t honest_by_parent_walk(const protocol::BlockStore& store,
                                    protocol::BlockIndex tip,
                                    std::uint64_t window) {
  std::uint64_t honest = 0;
  for (std::uint64_t i = 0; i < window; ++i) {
    honest += store.miner_class_of(tip) == protocol::MinerClass::kHonest;
    tip = store.parent_of(tip);
  }
  return honest;
}

/// The fuzz battery plus every strategy × network pair of the registry at
/// a milder cell.
std::vector<std::pair<FuzzCell, std::uint32_t>> differential_cells() {
  std::vector<std::pair<FuzzCell, std::uint32_t>> cells;
  for (const FuzzCell& cell : kFuzzCells) cells.emplace_back(cell, 25);
  const auto& registry = ScenarioRegistry::builtin();
  for (const auto& strategy : registry.adversary_strategies()) {
    for (const auto& network : registry.network_models()) {
      cells.push_back({{strategy.name, network.name, 0.30, 0.030}, 3});
    }
  }
  return cells;
}

TEST(OracleFuzz, ClassLevelObserversEqualPerViewReferences) {
  const auto& registry = ScenarioRegistry::builtin();
  std::uint64_t adoption_rounds = 0;
  std::uint64_t split_rounds = 0;        // ≥ 2 distinct tips
  std::uint64_t shared_tip_rounds = 0;   // two classes on one tip
  for (const auto& [cell, seeds] : differential_cells()) {
    for (std::uint32_t k = 0; k < seeds; ++k) {
      const sim::EngineConfig config = fuzz_config(cell, kBaseSeed + k);
      const std::string label = cell.strategy + " × " + cell.network +
                                " seed " + std::to_string(config.seed);
      sim::ExecutionEngine engine(
          config, registry.make_adversary(cell.network, Params{},
                                          cell.strategy, Params{}, config));
      sim::TipDivergenceScan scan;
      sim::HonestDepthIndex honest_depth;
      (void)engine.run([&](const sim::ExecutionEngine& e,
                           std::uint64_t round) {
        if (e.round_activity().adoptions == 0) return;
        ++adoption_rounds;
        const auto tips = e.honest_tips();
        const sim::TipDivergence want = per_view_divergence(e.store(), tips);
        const sim::TipDivergence got =
            scan.measure(e.store(), e.class_tips(), e.class_leads());
        ASSERT_EQ(got.depth, want.depth) << label << " round " << round;
        ASSERT_EQ(got.view_a, want.view_a) << label << " round " << round;
        ASSERT_EQ(got.view_b, want.view_b) << label << " round " << round;
        split_rounds += want.depth > 0;
        std::vector<protocol::BlockIndex> class_tips(e.class_tips().begin(),
                                                     e.class_tips().end());
        std::sort(class_tips.begin(), class_tips.end());
        shared_tip_rounds += std::adjacent_find(class_tips.begin(),
                                                class_tips.end()) !=
                             class_tips.end();

        const protocol::BlockIndex best = e.best_honest_tip();
        const std::uint64_t height = e.store().height_of(best);
        for (const std::uint64_t window : {std::uint64_t{1}, std::uint64_t{5},
                                           height}) {
          if (window > height) continue;
          ASSERT_EQ(honest_depth.honest_in_window(e.store(), best, window),
                    honest_by_parent_walk(e.store(), best, window))
              << label << " round " << round << " window " << window;
        }
      });
    }
  }
  // Not vacuous: the battery splits the views and puts classes that
  // differ only off-tip side by side.
  EXPECT_GT(adoption_rounds, 10000u);
  EXPECT_GT(split_rounds, 1000u);
  EXPECT_GT(shared_tip_rounds, 100u);
}

/// A registry strategy whose every act() first checks the per-view tips
/// it is about to read against ExecutionEngine::honest_tip.
class CheckedAdversary final : public sim::Adversary {
 public:
  CheckedAdversary(std::unique_ptr<sim::Adversary> inner,
                   const sim::ExecutionEngine*& engine)
      : inner_(std::move(inner)), engine_(engine) {}

  std::uint64_t honest_delay(std::uint64_t round, std::uint32_t sender,
                             std::uint32_t recipient,
                             protocol::BlockIndex block) override {
    return inner_->honest_delay(round, sender, recipient, block);
  }
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override {
    inner_->honest_delays(round, sender, block, out);
  }
  void on_honest_block(std::uint64_t round,
                       protocol::BlockIndex block) override {
    inner_->on_honest_block(round, block);
  }
  void act(sim::AdversaryOps& ops) override {
    const auto tips = ops.honest_tips();
    EXPECT_EQ(tips.size(), engine_->honest_count());
    for (std::uint32_t m = 0; m < tips.size(); ++m) {
      EXPECT_EQ(tips[m], engine_->honest_tip(m))
          << inner_->name() << " view " << m << " inside act, round "
          << ops.round();
    }
    inner_->act(ops);
  }
  [[nodiscard]] bool quiet_act_is_noop() const override {
    return inner_->quiet_act_is_noop();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::Adversary> inner_;
  const sim::ExecutionEngine*& engine_;
};

TEST(OracleFuzz, MaterializedViewTipsMatchTheClassMap) {
  // Checked after every round and, inside act(), where balance-attack
  // and fork-balancer read every view's tip to split the honest players.
  const auto& registry = ScenarioRegistry::builtin();
  for (const auto& [cell, seeds] : differential_cells()) {
    for (std::uint32_t k = 0; k < seeds; ++k) {
      const sim::EngineConfig config = fuzz_config(cell, kBaseSeed + k);
      const std::string label = cell.strategy + " × " + cell.network +
                                " seed " + std::to_string(config.seed);
      const sim::ExecutionEngine* bound = nullptr;
      sim::ExecutionEngine engine(
          config, std::make_unique<CheckedAdversary>(
                      registry.make_adversary(cell.network, Params{},
                                              cell.strategy, Params{}, config),
                      bound));
      bound = &engine;
      (void)engine.run([&](const sim::ExecutionEngine& e,
                           std::uint64_t round) {
        const auto tips = e.honest_tips();
        ASSERT_EQ(tips.size(), e.honest_count());
        for (std::uint32_t m = 0; m < tips.size(); ++m) {
          ASSERT_EQ(tips[m], e.honest_tip(m))
              << label << " view " << m << " after round " << round;
        }
      });
    }
  }
}

}  // namespace
}  // namespace neatbound::scenario
