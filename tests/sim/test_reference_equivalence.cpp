// Referee battery: ExecutionEngine against the naive executable model in
// reference_engine.{hpp,cpp}.  Seeded random configurations (n ≤ 24, ν,
// p, Δ ≤ 6, T ≤ 2000) run every registry strategy over every network
// model through both, and every RunResult field, every round's
// RoundActivity and every round's per-view honest tips must agree: the
// engine's online C among them, against the model's one-pass count over
// its own per-round series.  The engine's store must equal the model's
// whole block records block for block, and every record must validate
// (H.ver, linkage, heights, rounds).  A mismatch prints the first
// diverging round as a trace slice.  Hand-built
// cases add an eclipse publication, dense-grid's n = 160 cell and an
// adversary whose deliveries cover the larger side of a view class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "block_records.hpp"
#include "reference_engine.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "support/crng.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {
namespace {

const char* const kStrategies[] = {
    "null",           "max-delay",     "private-withhold", "balance-attack",
    "selfish-mining", "fork-balancer", "delay-saturate",
};
const char* const kNetworks[] = {
    "immediate", "max-delay", "uniform", "split",
    "bursty",    "strategy",  "eclipse",
};

struct EngineRun {
  /// Observer attached: every round, stepped or committed as quiet,
  /// checked against the model.
  RunResult observed;
  RunResult unobserved;  ///< no observer
  std::unique_ptr<ExecutionEngine> engine;  ///< the unobserved run's
  std::vector<reference::RoundRecord> rounds;
  std::vector<std::size_t> classes;  ///< view classes after each round
  std::vector<std::vector<std::uint32_t>> miners;  ///< each round's miners
};

std::unique_ptr<Adversary> registry_adversary(const char* network,
                                              const char* strategy,
                                              const EngineConfig& config) {
  return scenario::ScenarioRegistry::builtin().make_adversary(
      network, {}, strategy, {}, config);
}

template <typename MakeAdversary>
EngineRun run_engine(const EngineConfig& config, MakeAdversary make) {
  EngineRun out;
  {
    ExecutionEngine engine(config, make());
    out.observed = engine.run([&](const ExecutionEngine& e, std::uint64_t) {
      out.rounds.push_back(
          {e.round_activity(),
           std::vector<protocol::BlockIndex>(e.honest_tips().begin(),
                                             e.honest_tips().end())});
      out.classes.push_back(e.view_class_count());
      out.miners.emplace_back(e.round_miners().begin(),
                              e.round_miners().end());
    });
  }
  out.engine = std::make_unique<ExecutionEngine>(config, make());
  out.unobserved = out.engine->run();
  return out;
}

std::string describe(const EngineConfig& c) {
  std::ostringstream out;
  out << "n=" << c.miner_count << " nu=" << c.adversary_fraction
      << " p=" << c.p << " delta=" << c.delta << " T=" << c.rounds
      << " seed=" << c.seed;
  return out.str();
}

std::string slice(const reference::RoundRecord& r) {
  std::ostringstream out;
  const RoundActivity& a = r.activity;
  out << "honest_mined=" << a.honest_mined
      << " adversary_mined=" << a.adversary_mined
      << " delivered=" << a.delivered << " adoptions=" << a.adoptions
      << " max_reorg_depth=" << a.max_reorg_depth
      << " max_reorg_view=" << a.max_reorg_view << " tips=[";
  for (std::size_t v = 0; v < r.tips.size(); ++v) {
    out << (v ? " " : "") << r.tips[v];
  }
  return out.str() + "]";
}

bool same_round(const reference::RoundRecord& a,
                const reference::RoundRecord& b) {
  const RoundActivity& x = a.activity;
  const RoundActivity& y = b.activity;
  return x.honest_mined == y.honest_mined &&
         x.adversary_mined == y.adversary_mined &&
         x.delivered == y.delivered && x.adoptions == y.adoptions &&
         x.max_reorg_depth == y.max_reorg_depth &&
         x.max_reorg_view == y.max_reorg_view && a.tips == b.tips;
}

void expect_result_equal(const RunResult& got, const RunResult& want,
                         const std::string& label) {
  SCOPED_TRACE(label);
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
}

/// Compares an engine run with the reference model, round by round, and
/// reports the first diverging round.
void expect_equivalent(const EngineRun& engine,
                       const reference::ReferenceRun& model,
                       const std::string& label) {
  ASSERT_EQ(engine.rounds.size(), model.rounds.size()) << label;
  for (std::size_t r = 0; r < model.rounds.size(); ++r) {
    if (same_round(engine.rounds[r], model.rounds[r])) continue;
    const std::size_t from = r >= 2 ? r - 2 : 0;
    std::ostringstream trace;
    for (std::size_t k = from; k <= r; ++k) {
      trace << "\n  round " << k + 1 << "\n    engine:    "
            << slice(engine.rounds[k]) << "\n    reference: "
            << slice(model.rounds[k]);
    }
    ADD_FAILURE() << label << ": first diverging round " << r + 1
                  << trace.str();
    return;
  }
  expect_result_equal(engine.observed, model.result, label + " (observed)");
  expect_result_equal(engine.unobserved, model.result,
                      label + " (unobserved)");
  EXPECT_EQ(reference::store_mismatch(engine.engine->store(), model.blocks),
            "")
      << label;
  for (protocol::BlockIndex b = 0; b < model.blocks.size(); ++b) {
    const reference::ValidationReport report =
        reference::validate_chain(model.blocks, b, engine.engine->oracle());
    ASSERT_TRUE(report.valid)
        << label << ": block " << b << ": " << report.failure;
  }
}

/// A seeded random configuration: n ≤ 24, ν < 1/2, Δ ≤ 6, T ≤ 2000, with
/// p scaled so a run mines at most a few hundred blocks (the reference
/// copies whole chains on every adoption).
EngineConfig random_config(crng::Stream& rng, std::uint64_t seed) {
  EngineConfig c;
  c.miner_count = 4 + static_cast<std::uint32_t>(rng.uniform_below(21));
  c.adversary_fraction = 0.45 * rng.uniform();
  c.delta = 1 + rng.uniform_below(6);
  c.rounds = 20 + rng.uniform_below(1981);
  const double per_round = std::min(
      0.02 + 0.98 * rng.uniform(), 400.0 / static_cast<double>(c.rounds));
  c.p = per_round / static_cast<double>(c.miner_count);
  c.seed = seed;
  return c;
}

constexpr int kConfigsPerPair = 3;

TEST(ReferenceEquivalence, RandomConfigsAcrossStrategiesAndNetworks) {
  crng::Stream rng({0x7265664eULL, 1}, 0, 0, crng::Purpose::kGeneric);
  std::uint64_t seed = 1;
  std::uint64_t runs_with_reorgs = 0;
  for (int draw = 0; draw < kConfigsPerPair; ++draw) {
    for (const char* strategy : kStrategies) {
      for (const char* network : kNetworks) {
        EngineConfig config = random_config(rng, seed++);
        // The partition strategies need both halves populated.
        while (honest_miner_count(config) < 2) {
          config = random_config(rng, seed++);
        }
        const auto make = [&] {
          return registry_adversary(network, strategy, config);
        };
        const reference::ReferenceRun model =
            reference::run_reference(config, make());
        expect_equivalent(run_engine(config, make), model,
                          std::string(network) + "+" + strategy + " " +
                              describe(config));
        if (model.result.max_reorg_depth > 0) ++runs_with_reorgs;
        if (HasFailure()) return;
      }
    }
  }
  // The battery must exercise the fork-resolution paths, not only
  // agreeing runs.
  EXPECT_GT(runs_with_reorgs, 20U);
}

/// Mines on the best honest tip and hands each block to one victim first;
/// the engine's gossip echo brings it to everyone else Δ rounds later.
class EclipsePublisher final : public Adversary {
 public:
  std::uint64_t honest_delay(std::uint64_t, std::uint32_t, std::uint32_t,
                             protocol::BlockIndex) override {
    return 1;
  }
  void act(AdversaryOps& ops) override {
    const protocol::BlockIndex parent = ops.best_honest_tip();
    while (ops.remaining_queries() > 0) {
      if (const auto mined = ops.mine_on(parent)) {
        ops.publish_to(ops.honest_count() / 2, *mined, 1);
        return;
      }
    }
  }
  [[nodiscard]] const char* name() const override { return "eclipse-first"; }
};

TEST(ReferenceEquivalence, EclipsePublicationSplitsAndEchoMerges) {
  EngineConfig config;
  config.miner_count = 10;
  config.adversary_fraction = 0.3;
  config.delta = 4;
  config.p = 0.01;
  config.rounds = 600;
  config.seed = 17;
  const EngineRun engine =
      run_engine(config, [] { return std::make_unique<EclipsePublisher>(); });
  const reference::ReferenceRun model =
      reference::run_reference(config, std::make_unique<EclipsePublisher>());
  expect_equivalent(engine, model, "eclipse-first " + describe(config));
  // The victim must actually run ahead of the others — its publication
  // splits the victim off the one shared view — and the echo must catch
  // the rest up, merging the classes back into one.
  const std::uint32_t victim = honest_miner_count(config) / 2;
  std::optional<std::size_t> split;
  for (std::size_t r = 0; r < model.rounds.size() && !split; ++r) {
    const auto& tips = model.rounds[r].tips;
    const auto others = std::count(tips.begin(), tips.end(), tips[0]);
    if (tips[victim] != tips[0] &&
        static_cast<std::size_t>(others) + 1 == tips.size() &&
        engine.classes[r] == 2 && (r == 0 || engine.classes[r - 1] == 1)) {
      split = r;
    }
  }
  ASSERT_TRUE(split.has_value());
  bool merged = false;
  for (std::size_t r = *split + 1; r < model.rounds.size() && !merged; ++r) {
    const auto& tips = model.rounds[r].tips;
    merged = engine.classes[r] == 1 &&
             std::all_of(tips.begin(), tips.end(),
                         [&](protocol::BlockIndex t) { return t == tips[0]; });
  }
  EXPECT_TRUE(merged);
}

// Dense-grid's cell shape (n = 160, ~95% of rounds active) on a short
// horizon: classes of ~120 views, where a broadcast to all but its sender
// is counted over the one-view gap, and the miner's split and the later
// merge each relabel one view.
TEST(ReferenceEquivalence, DenseGridCellWithLargeClasses) {
  EngineConfig config;
  config.miner_count = 160;
  config.adversary_fraction = 0.25;
  config.p = 0.01;
  config.delta = 4;
  config.rounds = 400;
  config.seed = 5;
  const auto make = [&] {
    return registry_adversary("strategy", "private-withhold", config);
  };
  const reference::ReferenceRun model =
      reference::run_reference(config, make());
  expect_equivalent(run_engine(config, make), model,
                    "strategy+private-withhold " + describe(config));
}

/// Delivers honest blocks next round to the lower three quarters of the
/// recipients and Δ rounds later to the rest, so a delivery covers the
/// larger part of a class, lead included, and the split relabels it.
/// Mines on the best honest tip and publishes to everyone at once.
class LowerQuartersFirst final : public Adversary {
 public:
  explicit LowerQuartersFirst(std::uint32_t honest) : honest_(honest) {}
  std::uint64_t honest_delay(std::uint64_t, std::uint32_t,
                             std::uint32_t recipient,
                             protocol::BlockIndex) override {
    return 4 * recipient < 3 * honest_ ? 1 : kDelta;
  }
  void act(AdversaryOps& ops) override {
    const protocol::BlockIndex parent = ops.best_honest_tip();
    while (ops.remaining_queries() > 0) {
      if (const auto mined = ops.mine_on(parent)) {
        ops.publish_to_all(*mined, 1);
        return;
      }
    }
  }
  [[nodiscard]] const char* name() const override {
    return "lower-quarters-first";
  }

  static constexpr std::uint64_t kDelta = 4;

 private:
  std::uint32_t honest_;
};

TEST(ReferenceEquivalence, LargerCoveredSideSplitsAndLeadMoves) {
  EngineConfig config;
  config.miner_count = 16;
  config.adversary_fraction = 0.25;
  config.delta = LowerQuartersFirst::kDelta;
  config.p = 0.02;
  config.rounds = 2000;
  config.seed = 23;
  const std::uint32_t honest = honest_miner_count(config);
  const auto make = [&] {
    return std::make_unique<LowerQuartersFirst>(honest);
  };
  const EngineRun engine = run_engine(config, make);
  const reference::ReferenceRun model =
      reference::run_reference(config, make());
  expect_equivalent(engine, model, "lower-quarters-first " + describe(config));
  // View 0, the lowest view, leads its class.  In a round with no
  // deliveries that follows a round ending with one class, its block is
  // mined in a class of every honest view, so the split moves that class's
  // lead to view 1.
  bool lead_moved = false;
  for (std::size_t r = 1; r < engine.rounds.size(); ++r) {
    lead_moved |= engine.classes[r - 1] == 1 &&
                  engine.rounds[r].activity.delivered == 0 &&
                  engine.miners[r] == std::vector<std::uint32_t>{0};
  }
  EXPECT_TRUE(lead_moved);
  // A miner's own block accounts for at most one split per honest block;
  // the rest come from deliveries covering part of a class.
  const auto& counters = engine.unobserved.telemetry.counters;
  const auto index = [](telemetry::Counter c) {
    return static_cast<std::size_t>(c);
  };
  EXPECT_GT(counters[index(telemetry::Counter::kClassSplits)],
            counters[index(telemetry::Counter::kHonestBlocksMined)]);
}

}  // namespace
}  // namespace neatbound::sim
