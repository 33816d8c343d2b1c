// Differential battery pinning the quiet-round fast path of
// ExecutionEngine::run() to the full per-round loop bit-for-bit.  Every
// run, observed or not, commits provably-quiet rounds in O(1); the
// stepping reference is the same strategy behind a wrapper that does not
// opt into the quiet-act contract, so act() runs and the round is stepped
// every round.  Both must produce *exactly* the same RunResult, and an
// observer must see the same record and the same honest tips in every
// round, for every adversary strategy over every network model; the C
// each run counts online must equal the one-pass count over the per-round
// honest block counts its observer saw.  Every
// registry adversary must opt into the quiet-act contract (otherwise both
// runs would step every round and the identity would hold vacuously).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bounds/zhao.hpp"
#include "chains/convergence.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/oracle.hpp"
#include "sim/trace.hpp"
#include "support/crng.hpp"
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

constexpr std::uint64_t kBaseSeed = 9000;
constexpr std::uint32_t kSeeds = 8;

EngineConfig base_config() {
  EngineConfig config;
  config.miner_count = 12;
  config.adversary_fraction = 0.4;
  config.delta = 3;
  config.p = 0.04692883195696345;
  config.rounds = 300;
  return config;
}

/// The adaptive same-cell workload: n=40, Δ=3, private-withholding, p at
/// 2.5× the neat bound — most rounds of a run here are quiet.
EngineConfig sparse_config() {
  EngineConfig config;
  config.miner_count = 40;
  config.adversary_fraction = 0.25;
  config.delta = 3;
  config.p = 1.0 / (bounds::neat_bound_c(config.adversary_fraction) * 2.5 *
                    static_cast<double>(config.miner_count) *
                    static_cast<double>(config.delta));
  config.rounds = 4000;
  config.seed = kBaseSeed;
  return config;
}

std::unique_ptr<Adversary> make_adversary(const char* network,
                                          const char* strategy,
                                          const EngineConfig& config) {
  return scenario::ScenarioRegistry::builtin().make_adversary(
      network, {}, strategy, {}, config);
}

// Field-by-field equality over everything a RunResult reports except the
// telemetry snapshot (compared separately where it must match).
void expect_result_equal(const RunResult& got, const RunResult& want) {
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

/// Forwards to a registry strategy and counts act() calls: the engine
/// calls act() once per stepped round, so `acts == rounds` means no round
/// was skipped.  quiet_act_is_noop is forwarded unless overridden.
class CountingAdversary final : public Adversary {
 public:
  CountingAdversary(std::unique_ptr<Adversary> inner, bool quiet_noop)
      : inner_(std::move(inner)), quiet_noop_(quiet_noop) {}

  std::uint64_t honest_delay(std::uint64_t round, std::uint32_t sender,
                             std::uint32_t recipient,
                             protocol::BlockIndex block) override {
    return inner_->honest_delay(round, sender, recipient, block);
  }
  void on_honest_block(std::uint64_t round,
                       protocol::BlockIndex block) override {
    inner_->on_honest_block(round, block);
  }
  void act(AdversaryOps& ops) override {
    ++*acts_;
    inner_->act(ops);
  }
  [[nodiscard]] bool quiet_act_is_noop() const override {
    return quiet_noop_ && inner_->quiet_act_is_noop();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  /// Outlives the adversary, which the engine owns.
  [[nodiscard]] std::shared_ptr<std::uint64_t> acts() const { return acts_; }

 private:
  std::unique_ptr<Adversary> inner_;
  bool quiet_noop_;
  std::shared_ptr<std::uint64_t> acts_ = std::make_shared<std::uint64_t>(0);
};

struct Cell {
  const char* strategy;
  const char* network;
};

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const char* strategy : kStrategies) {
    for (const char* network : kNetworks) cells.push_back({strategy, network});
  }
  return cells;
}

/// What an observer saw of one run: the RunResult, and per round the
/// trace record and the honest tips.
struct ObservedRun {
  RunResult result;
  std::vector<RoundRecord> records;
  std::vector<std::vector<protocol::BlockIndex>> tips;
};

ObservedRun observed_run(const EngineConfig& config,
                         std::unique_ptr<Adversary> adversary) {
  ObservedRun out;
  ExecutionEngine engine(config, std::move(adversary));
  out.result = engine.run([&](const ExecutionEngine& e, std::uint64_t round) {
    out.records.push_back(make_round_record(e, round));
    out.tips.emplace_back(e.honest_tips().begin(), e.honest_tips().end());
  });
  return out;
}

/// The run's online C against count_convergence_opportunities over the
/// honest block counts its observer saw, round by round.
void expect_online_count_matches_series(const ObservedRun& run,
                                        std::uint64_t delta) {
  std::vector<std::uint32_t> series;
  for (const RoundRecord& record : run.records) {
    series.push_back(record.honest_mined);
  }
  EXPECT_EQ(run.result.convergence_opportunities,
            chains::count_convergence_opportunities(series, delta));
}

void expect_rounds_equal(const ObservedRun& got, const ObservedRun& want) {
  ASSERT_EQ(got.records.size(), want.records.size());
  ASSERT_EQ(got.tips.size(), want.tips.size());
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    const RoundRecord& g = got.records[i];
    const RoundRecord& w = want.records[i];
    SCOPED_TRACE("round=" + std::to_string(w.round));
    EXPECT_EQ(g.round, w.round);
    EXPECT_EQ(g.honest_mined, w.honest_mined);
    EXPECT_EQ(g.adversary_mined, w.adversary_mined);
    EXPECT_EQ(g.mined_by, w.mined_by);
    EXPECT_EQ(g.delivered, w.delivered);
    EXPECT_EQ(g.adoptions, w.adoptions);
    EXPECT_EQ(g.best_height, w.best_height);
    EXPECT_EQ(g.violation_depth, w.violation_depth);
    EXPECT_EQ(got.tips[i], want.tips[i]);
  }
}

class QuietSkipEquivalence : public ::testing::TestWithParam<Cell> {};

// The tentpole identity: for every seed, the skipping run reports exactly
// the RunResult of the stepping run, and its observer sees every round
// exactly as the stepping run's observer does.
TEST_P(QuietSkipEquivalence, SkippingRunMatchesSteppingRunBitForBit) {
  const Cell cell = GetParam();
  for (std::uint64_t seed = kBaseSeed; seed < kBaseSeed + kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EngineConfig config = base_config();
    config.seed = seed;
    std::unique_ptr<Adversary> adversary =
        make_adversary(cell.network, cell.strategy, config);
    // Without the opt-in the "skipping" run would step every round too.
    ASSERT_TRUE(adversary->quiet_act_is_noop());
    auto stepping_adversary = std::make_unique<CountingAdversary>(
        make_adversary(cell.network, cell.strategy, config),
        /*quiet_noop=*/false);
    const std::shared_ptr<std::uint64_t> acts = stepping_adversary->acts();
    const ObservedRun skipped = observed_run(config, std::move(adversary));
    const ObservedRun stepped =
        observed_run(config, std::move(stepping_adversary));
    EXPECT_EQ(*acts, config.rounds);
    // Every cell has quiet rounds, so neither side holds vacuously.
    EXPECT_GT(skipped.result.telemetry.counters[static_cast<std::size_t>(
                  telemetry::Counter::kQuietRoundsSkipped)],
              0u);
    expect_result_equal(skipped.result, stepped.result);
    expect_rounds_equal(skipped, stepped);
    expect_online_count_matches_series(skipped, config.delta);
    expect_online_count_matches_series(stepped, config.delta);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, QuietSkipEquivalence, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      std::string name = std::string(info.param.strategy) + "_" +
                         info.param.network;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// act() calls of one run of the sparse cell, observed by `observer`.
std::uint64_t sparse_acts(bool quiet_noop,
                          const ExecutionEngine::RoundObserver& observer = {}) {
  const EngineConfig config = sparse_config();
  auto adversary = std::make_unique<CountingAdversary>(
      make_adversary("strategy", "private-withhold", config), quiet_noop);
  const std::shared_ptr<std::uint64_t> acts = adversary->acts();
  ExecutionEngine engine(config, std::move(adversary));
  (void)engine.run(observer);
  return *acts;
}

// The probe itself: on the sparse cell an eligible run skips most rounds.
TEST(QuietSkipEligibility, EligibleRunSkipsRounds) {
  EXPECT_LT(sparse_acts(/*quiet_noop=*/true), sparse_config().rounds);
}

// Observing a run does not change which rounds it steps: an armed oracle
// still sees every round, but act() runs only on the busy ones.
TEST(QuietSkipEligibility, ObservedRunSkipsRounds) {
  InvariantOracle oracle(OracleConfig{});
  EXPECT_LT(sparse_acts(/*quiet_noop=*/true, oracle.observer()),
            sparse_config().rounds);
  EXPECT_EQ(oracle.rounds_observed(), sparse_config().rounds);
}

// Without the quiet-act opt-in, act() must run in every round.
TEST(QuietSkipEligibility, AdversaryWithoutQuietContractNeverSkips) {
  EXPECT_EQ(sparse_acts(/*quiet_noop=*/false), sparse_config().rounds);
}

// The skip shows up in its own counter and nowhere else.  The
// ancestry-query counter is the one diagnostic exception: the adversary's
// act() on a stepped quiet round may read the store's ancestry, and the
// skip never calls it.
TEST(QuietSkipTelemetry, OnlyTheSkipCounterMoves) {
  const EngineConfig config = sparse_config();
  ExecutionEngine skipping(
      config, make_adversary("strategy", "private-withhold", config));
  ExecutionEngine stepping(
      config, std::make_unique<CountingAdversary>(
                  make_adversary("strategy", "private-withhold", config),
                  /*quiet_noop=*/false));
  const RunResult skipped = skipping.run();
  const RunResult stepped = stepping.run();
  expect_result_equal(skipped, stepped);

  const auto index = [](telemetry::Counter c) {
    return static_cast<std::size_t>(c);
  };
  const std::size_t quiet = index(telemetry::Counter::kQuietRoundsSkipped);
  const std::size_t ancestry = index(telemetry::Counter::kAncestryQueries);
  EXPECT_GT(skipped.telemetry.counters[quiet], 0u);
  EXPECT_EQ(stepped.telemetry.counters[quiet], 0u);
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    if (i == quiet || i == ancestry) continue;
    EXPECT_EQ(skipped.telemetry.counters[i], stepped.telemetry.counters[i])
        << telemetry::counter_name(static_cast<telemetry::Counter>(i));
  }
  EXPECT_LE(skipped.telemetry.counters[ancestry],
            stepped.telemetry.counters[ancestry]);
}

// Phase timing only reads the clock: a timed run reports the untimed
// run's RunResult and counters exactly, and only it records phases.
TEST(QuietSkipTelemetry, TimedRunMatchesUntimedRun) {
  const EngineConfig config = sparse_config();
  ExecutionEngine untimed_engine(
      config, make_adversary("strategy", "private-withhold", config));
  ExecutionEngine timed_engine(
      config, make_adversary("strategy", "private-withhold", config));
  const RunResult untimed = untimed_engine.run();
  RunResult timed;
  {
    const telemetry::ScopedPhaseTiming timing(true);
    timed = timed_engine.run();
  }
  expect_result_equal(timed, untimed);
  EXPECT_EQ(timed.telemetry.counters, untimed.telemetry.counters);
  EXPECT_GT(timed.telemetry.phase_nanos[static_cast<std::size_t>(
                telemetry::Phase::kMine)],
            0u);
  for (const std::uint64_t nanos : untimed.telemetry.phase_nanos) {
    EXPECT_EQ(nanos, 0u);
  }
}

// Counter-RNG order independence: a draw's value depends only on its
// (key, counter) address, never on which draws happened before it.
// Walking a set of addresses forward, backward, and interleaved across
// two simulated "lanes" must read identical values — the property that
// lets the engine locate future successes without drawing the rounds
// in between.
TEST(CrngOrderIndependence, DrawsAreAddressedNotSequenced) {
  const crng::Key key{0x1234abcdULL, 77};
  std::vector<crng::Counter> addresses;
  for (std::uint64_t round = 1; round <= 40; ++round) {
    for (std::uint64_t miner = 0; miner < 5; ++miner) {
      addresses.push_back(
          {round, miner,
           static_cast<std::uint64_t>(crng::Purpose::kHonestBlock), 0});
    }
  }
  std::vector<std::uint64_t> forward;
  for (const crng::Counter& c : addresses) {
    forward.push_back(crng::draw(key, c));
  }
  // Backward.
  for (std::size_t i = addresses.size(); i-- > 0;) {
    EXPECT_EQ(crng::draw(key, addresses[i]), forward[i]);
  }
  // Interleaved across two lanes (distinct seeds), alternating draws.
  // Each lane's values must match that lane's own forward pass.
  const crng::Key lane_a{key.cell, 1001};
  const crng::Key lane_b{key.cell, 1002};
  std::vector<std::uint64_t> a_forward;
  std::vector<std::uint64_t> b_forward;
  for (const crng::Counter& c : addresses) {
    a_forward.push_back(crng::draw(lane_a, c));
    b_forward.push_back(crng::draw(lane_b, c));
  }
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    EXPECT_EQ(crng::draw(lane_b, addresses[i]), b_forward[i]);
    EXPECT_EQ(crng::draw(lane_a, addresses[i]), a_forward[i]);
  }
  // And two independent Streams over disjoint (a, b) prefixes do not
  // perturb each other no matter how their pulls interleave.
  crng::Stream solo(key, 7, 7, crng::Purpose::kGeneric);
  std::vector<std::uint64_t> solo_bits;
  for (int i = 0; i < 16; ++i) solo_bits.push_back(solo.bits());
  crng::Stream again(key, 7, 7, crng::Purpose::kGeneric);
  crng::Stream other(key, 7, 8, crng::Purpose::kGeneric);
  for (int i = 0; i < 16; ++i) {
    (void)other.bits();
    EXPECT_EQ(again.bits(), solo_bits[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace neatbound::sim
