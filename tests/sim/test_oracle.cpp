// Invariant-oracle tests: name registry round-trips, config validation,
// the oracle↔tracker cross-check property (the oracle's per-round
// common-prefix depth, accumulated, must equal ConsistencyTracker's
// violation depth exactly — across all 7 adversary strategies × several
// network models), first-violation freezing, window invariants, and the
// observer-purity contract (oracle-on fixed-seed trajectories are
// bit-identical to oracle-off, the same contract PR 8 pinned for
// tracing).
#include "sim/oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chains/convergence.hpp"
#include "honest_series.hpp"
#include "scenario/registry.hpp"
#include "support/contracts.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {
namespace {

/// A violation-prone cell: high ν, hardness far below the neat bound.
EngineConfig violent_config(std::uint64_t seed) {
  EngineConfig config;
  config.miner_count = 12;
  config.adversary_fraction = 0.4;
  config.p = 0.03;
  config.delta = 3;
  config.rounds = 300;
  config.seed = seed;
  return config;
}

std::unique_ptr<Adversary> build(const std::string& network,
                                 const std::string& strategy,
                                 const EngineConfig& config) {
  const auto& registry = scenario::ScenarioRegistry::builtin();
  return registry.make_adversary(network, scenario::Params{}, strategy,
                                 scenario::Params{}, config);
}

TEST(InvariantNames, RoundTripThroughTheRegistry) {
  const std::vector<std::string> names = invariant_names();
  ASSERT_EQ(names.size(), 3u);
  for (const std::string& name : names) {
    const auto kind = parse_invariant_name(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_EQ(invariant_name(*kind), name);
  }
  EXPECT_FALSE(parse_invariant_name("common_prefix").has_value());
  EXPECT_FALSE(parse_invariant_name("").has_value());
  EXPECT_FALSE(parse_invariant_name("chain-growt").has_value());
}

TEST(OracleConfig, ValidationRejectsUnusableConfigs) {
  OracleConfig nothing_armed;
  nothing_armed.common_prefix = false;
  EXPECT_THROW(validate_oracle_config(nothing_armed), ContractViolation);

  OracleConfig vacuous_growth;
  vacuous_growth.growth_window = 10;
  vacuous_growth.growth_min_blocks = 0;
  EXPECT_THROW(validate_oracle_config(vacuous_growth), ContractViolation);

  OracleConfig bad_ratio;
  bad_ratio.quality_window = 10;
  bad_ratio.quality_min_ratio = 1.5;
  EXPECT_THROW(validate_oracle_config(bad_ratio), ContractViolation);

  OracleConfig zero_slice;
  zero_slice.slice_rounds = 0;
  EXPECT_THROW(validate_oracle_config(zero_slice), ContractViolation);

  OracleConfig huge_slice;
  huge_slice.slice_rounds = (std::uint64_t{1} << 20) + 1;
  EXPECT_THROW(validate_oracle_config(huge_slice), ContractViolation);

  OracleConfig fine;
  fine.growth_window = 64;
  fine.quality_window = 64;
  fine.quality_min_ratio = 0.1;
  EXPECT_NO_THROW(validate_oracle_config(fine));
}

// The exactness property behind the whole replay design: the oracle's
// per-round depth is max(pairwise end-of-round divergence, deepest reorg
// this round), and ConsistencyTracker::violation_depth is the running
// max of exactly those two quantities — so the accumulated oracle depth
// must equal the tracker's answer bit-for-bit, on every strategy and
// network model.  And at the *first* round whose depth exceeds T, a
// truncated rerun to that round has violation_depth == measured (all
// earlier rounds were ≤ T < measured).
TEST(OracleCrossCheck, MatchesTrackerAcrossStrategiesAndNetworks) {
  const std::vector<std::string> strategies = {
      "null",           "max-delay",     "private-withhold", "balance-attack",
      "selfish-mining", "fork-balancer", "delay-saturate"};
  const std::vector<std::string> networks = {"strategy", "uniform", "bursty"};

  std::uint64_t seed = 9000;
  std::size_t violations_seen = 0;
  for (const std::string& network : networks) {
    for (const std::string& strategy : strategies) {
      ++seed;
      const EngineConfig config = violent_config(seed);

      OracleConfig oracle_config;
      oracle_config.common_prefix_t = 2;  // low T: violations are common
      oracle_config.slice_rounds = 32;
      InvariantOracle oracle(oracle_config);

      ExecutionEngine engine(config, build(network, strategy, config));
      const RunResult result = engine.run(oracle.observer());

      const std::string label = network + " × " + strategy;
      EXPECT_EQ(oracle.max_round_depth(), result.violation_depth) << label;
      EXPECT_EQ(oracle.rounds_observed(), config.rounds) << label;
      if (!oracle.violated()) continue;
      ++violations_seen;

      const OracleViolation& violation = oracle.first_violation();
      EXPECT_GT(violation.measured, oracle_config.common_prefix_t) << label;
      EXPECT_EQ(violation.bound, oracle_config.common_prefix_t) << label;

      // Truncated rerun: tracker depth at the first violating round is
      // the oracle's measured depth exactly.
      EngineConfig truncated = config;
      truncated.rounds = violation.round;
      ExecutionEngine rerun(truncated, build(network, strategy, truncated));
      const RunResult rerun_result = rerun.run();
      EXPECT_EQ(rerun_result.violation_depth, violation.measured) << label;

      // And one round earlier the depth was still within the bound.
      if (violation.round > 1) {
        EngineConfig before = config;
        before.rounds = violation.round - 1;
        ExecutionEngine prior(before, build(network, strategy, before));
        EXPECT_LE(prior.run().violation_depth,
                  oracle_config.common_prefix_t)
            << label;
      }
    }
  }
  // The property test must not pass vacuously: this grid is violent
  // enough that several cells trip the oracle.
  EXPECT_GE(violations_seen, 3u);
}

TEST(Oracle, ArmedRunIsBitIdenticalToUnarmed) {
  const EngineConfig config = violent_config(4242);

  ExecutionEngine plain(config, build("strategy", "fork-balancer", config));
  const RunResult unarmed = plain.run();

  OracleConfig oracle_config;
  oracle_config.common_prefix_t = 2;
  InvariantOracle oracle(oracle_config);
  ExecutionEngine observed(config,
                           build("strategy", "fork-balancer", config));
  const reference::SeriesRun armed_run =
      reference::run_with_series(observed, oracle.observer());
  const RunResult& armed = armed_run.result;

  // The unarmed run's online C and honest total are what the armed run's
  // per-round honest block counts give.
  EXPECT_EQ(unarmed.convergence_opportunities,
            chains::count_convergence_opportunities(armed_run.honest_mined,
                                                    config.delta));
  std::uint64_t honest_total = 0;
  for (const std::uint32_t c : armed_run.honest_mined) honest_total += c;
  EXPECT_EQ(unarmed.honest_blocks_total, honest_total);
  EXPECT_EQ(armed.honest_blocks_total, unarmed.honest_blocks_total);
  EXPECT_EQ(armed.adversary_blocks_total, unarmed.adversary_blocks_total);
  EXPECT_EQ(armed.convergence_opportunities,
            unarmed.convergence_opportunities);
  EXPECT_EQ(armed.max_reorg_depth, unarmed.max_reorg_depth);
  EXPECT_EQ(armed.max_divergence, unarmed.max_divergence);
  EXPECT_EQ(armed.disagreement_rounds, unarmed.disagreement_rounds);
  EXPECT_EQ(armed.violation_depth, unarmed.violation_depth);
  EXPECT_EQ(armed.chain.best_height, unarmed.chain.best_height);
  EXPECT_EQ(armed.chain.growth_per_round, unarmed.chain.growth_per_round);
  EXPECT_EQ(armed.chain.honest_blocks_in_chain,
            unarmed.chain.honest_blocks_in_chain);
  EXPECT_EQ(armed.chain.adversary_blocks_in_chain,
            unarmed.chain.adversary_blocks_in_chain);
  EXPECT_EQ(armed.chain.quality, unarmed.chain.quality);
  EXPECT_EQ(armed.store_size, unarmed.store_size);
  // The armed run skips the same quiet rounds as the unarmed one.  The
  // oracle reads through the same instrumented store, so its own
  // jump-pointer lookups show up in the ancestry-queries diagnostic
  // counter; every other counter, the skip counter included, must match
  // exactly.
  const auto ancestry =
      static_cast<std::size_t>(telemetry::Counter::kAncestryQueries);
  const auto quiet =
      static_cast<std::size_t>(telemetry::Counter::kQuietRoundsSkipped);
  for (std::size_t i = 0; i < armed.telemetry.counters.size(); ++i) {
    if (i == ancestry) continue;
    EXPECT_EQ(armed.telemetry.counters[i], unarmed.telemetry.counters[i])
        << telemetry::counter_name(static_cast<telemetry::Counter>(i));
  }
  EXPECT_GE(armed.telemetry.counters[ancestry],
            unarmed.telemetry.counters[ancestry]);
  EXPECT_GT(armed.telemetry.counters[quiet], 0u);
}

TEST(Oracle, FreezesFirstViolationWithViewsAndBoundedSlice) {
  const EngineConfig config = violent_config(777);
  OracleConfig oracle_config;
  oracle_config.common_prefix_t = 2;
  oracle_config.slice_rounds = 16;
  InvariantOracle oracle(oracle_config);
  ExecutionEngine engine(config, build("strategy", "fork-balancer", config));
  const RunResult result = engine.run(oracle.observer());

  ASSERT_TRUE(oracle.violated());
  const OracleViolation& violation = oracle.first_violation();
  EXPECT_EQ(violation.kind, InvariantKind::kCommonPrefix);
  EXPECT_GE(violation.round, 1u);
  EXPECT_LE(violation.round, config.rounds);
  // The run kept going after the freeze, so the whole-run depth can only
  // be at least the frozen measurement.
  EXPECT_GE(result.violation_depth, violation.measured);

  const auto& views = oracle.violating_views();
  ASSERT_EQ(views.size(), engine.honest_count());
  for (std::size_t m = 0; m < views.size(); ++m) {
    EXPECT_EQ(views[m].miner, m);
    EXPECT_EQ(views[m].height, engine.store().height_of(views[m].tip));
    EXPECT_EQ(views[m].hash, engine.store().hash_of(views[m].tip));
  }
  EXPECT_LT(violation.view_a, views.size());
  EXPECT_LT(violation.view_b, views.size());

  const auto& slice = oracle.violation_slice();
  const std::uint64_t expected =
      std::min<std::uint64_t>(violation.round, oracle_config.slice_rounds);
  ASSERT_EQ(slice.size(), expected);
  for (std::size_t i = 0; i < slice.size(); ++i) {
    EXPECT_EQ(slice[i].round, violation.round - expected + 1 + i);
  }
  EXPECT_EQ(slice.back().round, violation.round);
  // The last slice record's running violation depth is the frozen
  // measurement itself: the first violating round sets the new maximum.
  EXPECT_EQ(slice.back().violation_depth, violation.measured);
}

TEST(Oracle, ChainGrowthWindowFires) {
  const EngineConfig config = violent_config(31);
  OracleConfig oracle_config;
  oracle_config.common_prefix = false;
  oracle_config.growth_window = 10;
  oracle_config.growth_min_blocks = 1000;  // unsatisfiable: fires at once
  InvariantOracle oracle(oracle_config);
  ExecutionEngine engine(config, build("strategy", "null", config));
  (void)engine.run(oracle.observer());

  ASSERT_TRUE(oracle.violated());
  const OracleViolation& violation = oracle.first_violation();
  EXPECT_EQ(violation.kind, InvariantKind::kChainGrowth);
  // The first checkable round is window + 1.
  EXPECT_EQ(violation.round, oracle_config.growth_window + 1);
  EXPECT_EQ(violation.bound, oracle_config.growth_min_blocks);
  EXPECT_LT(violation.measured, violation.bound);
}

TEST(Oracle, ChainQualityWindowFires) {
  // Fork-balancer publishes adversary siblings that land on the best
  // chain, so a quality floor of 1.0 (all-honest) must fail once the
  // chain is a window deep.
  const EngineConfig config = violent_config(57);
  OracleConfig oracle_config;
  oracle_config.common_prefix = false;
  oracle_config.quality_window = 8;
  oracle_config.quality_min_ratio = 1.0;
  InvariantOracle oracle(oracle_config);
  ExecutionEngine engine(config, build("strategy", "fork-balancer", config));
  (void)engine.run(oracle.observer());

  ASSERT_TRUE(oracle.violated());
  const OracleViolation& violation = oracle.first_violation();
  EXPECT_EQ(violation.kind, InvariantKind::kChainQuality);
  EXPECT_EQ(violation.bound, oracle_config.quality_window);  // ceil(1.0·8)
  EXPECT_LT(violation.measured, violation.bound);
}

TEST(Oracle, MaxRoundDepthKeepsAccumulatingAfterTheFreeze) {
  const EngineConfig config = violent_config(4242);
  OracleConfig oracle_config;
  oracle_config.common_prefix_t = 2;
  InvariantOracle oracle(oracle_config);
  ExecutionEngine engine(config, build("strategy", "fork-balancer", config));
  const RunResult result = engine.run(oracle.observer());

  ASSERT_TRUE(oracle.violated());
  // This cell's depth keeps growing long past the first violation; the
  // frozen measurement must stay put while the running max follows the
  // tracker to the end.
  EXPECT_EQ(oracle.max_round_depth(), result.violation_depth);
  EXPECT_LT(oracle.first_violation().measured, oracle.max_round_depth());
}

TEST(Oracle, AccessorsRequireAViolation) {
  OracleConfig oracle_config;
  InvariantOracle oracle(oracle_config);
  EXPECT_FALSE(oracle.violated());
  EXPECT_THROW((void)oracle.first_violation(), ContractViolation);
  EXPECT_THROW((void)oracle.violating_views(), ContractViolation);
  EXPECT_THROW((void)oracle.violation_slice(), ContractViolation);
}

}  // namespace
}  // namespace neatbound::sim
