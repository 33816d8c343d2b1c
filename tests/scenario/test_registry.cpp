#include "scenario/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/engine.hpp"
#include "support/json.hpp"

namespace neatbound::scenario {
namespace {

sim::EngineConfig small_engine() {
  sim::EngineConfig engine;
  engine.miner_count = 12;
  engine.adversary_fraction = 0.25;
  engine.p = 0.02;
  engine.delta = 3;
  engine.rounds = 120;
  engine.seed = 5;
  return engine;
}

Params params_from(const char* json) {
  return Params::from_object(support::parse_json(json), {});
}

TEST(Registry, ExposesRequiredComponentCounts) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  // The acceptance bar: ≥ 3 network models and ≥ 7 adversary strategies.
  EXPECT_GE(registry.network_models().size(), 3u);
  EXPECT_GE(registry.adversary_strategies().size(), 7u);
  for (const char* model : {"strategy", "immediate", "max-delay", "uniform",
                            "split", "bursty", "eclipse"}) {
    EXPECT_TRUE(registry.has_network(model)) << model;
  }
  for (const char* strategy :
       {"null", "max-delay", "private-withhold", "balance-attack",
        "selfish-mining", "fork-balancer", "delay-saturate"}) {
    EXPECT_TRUE(registry.has_strategy(strategy)) << strategy;
  }
}

TEST(Registry, EveryStrategyRunsOnEveryNetworkModel) {
  // The full cross product, each through a real (tiny) engine run: every
  // registered component is exercised end to end, and composition via
  // ScheduleAdversary holds for arbitrary pairs.
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  for (const auto& model : registry.network_models()) {
    for (const auto& strategy : registry.adversary_strategies()) {
      const sim::EngineConfig engine_config = small_engine();
      auto adversary =
          registry.make_adversary(model.name, Params{}, strategy.name,
                                  Params{}, engine_config);
      ASSERT_NE(adversary, nullptr) << model.name << "+" << strategy.name;
      if (model.name == "strategy") {
        EXPECT_STREQ(adversary->name(), strategy.name.c_str());
      } else {
        EXPECT_EQ(std::string(adversary->name()),
                  model.name + "+" + strategy.name);
      }
      sim::ExecutionEngine engine(engine_config, std::move(adversary));
      const sim::RunResult result = engine.run();
      EXPECT_GE(result.store_size, 1u)
          << model.name << "+" << strategy.name;
    }
  }
}

TEST(Registry, StrategyModelLeavesDelaysToTheStrategy) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  EXPECT_EQ(registry.make_network("strategy", Params{}, engine_config,
                                  sim::honest_miner_count(engine_config)),
            nullptr);
  EXPECT_NE(registry.make_network("eclipse", Params{}, engine_config,
                                  sim::honest_miner_count(engine_config)),
            nullptr);
}

TEST(Registry, ComponentParametersReachTheFactories) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  const std::uint32_t honest = sim::honest_miner_count(engine_config);

  // Valid parameters build fine.
  (void)registry.make_network("bursty",
                              params_from(R"({"period": 9, "burst_length": 4,
                                              "phase": 1})"),
                              engine_config, honest);
  (void)registry.make_strategy(
      "private-withhold",
      params_from(R"({"min_fork_depth": 3, "give_up_margin": 9})"),
      engine_config, honest);

  // Out-of-range parameter values surface as errors, not silent clamps.
  EXPECT_THROW((void)registry.make_network(
                   "eclipse", params_from(R"({"victims": 1000})"),
                   engine_config, honest),
               std::runtime_error);
  EXPECT_THROW((void)registry.make_network(
                   "split", params_from(R"({"split_fraction": 1.5})"),
                   engine_config, honest),
               std::runtime_error);
  // A fraction that rounds to an empty side is no partition at all.
  EXPECT_THROW((void)registry.make_network(
                   "split", params_from(R"({"split_fraction": 0.01})"),
                   engine_config, honest),
               std::runtime_error);
}

// A bad bursty window is a spec error naming the model and the key, not a
// contract failure naming a source file.
TEST(Registry, BurstyRejectsBadWindows) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  const std::uint32_t honest = sim::honest_miner_count(engine_config);
  const auto error_of = [&](const char* json) -> std::string {
    try {
      (void)registry.make_network("bursty", params_from(json), engine_config,
                                  honest);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  EXPECT_EQ(error_of(R"({"period": 0})"),
            "network model \"bursty\": period must be >= 1");
  EXPECT_EQ(error_of(R"({"period": 0, "burst_length": 0})"),
            "network model \"bursty\": period must be >= 1");
  EXPECT_EQ(error_of(R"({"period": 4, "burst_length": 5})"),
            "network model \"bursty\": burst_length 5 exceeds period 4");
  // The defaults (period 2Δ = 6) bound an explicit burst_length too.
  EXPECT_EQ(error_of(R"({"burst_length": 7})"),
            "network model \"bursty\": burst_length 7 exceeds period 6");
  // The edges of the valid range build.
  EXPECT_EQ(error_of(R"({"period": 1, "burst_length": 1})"), "no error");
  EXPECT_EQ(error_of(R"({"period": 5, "burst_length": 0})"), "no error");
}

TEST(Registry, RejectsUnknownNamesAndParameters) {
  const ScenarioRegistry& registry = ScenarioRegistry::builtin();
  const sim::EngineConfig engine_config = small_engine();
  const std::uint32_t honest = sim::honest_miner_count(engine_config);

  EXPECT_THROW((void)registry.make_network("wormhole", Params{},
                                           engine_config, honest),
               std::runtime_error);
  EXPECT_THROW((void)registry.make_strategy("santa", Params{}, engine_config,
                                            honest),
               std::runtime_error);
  // Unknown parameter keys are typos, never defaults.
  EXPECT_THROW((void)registry.make_network(
                   "bursty", params_from(R"({"perod": 9})"), engine_config,
                   honest),
               std::runtime_error);
  EXPECT_THROW((void)registry.make_strategy(
                   "selfish-mining", params_from(R"({"gama": 0.3})"),
                   engine_config, honest),
               std::runtime_error);
  // Strategies with no parameters reject anything.
  EXPECT_THROW((void)registry.make_strategy(
                   "null", params_from(R"({"x": 1})"), engine_config,
                   honest),
               std::runtime_error);
}

TEST(Registry, DuplicateRegistrationThrows) {
  ScenarioRegistry registry;
  register_builtin_networks(registry);
  EXPECT_THROW(register_builtin_networks(registry), std::invalid_argument);
}

TEST(Registry, HonestCountMatchesEngineRounding) {
  sim::EngineConfig engine = small_engine();
  engine.miner_count = 12;
  engine.adversary_fraction = 0.25;  // llround(3.0) = 3 → 9 honest
  EXPECT_EQ(sim::honest_miner_count(engine), 9u);
  engine.miner_count = 10;
  engine.adversary_fraction = 0.25;  // llround(2.5) = 3 (half away) → 7
  EXPECT_EQ(sim::honest_miner_count(engine), 7u);
  engine.adversary_fraction = 0.0;
  EXPECT_EQ(sim::honest_miner_count(engine), 10u);
}

}  // namespace
}  // namespace neatbound::scenario
