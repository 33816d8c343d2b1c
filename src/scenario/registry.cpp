#include "scenario/registry.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/models.hpp"
#include "sim/schedule_adversary.hpp"
#include "sim/strategies.hpp"

namespace neatbound::scenario {

namespace {

[[noreturn]] void unknown_entry(const char* kind, const std::string& name,
                                const std::vector<ScenarioRegistry::EntryInfo>&
                                    registered) {
  std::string names;
  for (const auto& info : registered) {
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  throw std::runtime_error(std::string("unknown ") + kind + " \"" + name +
                           "\" (registered: " + names + ")");
}

}  // namespace

std::vector<std::string> ScenarioRegistry::keys_of(const EntryInfo& info) {
  std::vector<std::string> keys;
  keys.reserve(info.params.size());
  for (const ParamInfo& p : info.params) {
    keys.push_back(p.key);
  }
  return keys;
}

void ScenarioRegistry::register_network(EntryInfo info,
                                        NetworkFactory factory) {
  if (has_network(info.name)) {
    throw std::invalid_argument("network model \"" + info.name +
                                "\" already registered");
  }
  network_infos_.push_back(std::move(info));
  network_factories_.push_back(std::move(factory));
}

void ScenarioRegistry::register_strategy(EntryInfo info,
                                         StrategyFactory factory) {
  if (has_strategy(info.name)) {
    throw std::invalid_argument("adversary strategy \"" + info.name +
                                "\" already registered");
  }
  strategy_infos_.push_back(std::move(info));
  strategy_factories_.push_back(std::move(factory));
}

bool ScenarioRegistry::has_network(const std::string& name) const {
  for (const auto& info : network_infos_) {
    if (info.name == name) return true;
  }
  return false;
}

bool ScenarioRegistry::has_strategy(const std::string& name) const {
  for (const auto& info : strategy_infos_) {
    if (info.name == name) return true;
  }
  return false;
}

std::unique_ptr<net::DeliverySchedule> ScenarioRegistry::make_network(
    const std::string& name, const Params& params,
    const sim::EngineConfig& engine, std::uint32_t honest_count) const {
  for (std::size_t i = 0; i < network_infos_.size(); ++i) {
    if (network_infos_[i].name != name) continue;
    params.verify_only(keys_of(network_infos_[i]),
                       "network model \"" + name + "\"");
    return network_factories_[i](params, engine, honest_count);
  }
  unknown_entry("network model", name, network_infos_);
}

std::unique_ptr<sim::Adversary> ScenarioRegistry::make_strategy(
    const std::string& name, const Params& params,
    const sim::EngineConfig& engine, std::uint32_t honest_count) const {
  for (std::size_t i = 0; i < strategy_infos_.size(); ++i) {
    if (strategy_infos_[i].name != name) continue;
    params.verify_only(keys_of(strategy_infos_[i]),
                       "adversary strategy \"" + name + "\"");
    return strategy_factories_[i](params, engine, honest_count);
  }
  unknown_entry("adversary strategy", name, strategy_infos_);
}

std::unique_ptr<sim::Adversary> ScenarioRegistry::make_adversary(
    const std::string& network, const Params& network_params,
    const std::string& strategy, const Params& strategy_params,
    const sim::EngineConfig& engine) const {
  // The engine's own derivation — partition/victim tables must index the
  // exact honest range the engine will use.
  const std::uint32_t honest = sim::honest_miner_count(engine);
  auto inner = make_strategy(strategy, strategy_params, engine, honest);
  auto schedule = make_network(network, network_params, engine, honest);
  if (schedule == nullptr) return inner;  // "strategy": no delay override
  return std::make_unique<sim::ScheduleAdversary>(network, std::move(schedule),
                                                  std::move(inner));
}

// ---------------------------------------------------------------------------
// Built-in network models
// ---------------------------------------------------------------------------

void register_builtin_networks(ScenarioRegistry& registry) {
  registry.register_network(
      {"strategy",
       "delays chosen by the adversary strategy's own honest_delay (what "
       "every hand-written bench does)",
       {}},
      [](const Params&, const sim::EngineConfig&, std::uint32_t) {
        return std::unique_ptr<net::DeliverySchedule>();
      });

  registry.register_network(
      {"immediate", "synchronous baseline: every message arrives next round",
       {}},
      [](const Params&, const sim::EngineConfig& engine, std::uint32_t) {
        return std::unique_ptr<net::DeliverySchedule>(
            std::make_unique<net::ImmediateDelivery>(engine.delta));
      });

  registry.register_network(
      {"max-delay", "worst-case benign delivery: everything takes the full Δ",
       {}},
      [](const Params&, const sim::EngineConfig& engine, std::uint32_t) {
        return std::unique_ptr<net::DeliverySchedule>(
            std::make_unique<net::MaxDelayDelivery>(engine.delta));
      });

  registry.register_network(
      {"uniform",
       "jittery non-adversarial network: delays uniform on [1, Δ], seeded "
       "from the run's engine seed",
       {{"salt", "default 0; mixed into the delay stream seed"}}},
      [](const Params& params, const sim::EngineConfig& engine,
         std::uint32_t) {
        const std::uint64_t salt = params.get_uint("salt", 0);
        // The delay of (round, sender, recipient) is a pure function of
        // the run key — skipped, stepped and replayed runs read identical
        // delays.  The salt shifts the cell word so two salted models on
        // one run stay independent.
        crng::Key key = sim::engine_rng_key(engine);
        key.cell ^= mix64(0x756e69666f726dULL + salt);  // "uniform"
        return std::unique_ptr<net::DeliverySchedule>(
            std::make_unique<net::CounterUniformDelay>(engine.delta, key));
      });

  registry.register_network(
      {"split",
       "static partition: same-side messages next round, cross-side the "
       "full Δ",
       {{"split_fraction", "default 0.5; first group share of honest miners"}}},
      [](const Params& params, const sim::EngineConfig& engine,
         std::uint32_t honest_count) {
        const double fraction = params.get_number("split_fraction", 0.5);
        if (!(fraction > 0.0) || !(fraction < 1.0)) {
          throw std::runtime_error(
              "network model \"split\": split_fraction must be in (0, 1)");
        }
        const auto first = static_cast<std::uint32_t>(
            std::llround(fraction * static_cast<double>(honest_count)));
        if (first == 0 || first >= honest_count) {
          throw std::runtime_error(
              "network model \"split\": split_fraction " +
              std::to_string(fraction) + " leaves a side empty (" +
              std::to_string(honest_count) + " honest miners)");
        }
        std::vector<std::uint8_t> group(honest_count, 1);
        for (std::uint32_t m = 0; m < first && m < honest_count; ++m) {
          group[m] = 0;
        }
        return std::unique_ptr<net::DeliverySchedule>(
            std::make_unique<net::SplitDelivery>(engine.delta,
                                                 std::move(group)));
      });

  registry.register_network(
      {"bursty",
       "alternating calm/congested windows: delay 1 when calm, Δ inside a "
       "burst of burst_length rounds every period rounds",
       {{"period", "default 2Δ"},
        {"burst_length", "default Δ"},
        {"phase", "default 0"}}},
      [](const Params& params, const sim::EngineConfig& engine,
         std::uint32_t) {
        const std::uint64_t period =
            params.get_uint("period", 2 * engine.delta);
        const std::uint64_t burst =
            params.get_uint("burst_length", engine.delta);
        const std::uint64_t phase = params.get_uint("phase", 0);
        return std::unique_ptr<net::DeliverySchedule>(
            std::make_unique<net::BurstyDelivery>(engine.delta, period, burst,
                                                  phase));
      });

  registry.register_network(
      {"eclipse",
       "per-recipient targeting: the first `victims` honest miners receive "
       "every message at the full Δ; the rest of the network stays fast",
       {{"victims", "default max(1, honest/4)"}}},
      [](const Params& params, const sim::EngineConfig& engine,
         std::uint32_t honest_count) {
        const std::uint64_t default_victims =
            honest_count >= 4 ? honest_count / 4 : 1;
        const std::uint64_t victims =
            params.get_uint("victims", default_victims);
        if (victims > honest_count) {
          throw std::runtime_error(
              "network model \"eclipse\": more victims than honest miners");
        }
        return std::unique_ptr<net::DeliverySchedule>(
            std::make_unique<net::EclipseDelivery>(net::EclipseDelivery::first_k(
                engine.delta, honest_count,
                static_cast<std::uint32_t>(victims))));
      });
}

// ---------------------------------------------------------------------------
// Built-in adversary strategies
// ---------------------------------------------------------------------------

void register_builtin_strategies(ScenarioRegistry& registry) {
  registry.register_strategy(
      {"null", "corrupted miners idle; messages arrive next round", {}},
      [](const Params&, const sim::EngineConfig&, std::uint32_t) {
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::NullAdversary>());
      });

  registry.register_strategy(
      {"max-delay",
       "delays everything the full Δ and mines privately without ever "
       "publishing (the Theorem 1 counting regime)",
       {}},
      [](const Params&, const sim::EngineConfig& engine, std::uint32_t) {
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::MaxDelayAdversary>(engine.delta));
      });

  registry.register_strategy(
      {"private-withhold",
       "consistency attacker: private fork released once strictly longer "
       "and at least min_fork_depth deep",
       {{"min_fork_depth", "default 2"}, {"give_up_margin", "default 6"}}},
      [](const Params& params, const sim::EngineConfig&, std::uint32_t) {
        sim::PrivateWithholdAdversary::Options options;
        options.min_fork_depth =
            params.get_uint("min_fork_depth", options.min_fork_depth);
        options.give_up_margin =
            params.get_uint("give_up_margin", options.give_up_margin);
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::PrivateWithholdAdversary>(options));
      });

  registry.register_strategy(
      {"balance-attack",
       "PSS Remark 8.5 chain splitter: keeps two halves Δ apart and donates "
       "blocks to the lagging side",
       {}},
      [](const Params&, const sim::EngineConfig& engine,
         std::uint32_t honest_count) {
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::BalanceAttackAdversary>(honest_count,
                                                          engine.delta));
      });

  registry.register_strategy(
      {"selfish-mining",
       "Eyal–Sirer selfish mining: private lead, competing releases on "
       "honest discoveries",
       {{"gamma", "default 0.5; fraction hearing the attacker first"}}},
      [](const Params& params, const sim::EngineConfig&, std::uint32_t) {
        const double gamma = params.get_number("gamma", 0.5);
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::SelfishMiningAdversary>(gamma));
      });

  registry.register_strategy(
      {"fork-balancer",
       "equivocating fork balancer: splits the network with sibling pairs "
       "and keeps both branches level",
       {}},
      [](const Params&, const sim::EngineConfig& engine,
         std::uint32_t honest_count) {
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::ForkBalancerAdversary>(honest_count,
                                                         engine.delta));
      });

  registry.register_strategy(
      {"delay-saturate",
       "delay-saturating withholder: every honest delay at Δ, stubborn "
       "private fork released in minimal overtaking prefixes",
       {{"rebase_margin", "default 12"}}},
      [](const Params& params, const sim::EngineConfig&, std::uint32_t) {
        sim::DelaySaturatingWithholder::Options options;
        options.rebase_margin =
            params.get_uint("rebase_margin", options.rebase_margin);
        return std::unique_ptr<sim::Adversary>(
            std::make_unique<sim::DelaySaturatingWithholder>(options));
      });
}

const ScenarioRegistry& ScenarioRegistry::builtin() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    register_builtin_networks(r);
    register_builtin_strategies(r);
    return r;
  }();
  return registry;
}

}  // namespace neatbound::scenario
