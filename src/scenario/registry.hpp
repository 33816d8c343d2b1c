// The scenario registry: string-keyed factories for network models
// (net::DeliverySchedule variants) and adversary strategies
// (sim::Adversary implementations), so scenario files select both by name
// instead of recompiling a bench.
//
// A *network model* decides per-(message, recipient) honest delays; a
// *strategy* decides what the corrupted miners do.  The engine sources
// both powers from one Adversary object, so composition works like this:
//   * model "strategy" (the default) leaves delays to the strategy's own
//     honest_delay — exactly as when the strategy is handed to the engine
//     directly;
//   * any other model wraps the strategy in a sim::ScheduleAdversary,
//     overriding delays with the model's DeliverySchedule.
//
// Every entry declares the parameter keys it accepts; unknown keys in a
// scenario file are an error (verify_only), never a silent default.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/delivery.hpp"
#include "scenario/params.hpp"
#include "sim/engine.hpp"
#include "sim/adversary.hpp"

namespace neatbound::scenario {

class ScenarioRegistry {
 public:
  /// Builds a delivery schedule for one engine run (seed already set in
  /// `engine`).  Must be thread-safe: called once per (cell × seed) job.
  using NetworkFactory = std::function<std::unique_ptr<net::DeliverySchedule>(
      const Params&, const sim::EngineConfig& engine,
      std::uint32_t honest_count)>;
  /// Builds a strategy for one engine run; same concurrency contract.
  using StrategyFactory = std::function<std::unique_ptr<sim::Adversary>(
      const Params&, const sim::EngineConfig& engine,
      std::uint32_t honest_count)>;

  struct ParamInfo {
    std::string key;       ///< what verify_only checks against
    std::string describe;  ///< default + meaning, for list output
  };
  struct EntryInfo {
    std::string name;
    std::string summary;
    std::vector<ParamInfo> params;  ///< accepted parameter keys
  };

  /// Registration; throws std::invalid_argument on a duplicate name.
  void register_network(EntryInfo info, NetworkFactory factory);
  void register_strategy(EntryInfo info, StrategyFactory factory);

  [[nodiscard]] const std::vector<EntryInfo>& network_models() const noexcept {
    return network_infos_;
  }
  [[nodiscard]] const std::vector<EntryInfo>& adversary_strategies()
      const noexcept {
    return strategy_infos_;
  }
  [[nodiscard]] bool has_network(const std::string& name) const;
  [[nodiscard]] bool has_strategy(const std::string& name) const;

  /// Validates `params` against the entry's declared keys, then builds.
  /// The "strategy" network model returns nullptr (no schedule override).
  /// Unknown names throw std::runtime_error listing what is registered.
  [[nodiscard]] std::unique_ptr<net::DeliverySchedule> make_network(
      const std::string& name, const Params& params,
      const sim::EngineConfig& engine, std::uint32_t honest_count) const;
  [[nodiscard]] std::unique_ptr<sim::Adversary> make_strategy(
      const std::string& name, const Params& params,
      const sim::EngineConfig& engine, std::uint32_t honest_count) const;

  /// Composes network model × strategy into the engine's one Adversary.
  [[nodiscard]] std::unique_ptr<sim::Adversary> make_adversary(
      const std::string& network, const Params& network_params,
      const std::string& strategy, const Params& strategy_params,
      const sim::EngineConfig& engine) const;

  /// The registry with every built-in model and strategy registered.
  [[nodiscard]] static const ScenarioRegistry& builtin();

 private:
  [[nodiscard]] static std::vector<std::string> keys_of(const EntryInfo& info);

  std::vector<EntryInfo> network_infos_;
  std::vector<NetworkFactory> network_factories_;
  std::vector<EntryInfo> strategy_infos_;
  std::vector<StrategyFactory> strategy_factories_;
};

/// Installs the built-in entries into `registry` (what builtin() uses);
/// exposed so tests can build registries with extras on top.
void register_builtin_networks(ScenarioRegistry& registry);
void register_builtin_strategies(ScenarioRegistry& registry);

}  // namespace neatbound::scenario
