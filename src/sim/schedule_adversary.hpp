// Composes a network model with a mining strategy.
//
// The execution engine sources honest-message delays from its Adversary
// (capability ①), so a strategy normally controls both the network and the
// corrupted miners.  ScheduleAdversary splits the two concerns: delays come
// from a net::DeliverySchedule (the *network model*), while mining,
// publication and observation are delegated to an inner Adversary (the
// *strategy*).  This is what lets the scenario registry pair any network
// model with any strategy — e.g. a private-withholding miner on a bursty
// network instead of its native always-Δ one.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "net/delivery.hpp"
#include "sim/adversary.hpp"

namespace neatbound::sim {

class ScheduleAdversary final : public Adversary {
 public:
  /// Both parts are required; the composed name is "<model>+<strategy>",
  /// where `model_name` describes the schedule.
  ScheduleAdversary(std::string model_name,
                    std::unique_ptr<net::DeliverySchedule> schedule,
                    std::unique_ptr<Adversary> strategy);

  [[nodiscard]] std::uint64_t honest_delay(
      std::uint64_t round, std::uint32_t sender, std::uint32_t recipient,
      protocol::BlockIndex block) override;
  void honest_delays(std::uint64_t round, std::uint32_t sender,
                     protocol::BlockIndex block,
                     std::span<std::uint64_t> out) override;
  void on_honest_block(std::uint64_t round,
                       protocol::BlockIndex block) override;
  void act(AdversaryOps& ops) override;
  /// The decorator adds no act() behavior of its own (delays are read per
  /// broadcast, outside act), so the quiet contract is the strategy's.
  [[nodiscard]] bool quiet_act_is_noop() const override {
    return strategy_->quiet_act_is_noop();
  }
  [[nodiscard]] const char* name() const override { return name_.c_str(); }

 private:
  std::string name_;
  std::unique_ptr<net::DeliverySchedule> schedule_;
  std::unique_ptr<Adversary> strategy_;
};

}  // namespace neatbound::sim
