#include "sim/schedule_adversary.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace neatbound::sim {

ScheduleAdversary::ScheduleAdversary(
    std::string model_name, std::unique_ptr<net::DeliverySchedule> schedule,
    std::unique_ptr<Adversary> strategy)
    : schedule_(std::move(schedule)), strategy_(std::move(strategy)) {
  NEATBOUND_EXPECTS(schedule_ != nullptr, "a delivery schedule is required");
  NEATBOUND_EXPECTS(strategy_ != nullptr, "an inner strategy is required");
  name_ = model_name + "+" + strategy_->name();
}

std::uint64_t ScheduleAdversary::honest_delay(std::uint64_t round,
                                              std::uint32_t sender,
                                              std::uint32_t recipient,
                                              protocol::BlockIndex block) {
  return schedule_->delay(round, sender, recipient, block);
}

void ScheduleAdversary::honest_delays(std::uint64_t round,
                                      std::uint32_t sender,
                                      protocol::BlockIndex block,
                                      std::span<std::uint64_t> out) {
  schedule_->delays(round, sender, block, out);
}

void ScheduleAdversary::on_honest_block(std::uint64_t round,
                                        protocol::BlockIndex block) {
  strategy_->on_honest_block(round, block);
}

void ScheduleAdversary::act(AdversaryOps& ops) { strategy_->act(ops); }

}  // namespace neatbound::sim
