// Structured Δ-delay network models beyond the fixed schedules in
// delivery.hpp.  Each one is a DeliverySchedule the adversary (or a
// benign-but-adversarially-timed network) could realize within the model's
// only freedom — per-(message, recipient) delays in [1, Δ]:
//
// * BurstyDelivery  — the network alternates between calm windows
//                     (next-round delivery) and congestion bursts
//                     (full-Δ delivery).  A round r is inside a burst iff
//                     (r + phase) mod period < burst_length.  This is the
//                     "partition window" regime: repeated Δ-long outages
//                     rather than a constant slowdown.
// * EclipseDelivery — per-recipient targeting: a fixed set of victim
//                     miners receives every message at the full Δ while
//                     the rest of the network stays fast.  Models an
//                     eclipse-style attack on a minority of players, the
//                     strongest per-recipient discrimination the Δ model
//                     admits (victims cannot be cut off outright).
//
// Together with delivery.hpp's ImmediateDelivery / MaxDelayDelivery /
// CounterUniformDelay / SplitDelivery these are the network models the
// scenario registry exposes by name.
#pragma once

#include <cstdint>
#include <vector>

#include "net/delivery.hpp"
#include "support/contracts.hpp"

namespace neatbound::net {

/// Alternating calm/burst windows; delay 1 when calm, Δ inside a burst.
class BurstyDelivery final : public DeliverySchedule {
 public:
  /// `period` is the cycle length in rounds, `burst_length` ≤ period the
  /// number of congested rounds per cycle, `phase` shifts the cycle start.
  BurstyDelivery(std::uint64_t delta, std::uint64_t period,
                 std::uint64_t burst_length, std::uint64_t phase = 0)
      : delta_(delta),
        period_(period),
        burst_length_(burst_length),
        phase_(phase) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
    NEATBOUND_EXPECTS(period >= 1, "burst period must be >= 1");
    NEATBOUND_EXPECTS(burst_length <= period,
                      "burst length cannot exceed the period");
  }

  [[nodiscard]] bool in_burst(std::uint64_t round) const noexcept {
    return (round + phase_) % period_ < burst_length_;
  }

  [[nodiscard]] std::uint64_t delay(std::uint64_t round, std::uint32_t,
                                    std::uint32_t,
                                    protocol::BlockIndex) override {
    return in_burst(round) ? delta_ : 1;
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
  std::uint64_t period_;
  std::uint64_t burst_length_;
  std::uint64_t phase_;
};

/// Per-recipient eclipse targeting: victims always wait the full Δ.
class EclipseDelivery final : public DeliverySchedule {
 public:
  /// `victim[i]` marks recipient i as eclipsed.  At least one entry so the
  /// recipient-id bounds check below is meaningful.
  EclipseDelivery(std::uint64_t delta, std::vector<bool> victim)
      : delta_(delta), victim_(std::move(victim)) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
    NEATBOUND_EXPECTS(!victim_.empty(), "victim table must not be empty");
  }

  /// Convenience: eclipse the first `victim_count` of `recipient_count`.
  static EclipseDelivery first_k(std::uint64_t delta,
                                 std::uint32_t recipient_count,
                                 std::uint32_t victim_count) {
    NEATBOUND_EXPECTS(victim_count <= recipient_count,
                      "more victims than recipients");
    std::vector<bool> victim(recipient_count, false);
    for (std::uint32_t i = 0; i < victim_count; ++i) victim[i] = true;
    return EclipseDelivery(delta, std::move(victim));
  }

  [[nodiscard]] bool is_victim(std::uint32_t recipient) const {
    NEATBOUND_EXPECTS(recipient < victim_.size(), "recipient out of range");
    return victim_[recipient];
  }

  [[nodiscard]] std::uint64_t delay(std::uint64_t, std::uint32_t,
                                    std::uint32_t recipient,
                                    protocol::BlockIndex) override {
    return is_victim(recipient) ? delta_ : 1;
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
  std::vector<bool> victim_;
};

}  // namespace neatbound::net
