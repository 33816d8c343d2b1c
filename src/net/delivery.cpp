#include "net/delivery.hpp"

#include <algorithm>
#include <bit>

#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::net {

namespace {
constexpr std::uint64_t kInitialSpan = 16;  ///< ring buckets at construction
}  // namespace

DeliveryCalendar::DeliveryCalendar(std::uint32_t recipient_count)
    : recipient_count_(recipient_count), buckets_(kInitialSpan) {
  NEATBOUND_EXPECTS(recipient_count > 0, "need at least one recipient");
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// re-bucketing the ring is rare by design (power-of-two growth capped at
// kMaxSpan), and schedule() only enters it when the horizon is exceeded.
void DeliveryCalendar::grow(std::uint64_t span) {
  NEATBOUND_COUNT(kCalendarGrows);
  const std::uint64_t old_size = buckets_.size();
  std::vector<std::vector<Entry>> grown(std::bit_ceil(span));
  // Every pending entry lives in [base_round_, base_round_ + old span);
  // move each round's bucket wholesale to its slot in the wider ring.
  for (std::uint64_t r = base_round_; r < base_round_ + old_size; ++r) {
    grown[r & (grown.size() - 1)] = std::move(buckets_[r & (old_size - 1)]);
  }
  buckets_ = std::move(grown);
  // Re-bucketing must preserve every pending entry: the new ring holds
  // exactly pending_ messages, all within the live window.
  NEATBOUND_INVARIANT(
      [&] {
        std::size_t total = 0;
        for (const std::vector<Entry>& bucket : buckets_) {
          total += bucket.size();
        }
        return total == pending_;
      }(),
      "grow() lost or duplicated pending deliveries");
}

}  // namespace neatbound::net
