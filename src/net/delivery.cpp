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

void DeliveryCalendar::schedule(std::uint64_t due_round,
                                std::uint32_t recipient,
                                protocol::BlockIndex block) {
  NEATBOUND_EXPECTS(recipient < recipient_count_, "recipient out of range");
  // A message scheduled at or before an already-collected round is late,
  // not lost: it lands in the next collectable bucket.
  const std::uint64_t round = std::max(due_round, base_round_);
  NEATBOUND_EXPECTS(round - base_round_ < kMaxSpan,
                    "due round too far past the delivery horizon");
  if (round - base_round_ >= buckets_.size()) {
    grow(round - base_round_ + 1);
  }
  // Ring capacity: the bucket count must stay a power of two (bucket_at
  // masks with size-1) and span the scheduled round — anything else and
  // this append lands in a bucket belonging to a different round.
  NEATBOUND_INVARIANT(std::has_single_bit(buckets_.size()),
                      "calendar ring size must be a power of two");
  NEATBOUND_INVARIANT(round - base_round_ < buckets_.size(),
                      "scheduled round outside the grown ring span");
  // neatbound-analyze: allow(hot-alloc) — O(1) amortized append into a
  // ring bucket whose capacity is retained across rounds (cleared, never
  // shrunk), so steady-state scheduling allocates nothing.
  bucket_at(round).push_back(Pending{recipient, block});
  ++pending_;
  NEATBOUND_COUNT(kCalendarScheduled);
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// re-bucketing the ring is rare by design (power-of-two growth capped at
// kMaxSpan), and schedule() only enters it when the horizon is exceeded.
void DeliveryCalendar::grow(std::uint64_t span) {
  NEATBOUND_COUNT(kCalendarGrows);
  const std::uint64_t old_size = buckets_.size();
  std::vector<std::vector<Pending>> grown(std::bit_ceil(span));
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
        for (const std::vector<Pending>& bucket : buckets_) {
          total += bucket.size();
        }
        return total == pending_;
      }(),
      "grow() lost or duplicated pending deliveries");
}

}  // namespace neatbound::net
