// The Δ-delay asynchronous network (Section III, adversary capability ①).
//
// A block broadcast at the end of round r reaches recipient i at the start
// of round r + d, where the delay d is chosen per (message, recipient) by
// a DeliverySchedule with 1 ≤ d ≤ Δ.  d = 1 is "next round" (the fastest
// physically meaningful delivery in the round model); d = Δ saturates the
// adversary's delaying power.  The adversary may not drop or modify
// messages — only the delay is under its control — which the queue
// enforces by construction.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "protocol/block.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"
#include "support/hot.hpp"
#include "support/invariant.hpp"

namespace neatbound::net {

/// A block announcement in flight to one recipient.
struct Delivery {
  std::uint64_t due_round = 0;
  std::uint32_t recipient = 0;
  protocol::BlockIndex block = 0;
};

/// Round-indexed delivery calendar for all recipients: a flat ring buffer
/// of per-round buckets.  Δ is small and bounded, so every in-flight
/// message lives within a narrow window of future rounds — a
/// bucket-per-round ring makes schedule() an O(1) vector append and the
/// per-round drain a contiguous sweep, where any ordered container would
/// pay comparisons and pointer chasing on the T×n hot path.
///
/// Ordering contract: collect_due/drain_due emit strictly ascending due
/// rounds, FIFO (schedule order) within a round.  Determinism therefore
/// depends only on the schedule() call sequence.  (The previous
/// binary-heap implementation left within-round order unspecified-but-
/// deterministic; the calendar pins it to schedule order.)
///
/// The window grows on demand: scheduling past the current horizon
/// re-buckets into a larger power-of-two ring, up to kMaxSpan rounds
/// ahead (memory is O(span), so a far-future due round is a contract
/// violation rather than an unbounded allocation).  Scheduling at or
/// before an already-collected round is clamped to the next collectable
/// round — the message is late, not lost.
class DeliveryCalendar {
 public:
  /// Hard bound on how far ahead of the drain point a delivery may be
  /// scheduled.  The engine needs at most 2Δ + 1; 2^20 rounds leaves
  /// four orders of magnitude of headroom over any simulated Δ.
  static constexpr std::uint64_t kMaxSpan = std::uint64_t{1} << 20;

  explicit DeliveryCalendar(std::uint32_t recipient_count);

  /// Schedules `block` to reach `recipient` at `due_round`, which must
  /// lie less than kMaxSpan rounds past the earliest uncollected round.
  NEATBOUND_HOT void schedule(std::uint64_t due_round,
                              std::uint32_t recipient,
                              protocol::BlockIndex block);

  /// Pops everything due at or before `round` for all recipients; the
  /// result is grouped as (recipient, block) pairs in due order (see the
  /// ordering contract above).
  [[nodiscard]] std::vector<Delivery> collect_due(std::uint64_t round);

  /// Zero-allocation drain: invokes `fn(delivery)` for everything due at
  /// or before `round`, in exactly collect_due's order.  The engine's
  /// per-round hot path; bucket storage is retained for reuse.
  template <typename Fn>
  NEATBOUND_HOT void drain_due(std::uint64_t round, Fn&& fn) {
    // bucket_at masks with size-1: a non-power-of-two ring would map
    // rounds onto the wrong buckets and deliveries would silently swap
    // rounds.
    NEATBOUND_INVARIANT(std::has_single_bit(buckets_.size()),
                        "calendar ring size must be a power of two");
    if (pending_ == 0) {
      if (round >= base_round_) base_round_ = round + 1;
      return;
    }
    while (base_round_ <= round) {
      // Re-fetch the bucket every step: schedule() during the callback
      // may append to this very bucket (same-round delivery) or grow the
      // ring (reallocating buckets_); index-based access stays valid
      // through both.
      for (std::size_t i = 0; i < bucket_at(base_round_).size(); ++i) {
        const Pending p = bucket_at(base_round_)[i];
        --pending_;
        fn(Delivery{base_round_, p.recipient, p.block});
      }
      bucket_at(base_round_).clear();
      ++base_round_;
      if (pending_ == 0) {
        base_round_ = round >= base_round_ ? round + 1 : base_round_;
        break;
      }
    }
  }

  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// True iff anything is due at or before `round`.  Advances past empty
  /// buckets exactly as drain_due would, so interleaving has_due with
  /// drain_due keeps the ring state identical to calling drain_due alone
  /// — the engine's quiet-round check relies on that equivalence.
  // neatbound-analyze: allow(hot-hygiene) — mutating by design: the whole
  // point is to advance base_round_ exactly as drain_due would.
  [[nodiscard]] NEATBOUND_HOT bool has_due(std::uint64_t round) noexcept {
    NEATBOUND_INVARIANT(std::has_single_bit(buckets_.size()),
                        "calendar ring size must be a power of two");
    if (pending_ == 0) {
      if (round >= base_round_) base_round_ = round + 1;
      return false;
    }
    while (base_round_ <= round && bucket_at(base_round_).empty()) {
      ++base_round_;
    }
    return base_round_ <= round;
  }

  /// next_due_round's "nothing pending" sentinel.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Earliest round ≥ `from` with something due, or kNever when nothing
  /// is pending.  Pure lookahead (never advances the ring) for the
  /// quiet-round bulk skip: callers probe it only after has_due(from)
  /// returned false, so every pending entry sits in (from, from + span].
  [[nodiscard]] std::uint64_t next_due_round(std::uint64_t from) const
      noexcept {
    if (pending_ == 0) return kNever;
    const std::uint64_t start = from > base_round_ ? from : base_round_;
    const std::uint64_t end = base_round_ + buckets_.size();
    for (std::uint64_t r = start; r < end; ++r) {
      if (!buckets_[r & (buckets_.size() - 1)].empty()) return r;
    }
    return kNever;
  }

  /// Rounds the ring currently spans (diagnostic; grows on demand).
  [[nodiscard]] std::uint64_t horizon() const noexcept {
    return buckets_.size();
  }

 private:
  struct Pending {
    std::uint32_t recipient = 0;
    protocol::BlockIndex block = 0;
  };

  [[nodiscard]] std::vector<Pending>& bucket_at(std::uint64_t round) {
    return buckets_[round & (buckets_.size() - 1)];
  }
  /// Re-buckets into a ring spanning at least `span` rounds.
  void grow(std::uint64_t span);

  std::uint32_t recipient_count_;
  std::uint64_t base_round_ = 0;  ///< earliest round not yet collected
  std::size_t pending_ = 0;
  /// Power-of-two bucket count; bucket for round r is r mod size.
  std::vector<std::vector<Pending>> buckets_;
};

/// Chooses per-(message, recipient) delays, within [1, Δ].
class DeliverySchedule {
 public:
  virtual ~DeliverySchedule() = default;

  /// Delay for `block` broadcast by `sender` at `round`, toward `recipient`.
  /// Must return a value in [1, max_delay()].
  [[nodiscard]] virtual std::uint64_t delay(std::uint64_t round,
                                            std::uint32_t sender,
                                            std::uint32_t recipient,
                                            protocol::BlockIndex block) = 0;

  [[nodiscard]] virtual std::uint64_t max_delay() const noexcept = 0;
};

/// Synchronous baseline: every message arrives next round.
class ImmediateDelivery final : public DeliverySchedule {
 public:
  explicit ImmediateDelivery(std::uint64_t delta) : delta_(delta) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  [[nodiscard]] std::uint64_t delay(std::uint64_t, std::uint32_t,
                                    std::uint32_t,
                                    protocol::BlockIndex) override {
    return 1;
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
};

/// Worst-case benign adversary: everything takes the full Δ.
class MaxDelayDelivery final : public DeliverySchedule {
 public:
  explicit MaxDelayDelivery(std::uint64_t delta) : delta_(delta) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  [[nodiscard]] std::uint64_t delay(std::uint64_t, std::uint32_t,
                                    std::uint32_t,
                                    protocol::BlockIndex) override {
    return delta_;
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
};

/// Random delays uniform on [1, Δ] — a non-adversarial jittery network.
/// Every delay is a pure function of (key, round, sender, recipient) — no
/// stream state — so stepped, quiet-skipped and replayed runs read
/// identical delays regardless of draw order.  Each honest miner
/// broadcasts at most one block per round, so (round, sender, recipient)
/// addresses every delay draw uniquely.
class CounterUniformDelay final : public DeliverySchedule {
 public:
  CounterUniformDelay(std::uint64_t delta, crng::Key key)
      : delta_(delta), key_(key) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  // neatbound-analyze: allow(contract-coverage) — pure function of its
  // arguments; the only precondition (Δ ≥ 1) is enforced at construction.
  [[nodiscard]] std::uint64_t delay(std::uint64_t round, std::uint32_t sender,
                                    std::uint32_t recipient,
                                    protocol::BlockIndex) override {
    if (delta_ == 1) return 1;
    crng::Stream stream(key_, round,
                        (static_cast<std::uint64_t>(sender) << 32) | recipient,
                        crng::Purpose::kNetDelay);
    return 1 + stream.uniform_below(delta_);
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
  crng::Key key_;
};

/// Partition-keeping schedule: recipients in the sender's group get the
/// message next round; the other group gets it after the full Δ.  This is
/// the delivery half of the PSS chain-splitting attack.
class SplitDelivery final : public DeliverySchedule {
 public:
  /// `group_of[i]` ∈ {0, 1} assigns each miner to a side.
  SplitDelivery(std::uint64_t delta, std::vector<std::uint8_t> group_of)
      : delta_(delta), group_of_(std::move(group_of)) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  [[nodiscard]] std::uint64_t delay(std::uint64_t, std::uint32_t sender,
                                    std::uint32_t recipient,
                                    protocol::BlockIndex) override {
    NEATBOUND_EXPECTS(sender < group_of_.size() &&
                          recipient < group_of_.size(),
                      "miner id out of range");
    return group_of_[sender] == group_of_[recipient] ? 1 : delta_;
  }
  [[nodiscard]] std::uint64_t max_delay() const noexcept override {
    return delta_;
  }

 private:
  std::uint64_t delta_;
  std::vector<std::uint8_t> group_of_;
};

}  // namespace neatbound::net
