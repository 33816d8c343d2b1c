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

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "protocol/block.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"
#include "support/hot.hpp"
#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::net {

/// A block announcement in flight to one recipient.
struct Delivery {
  std::uint64_t due_round = 0;
  std::uint32_t recipient = 0;
  protocol::BlockIndex block = 0;
};

/// A block in flight to the contiguous recipients [lo, hi), all due in
/// the same round: one calendar entry.
struct DeliveryRun {
  std::uint64_t due_round = 0;
  protocol::BlockIndex block = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

/// Round-indexed delivery calendar for all recipients: a flat ring buffer
/// of per-round buckets.  Δ is small and bounded, so every in-flight
/// message lives within a narrow window of future rounds — a
/// bucket-per-round ring makes schedule() an O(1) vector append and the
/// per-round drain a contiguous sweep, where any ordered container would
/// pay comparisons and pointer chasing on the T×n hot path.
///
/// Entries are runs: schedule(due, recipient, block) extends the due
/// bucket's last entry when that entry carries the same block and ends
/// exactly at `recipient`, so a broadcast scheduled in ascending
/// recipient order with one delay is a single entry (two when the sender
/// is skipped).  A descending or gapped recipient starts a new entry.
///
/// Ordering contract, stated on runs: drain_runs emits strictly ascending
/// due rounds, FIFO (schedule order of each run's first recipient) within
/// a round.  Expanding every run in ascending recipient order (what
/// drain_due does) therefore reproduces the schedule() call sequence
/// stably sorted by due round — each recipient sees exactly the delivery
/// sequence an entry-per-(block, recipient) calendar would give it.
/// Determinism depends only on the schedule() call sequence.
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
  /// Inline: a publication loop calls this once per recipient, and
  /// almost every call just extends the run appended the call before.
  NEATBOUND_HOT void schedule(std::uint64_t due_round,
                              std::uint32_t recipient,
                              protocol::BlockIndex block) {
    schedule(due_round, recipient, recipient + 1, block);
  }

  /// Schedules `block` to reach every recipient in [lo, hi) at
  /// `due_round`: exactly schedule(due_round, r, block) for r = lo, ...,
  /// hi − 1 in turn, in O(1).
  NEATBOUND_HOT void schedule(std::uint64_t due_round, std::uint32_t lo,
                              std::uint32_t hi, protocol::BlockIndex block) {
    NEATBOUND_EXPECTS(lo < hi && hi <= recipient_count_,
                      "recipient out of range");
    // A message scheduled at or before an already-collected round is
    // late, not lost: it lands in the next collectable bucket.
    const std::uint64_t round =
        due_round > base_round_ ? due_round : base_round_;
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
    auto& bucket = bucket_at(round);
    if (!bucket.empty() && bucket.back().block == block &&
        bucket.back().hi == lo) {
      bucket.back().hi = hi;
      return;
    }
    // neatbound-analyze: allow(hot-alloc) — O(1) amortized append into a
    // ring bucket whose capacity is retained across rounds (cleared, never
    // shrunk), so steady-state scheduling allocates nothing.
    bucket.push_back(Entry{block, lo, hi});
    ++pending_;
    NEATBOUND_COUNT(kCalendarScheduled);
  }

  /// Pops every run due at or before `round`, invoking `fn(run)` once per
  /// run in ascending due round, schedule order within a round (the
  /// ordering contract above).  Allocates nothing: bucket storage is
  /// retained for reuse.  The engine's per-round hot path.
  template <typename Fn>
  NEATBOUND_HOT void drain_runs(std::uint64_t round, Fn&& fn) {
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
      // may append to this very bucket (same-round delivery), extend the
      // run being emitted, or grow the ring (reallocating buckets_);
      // index-based access stays valid through all three.
      for (std::size_t i = 0; i < bucket_at(base_round_).size(); ++i) {
        std::uint32_t lo = bucket_at(base_round_)[i].lo;
        while (lo < bucket_at(base_round_)[i].hi) {
          const Entry e = bucket_at(base_round_)[i];
          NEATBOUND_COUNT(kCalendarRunsDrained);
          fn(DeliveryRun{base_round_, e.block, lo, e.hi});
          lo = e.hi;
        }
        --pending_;
      }
      bucket_at(base_round_).clear();
      ++base_round_;
      if (pending_ == 0) {
        base_round_ = round >= base_round_ ? round + 1 : base_round_;
        break;
      }
    }
  }

  /// drain_runs expanded per recipient: `fn(delivery)` once per
  /// (recipient, block) pair, each run in ascending recipient order.
  // neatbound-analyze: allow(contract-coverage) — a pure expansion of
  // drain_runs, which checks the ring invariant itself.
  template <typename Fn>
  void drain_due(std::uint64_t round, Fn&& fn) {
    drain_runs(round, [&fn](const DeliveryRun& run) {
      for (std::uint32_t r = run.lo; r < run.hi; ++r) {
        fn(Delivery{run.due_round, r, run.block});
      }
    });
  }

  /// Runs (calendar entries) scheduled and not yet drained.
  [[nodiscard]] std::size_t pending() const noexcept { return pending_; }

  /// True iff anything is due at or before `round`.  Advances past empty
  /// buckets exactly as drain_runs would, so interleaving has_due with
  /// drain_runs keeps the ring state identical to calling drain_runs
  /// alone — the engine's quiet-round check relies on that equivalence.
  // neatbound-analyze: allow(hot-hygiene) — mutating by design: the whole
  // point is to advance base_round_ exactly as drain_runs would.
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
  /// A run without its due round (the bucket holds that).
  struct Entry {
    protocol::BlockIndex block = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };

  [[nodiscard]] std::vector<Entry>& bucket_at(std::uint64_t round) {
    return buckets_[round & (buckets_.size() - 1)];
  }
  /// Re-buckets into a ring spanning at least `span` rounds.
  void grow(std::uint64_t span);

  std::uint32_t recipient_count_;
  std::uint64_t base_round_ = 0;  ///< earliest round not yet collected
  std::size_t pending_ = 0;       ///< entries (runs) not yet drained
  /// Power-of-two bucket count; bucket for round r is r mod size.
  std::vector<std::vector<Entry>> buckets_;
};

/// Calls f(lo, hi, delay) once per maximal run [lo, hi) of recipients
/// that share one raw delay in `delays`, in ascending order.  `sender`
/// ends a run and is never read.  Scheduling each run in turn gives the
/// calendar exactly the entries per-recipient calls would, since it
/// extends an entry by a neighbouring run due the same round.
template <typename F>
void for_each_delay_run(std::uint32_t sender,
                        std::span<const std::uint64_t> delays, F&& f) {
  const auto n = static_cast<std::uint32_t>(delays.size());
  for (std::uint32_t lo = 0; lo < n;) {
    if (lo == sender) {
      ++lo;
      continue;
    }
    const std::uint64_t delay = delays[lo];
    const std::uint32_t end = lo < sender && sender < n ? sender : n;
    const auto hi = static_cast<std::uint32_t>(
        std::find_if(delays.begin() + lo + 1, delays.begin() + end,
                     [delay](std::uint64_t d) { return d != delay; }) -
        delays.begin());
    f(lo, hi, delay);
    lo = hi;
  }
}

/// out[r] = schedule.delay(round, sender, r, block) for every r ≠ sender
/// in ascending r; out[sender] is left untouched.  The one loop behind
/// every DeliverySchedule::delays: called with a `final` schedule, the
/// delay call is direct and inlines.
template <typename Schedule>
void fill_delays(Schedule& schedule, std::uint64_t round,
                 std::uint32_t sender, protocol::BlockIndex block,
                 std::span<std::uint64_t> out) {
  // Two branch-free loops around the sender, so a constant rule
  // vectorizes.
  const auto n = static_cast<std::uint32_t>(out.size());
  const std::uint32_t mid = sender < n ? sender : n;
  for (std::uint32_t r = 0; r < mid; ++r) {
    out[r] = schedule.delay(round, sender, r, block);
  }
  for (std::uint32_t r = mid + 1; r < n; ++r) {
    out[r] = schedule.delay(round, sender, r, block);
  }
}

/// Chooses per-(message, recipient) delays, within [1, Δ].
class DeliverySchedule {
 public:
  virtual ~DeliverySchedule() = default;

  /// Delay for `block` broadcast by `sender` at `round`, toward `recipient`.
  /// Must return a value in [1, Δ].
  [[nodiscard]] virtual std::uint64_t delay(std::uint64_t round,
                                            std::uint32_t sender,
                                            std::uint32_t recipient,
                                            protocol::BlockIndex block) = 0;

  /// Every recipient's delay for one broadcast: out[r] = delay(round,
  /// sender, r, block) for every r ≠ sender, out[sender] untouched.  The
  /// default loops over delay(); the built-in schedules override it with
  /// fill_delays(*this, ...) so the per-recipient call inlines.
  virtual void delays(std::uint64_t round, std::uint32_t sender,
                      protocol::BlockIndex block,
                      std::span<std::uint64_t> out) {
    fill_delays(*this, round, sender, block, out);
  }
};

/// Synchronous baseline: every message arrives next round.
class ImmediateDelivery final : public DeliverySchedule {
 public:
  explicit ImmediateDelivery(std::uint64_t delta) {
    NEATBOUND_EXPECTS(delta >= 1, "delta must be >= 1");
  }
  [[nodiscard]] std::uint64_t delay(std::uint64_t, std::uint32_t,
                                    std::uint32_t,
                                    protocol::BlockIndex) override {
    return 1;
  }
  void delays(std::uint64_t round, std::uint32_t sender,
              protocol::BlockIndex block,
              std::span<std::uint64_t> out) override {
    fill_delays(*this, round, sender, block, out);
  }
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
  void delays(std::uint64_t round, std::uint32_t sender,
              protocol::BlockIndex block,
              std::span<std::uint64_t> out) override {
    fill_delays(*this, round, sender, block, out);
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
  void delays(std::uint64_t round, std::uint32_t sender,
              protocol::BlockIndex block,
              std::span<std::uint64_t> out) override {
    fill_delays(*this, round, sender, block, out);
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
  void delays(std::uint64_t round, std::uint32_t sender,
              protocol::BlockIndex block,
              std::span<std::uint64_t> out) override {
    fill_delays(*this, round, sender, block, out);
  }

 private:
  std::uint64_t delta_;
  std::vector<std::uint8_t> group_of_;
};

}  // namespace neatbound::net
