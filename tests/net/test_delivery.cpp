#include "net/delivery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/contracts.hpp"

namespace neatbound::net {
namespace {

// Everything drain_due emits for `round`, in emission order.
std::vector<Delivery> drain(DeliveryCalendar& calendar, std::uint64_t round) {
  std::vector<Delivery> due;
  calendar.drain_due(round, [&due](const Delivery& d) { due.push_back(d); });
  return due;
}

TEST(DeliveryCalendar, DeliversAtDueRound) {
  DeliveryCalendar calendar(4);
  calendar.schedule(5, 0, 10);
  calendar.schedule(3, 1, 11);
  calendar.schedule(7, 2, 12);
  EXPECT_EQ(calendar.pending(), 3u);

  auto due3 = drain(calendar, 3);
  ASSERT_EQ(due3.size(), 1u);
  EXPECT_EQ(due3[0].recipient, 1u);
  EXPECT_EQ(due3[0].block, 11u);

  auto due6 = drain(calendar, 6);
  ASSERT_EQ(due6.size(), 1u);
  EXPECT_EQ(due6[0].block, 10u);
  EXPECT_EQ(calendar.pending(), 1u);
}

TEST(DeliveryCalendar, CollectsMultipleInDueOrder) {
  DeliveryCalendar calendar(2);
  calendar.schedule(2, 0, 1);
  calendar.schedule(1, 1, 2);
  calendar.schedule(2, 1, 3);
  const auto due = drain(calendar, 2);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].due_round, 1u);
}

TEST(DeliveryCalendar, FifoWithinARound) {
  // The calendar pins within-round order to schedule order (the old heap
  // left it unspecified); ascending due rounds between rounds.
  DeliveryCalendar calendar(4);
  calendar.schedule(3, 2, 30);
  calendar.schedule(2, 1, 20);
  calendar.schedule(3, 0, 31);
  calendar.schedule(2, 3, 21);
  calendar.schedule(3, 1, 32);
  const auto due = drain(calendar, 3);
  ASSERT_EQ(due.size(), 5u);
  const std::uint64_t expected_rounds[] = {2, 2, 3, 3, 3};
  const protocol::BlockIndex expected_blocks[] = {20, 21, 30, 31, 32};
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(due[i].due_round, expected_rounds[i]) << i;
    EXPECT_EQ(due[i].block, expected_blocks[i]) << i;
  }
}

TEST(DeliveryCalendar, GrowsPastTheInitialHorizon) {
  DeliveryCalendar calendar(2);
  const std::uint64_t start_horizon = calendar.horizon();
  calendar.schedule(1, 0, 1);
  calendar.schedule(start_horizon + 500, 1, 2);  // far beyond the ring
  EXPECT_GT(calendar.horizon(), start_horizon);
  EXPECT_EQ(calendar.pending(), 2u);
  // Both survive the re-bucketing, in due order.
  const auto due = drain(calendar, start_horizon + 500);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].block, 1u);
  EXPECT_EQ(due[1].block, 2u);
  EXPECT_EQ(due[1].due_round, start_horizon + 500);
}

TEST(DeliveryCalendar, LateScheduleClampsToNextCollect) {
  // Scheduling at or before an already-collected round may not lose the
  // message: it arrives at the next collect (late, like the old heap).
  DeliveryCalendar calendar(2);
  (void)drain(calendar, 10);
  calendar.schedule(3, 0, 7);  // round 3 already collected
  EXPECT_EQ(calendar.pending(), 1u);
  EXPECT_TRUE(drain(calendar, 10).empty());  // nothing newly due ≤ 10
  const auto due = drain(calendar, 11);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].block, 7u);
}

// Everything drain_runs emits for `round`, in emission order.
std::vector<DeliveryRun> drain_runs(DeliveryCalendar& calendar,
                                    std::uint64_t round) {
  std::vector<DeliveryRun> due;
  calendar.drain_runs(round,
                      [&due](const DeliveryRun& r) { due.push_back(r); });
  return due;
}

/// The ordering contract, checked against a reference model: draining
/// rounds 0, 1, ... emits the schedule() sequence stably sorted by due
/// round, whatever the recipient pattern that builds the runs.
void expect_stable_sort_order(const std::vector<Delivery>& inserts) {
  DeliveryCalendar calendar(8);
  for (const Delivery& d : inserts) {
    calendar.schedule(d.due_round, d.recipient, d.block);
  }
  std::vector<Delivery> drained;
  for (std::uint64_t round = 0; round <= 13; ++round) {
    for (const Delivery& d : drain(calendar, round)) {
      EXPECT_EQ(d.due_round, round);
      drained.push_back(d);
    }
  }
  std::vector<Delivery> expected = inserts;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.due_round < b.due_round;
                   });
  ASSERT_EQ(drained.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(drained[i].due_round, expected[i].due_round) << i;
    EXPECT_EQ(drained[i].recipient, expected[i].recipient) << i;
    EXPECT_EQ(drained[i].block, expected[i].block) << i;
  }
  EXPECT_EQ(calendar.pending(), 0u);
}

TEST(DeliveryCalendar, DrainDueMatchesStableSortByDueRound) {
  crng::Stream rng({5, 0}, 0, 0, crng::Purpose::kGeneric);
  const auto draw = [&rng](std::uint64_t bound) {
    return static_cast<std::uint32_t>(rng.uniform_below(bound));
  };
  std::vector<Delivery> random, contiguous, gapped, descending, interleaved;
  for (int i = 0; i < 200; ++i) {
    random.push_back(Delivery{1 + rng.uniform_below(12), draw(8), draw(50)});
  }
  // Broadcast-shaped: one block to ascending recipients, one due round
  // per block, so each block coalesces into one run.
  for (protocol::BlockIndex b = 0; b < 20; ++b) {
    const std::uint64_t due = 1 + rng.uniform_below(12);
    for (std::uint32_t r = 0; r < 8; ++r) contiguous.push_back({due, r, b});
  }
  // Ascending with holes (a sender skipped, or a random subset).
  for (protocol::BlockIndex b = 0; b < 20; ++b) {
    const std::uint64_t due = 1 + rng.uniform_below(12);
    for (std::uint32_t r = 0; r < 8; ++r) {
      if (draw(3) != 0) gapped.push_back({due, r, b});
    }
  }
  for (protocol::BlockIndex b = 0; b < 20; ++b) {
    const std::uint64_t due = 1 + rng.uniform_below(12);
    for (std::uint32_t r = 8; r-- > 0;) descending.push_back({due, r, b});
  }
  // Per-recipient delays: ascending recipients of one block spread over
  // several buckets, so each bucket's runs interleave with the others'.
  for (protocol::BlockIndex b = 0; b < 20; ++b) {
    for (std::uint32_t r = 0; r < 8; ++r) {
      interleaved.push_back({1 + rng.uniform_below(3) + b % 10, r, b});
    }
  }
  for (const auto* inserts :
       {&random, &contiguous, &gapped, &descending, &interleaved}) {
    expect_stable_sort_order(*inserts);
  }
}

TEST(DeliveryCalendar, CoalescesAscendingRecipientsIntoRuns) {
  DeliveryCalendar calendar(8);
  // A broadcast from sender 3 with one delay: everyone but the sender is
  // two runs.
  for (std::uint32_t r = 0; r < 8; ++r) {
    if (r != 3) calendar.schedule(5, r, 7);
  }
  EXPECT_EQ(calendar.pending(), 2u);
  // One publication to everyone is one run, in O(1) through the range
  // overload as well.
  for (std::uint32_t r = 0; r < 8; ++r) calendar.schedule(6, r, 8);
  EXPECT_EQ(calendar.pending(), 3u);
  calendar.schedule(7, 0, 8, 9);
  EXPECT_EQ(calendar.pending(), 4u);
  // A descending recipient starts a new run, and so does a gapped one.
  calendar.schedule(8, 5, 10);
  calendar.schedule(8, 4, 10);
  calendar.schedule(8, 6, 10);
  EXPECT_EQ(calendar.pending(), 7u);
  // A different block never extends a run, even at the next recipient.
  calendar.schedule(8, 7, 11);
  EXPECT_EQ(calendar.pending(), 8u);

  const auto r5 = drain_runs(calendar, 5);
  ASSERT_EQ(r5.size(), 2u);
  EXPECT_EQ(r5[0].lo, 0u);
  EXPECT_EQ(r5[0].hi, 3u);
  EXPECT_EQ(r5[1].lo, 4u);
  EXPECT_EQ(r5[1].hi, 8u);
  const auto r8 = drain_runs(calendar, 8);
  ASSERT_EQ(r8.size(), 6u);
  EXPECT_EQ(r8[2].lo, 5u);  // after the round-6 and round-7 runs
  EXPECT_EQ(r8[2].hi, 6u);
  EXPECT_EQ(r8[3].lo, 4u);
  EXPECT_EQ(r8[4].lo, 6u);
  EXPECT_EQ(r8[5].block, 11u);
  EXPECT_EQ(calendar.pending(), 0u);
}

TEST(DeliveryCalendar, RunExtendedDuringItsDrainIsDelivered) {
  // A callback may schedule into the bucket being drained; extending the
  // run being emitted must still deliver the new recipients, in order.
  DeliveryCalendar calendar(4);
  calendar.schedule(1, 0, 5);
  std::vector<std::uint32_t> seen;
  calendar.drain_due(1, [&](const Delivery& d) {
    seen.push_back(d.recipient);
    if (d.recipient == 0) calendar.schedule(1, 1, 5);
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(calendar.pending(), 0u);
}

TEST(DeliveryCalendar, RejectsBadRecipient) {
  DeliveryCalendar calendar(2);
  EXPECT_THROW(calendar.schedule(1, 2, 0), ContractViolation);
  EXPECT_THROW(calendar.schedule(1, 0, 3, 0), ContractViolation);
  EXPECT_THROW(calendar.schedule(1, 1, 1, 0), ContractViolation);
  EXPECT_THROW(DeliveryCalendar(0), ContractViolation);
}

TEST(DeliveryCalendar, RejectsFarFutureSchedule) {
  // Memory is O(span): a due round past kMaxSpan is a contract violation,
  // not an unbounded allocation.
  DeliveryCalendar calendar(2);
  calendar.schedule(DeliveryCalendar::kMaxSpan - 1, 0, 1);  // just inside
  EXPECT_THROW(calendar.schedule(DeliveryCalendar::kMaxSpan, 0, 2),
               ContractViolation);
  EXPECT_THROW(calendar.schedule(~std::uint64_t{0}, 0, 3),
               ContractViolation);
  // The horizon is relative to the drain point, not absolute.
  (void)drain(calendar, DeliveryCalendar::kMaxSpan);
  calendar.schedule(2 * DeliveryCalendar::kMaxSpan, 1, 4);
  EXPECT_EQ(calendar.pending(), 1u);
}

TEST(Schedules, ImmediateAlwaysOne) {
  ImmediateDelivery schedule(8);
  EXPECT_EQ(schedule.delay(0, 0, 1, 0), 1u);
}

TEST(Schedules, MaxDelayAlwaysDelta) {
  MaxDelayDelivery schedule(8);
  EXPECT_EQ(schedule.delay(0, 0, 1, 0), 8u);
}

TEST(Schedules, UniformWithinBounds) {
  CounterUniformDelay schedule(5, crng::Key{1, 0});
  bool saw_low = false, saw_high = false;
  for (std::uint64_t round = 0; round < 2000; ++round) {
    const std::uint64_t d = schedule.delay(round, 0, 1, 0);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 5u);
    saw_low |= (d == 1);
    saw_high |= (d == 5);
  }
  EXPECT_TRUE(saw_low);
  EXPECT_TRUE(saw_high);
}

TEST(Schedules, SplitKeepsGroupsApart) {
  // Miners 0,1 in group 0; miners 2,3 in group 1.
  SplitDelivery schedule(6, {0, 0, 1, 1});
  EXPECT_EQ(schedule.delay(0, 0, 1, 0), 1u);  // same group
  EXPECT_EQ(schedule.delay(0, 2, 3, 0), 1u);
  EXPECT_EQ(schedule.delay(0, 0, 2, 0), 6u);  // cross group
  EXPECT_EQ(schedule.delay(0, 3, 1, 0), 6u);
}

TEST(Schedules, SplitChecksIds) {
  SplitDelivery schedule(6, {0, 1});
  EXPECT_THROW((void)schedule.delay(0, 0, 5, 0), ContractViolation);
}

TEST(Schedules, DeltaValidation) {
  EXPECT_THROW(ImmediateDelivery(0), ContractViolation);
  EXPECT_THROW(MaxDelayDelivery(0), ContractViolation);
  EXPECT_THROW(CounterUniformDelay(0, crng::Key{1, 0}), ContractViolation);
  EXPECT_THROW(SplitDelivery(0, {0, 1}), ContractViolation);
}

}  // namespace
}  // namespace neatbound::net
