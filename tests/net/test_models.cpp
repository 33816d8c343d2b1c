// Unit tests for the structured network models (bursty windows, eclipse
// targeting) and the determinism contract of DeliveryCalendar::collect_due.
#include "net/models.hpp"

#include <gtest/gtest.h>

#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::net {
namespace {

TEST(BurstyDelivery, AlternatesCalmAndBurstWindows) {
  // period 6, burst 2, phase 0: rounds 0,1 (mod 6) congested.
  BurstyDelivery schedule(5, 6, 2);
  for (std::uint64_t round = 0; round < 24; ++round) {
    const bool burst = round % 6 < 2;
    EXPECT_EQ(schedule.in_burst(round), burst) << "round " << round;
    EXPECT_EQ(schedule.delay(round, 0, 1, 0), burst ? 5u : 1u)
        << "round " << round;
  }
  EXPECT_EQ(schedule.max_delay(), 5u);
}

TEST(BurstyDelivery, PhaseShiftsTheWindow) {
  BurstyDelivery schedule(3, 4, 1, 2);
  // (round + 2) % 4 < 1 → burst at rounds 2, 6, 10, …
  EXPECT_FALSE(schedule.in_burst(0));
  EXPECT_FALSE(schedule.in_burst(1));
  EXPECT_TRUE(schedule.in_burst(2));
  EXPECT_FALSE(schedule.in_burst(3));
  EXPECT_TRUE(schedule.in_burst(6));
}

TEST(BurstyDelivery, SaturatedBurstEqualsMaxDelay) {
  // burst_length == period: permanently congested.
  BurstyDelivery schedule(4, 3, 3);
  for (std::uint64_t round = 0; round < 9; ++round) {
    EXPECT_EQ(schedule.delay(round, 0, 1, 0), 4u);
  }
}

TEST(BurstyDelivery, Validation) {
  EXPECT_THROW(BurstyDelivery(0, 4, 2), ContractViolation);
  EXPECT_THROW(BurstyDelivery(3, 0, 0), ContractViolation);
  EXPECT_THROW(BurstyDelivery(3, 4, 5), ContractViolation);
}

TEST(EclipseDelivery, VictimsWaitTheFullDelta) {
  const auto schedule = EclipseDelivery::first_k(7, 6, 2);
  for (std::uint32_t recipient = 0; recipient < 6; ++recipient) {
    const bool victim = recipient < 2;
    EXPECT_EQ(schedule.is_victim(recipient), victim);
  }
  EclipseDelivery mutable_schedule = schedule;
  EXPECT_EQ(mutable_schedule.delay(0, 3, 0, 0), 7u);
  EXPECT_EQ(mutable_schedule.delay(0, 3, 1, 0), 7u);
  EXPECT_EQ(mutable_schedule.delay(0, 0, 3, 0), 1u);
  EXPECT_EQ(mutable_schedule.delay(9, 1, 5, 0), 1u);
}

TEST(EclipseDelivery, Validation) {
  EXPECT_THROW(EclipseDelivery(0, {true}), ContractViolation);
  EXPECT_THROW(EclipseDelivery(3, {}), ContractViolation);
  EXPECT_THROW(EclipseDelivery::first_k(3, 2, 5), ContractViolation);
  EclipseDelivery schedule(3, {true, false});
  EXPECT_THROW((void)schedule.delay(0, 0, 7, 0), ContractViolation);
}

// --- DeliveryCalendar::collect_due determinism --------------------------------

TEST(DeliveryCalendarDeterminism, IdenticalScheduleIdenticalPopSequence) {
  // The same schedule() call sequence must always produce the same
  // collect_due output — engine runs are replayed bit-for-bit from a seed,
  // so any nondeterminism here would break every reproducibility test
  // upstream.  Includes heavy due-round ties (the interesting case: order
  // within a tie is the schedule order, which is a deterministic
  // function of the insertion sequence).
  crng::Stream rng({42, 0}, 0, 0, crng::Purpose::kGeneric);
  std::vector<Delivery> inserts;
  for (int i = 0; i < 500; ++i) {
    inserts.push_back(
        Delivery{1 + rng.uniform_below(20),
                 static_cast<std::uint32_t>(rng.uniform_below(8)),
                 static_cast<protocol::BlockIndex>(rng.uniform_below(100))});
  }

  const auto drain = [&inserts] {
    DeliveryCalendar queue(8);
    for (const Delivery& d : inserts) {
      queue.schedule(d.due_round, d.recipient, d.block);
    }
    std::vector<Delivery> popped;
    for (std::uint64_t round = 0; round <= 20; ++round) {
      for (const Delivery& d : queue.collect_due(round)) popped.push_back(d);
    }
    return popped;
  };

  const std::vector<Delivery> first = drain();
  const std::vector<Delivery> second = drain();
  ASSERT_EQ(first.size(), inserts.size());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].due_round, second[i].due_round) << i;
    EXPECT_EQ(first[i].recipient, second[i].recipient) << i;
    EXPECT_EQ(first[i].block, second[i].block) << i;
  }
}

TEST(DeliveryCalendarDeterminism, DueOrderIsNonDecreasingAndComplete) {
  crng::Stream rng({7, 0}, 0, 0, crng::Purpose::kGeneric);
  DeliveryCalendar queue(4);
  std::size_t scheduled = 0;
  for (int i = 0; i < 300; ++i) {
    queue.schedule(1 + rng.uniform_below(50),
                   static_cast<std::uint32_t>(rng.uniform_below(4)),
                   rng.uniform_below(1000));
    ++scheduled;
  }
  // One big collection: everything due, in non-decreasing due_round order.
  const auto due = queue.collect_due(50);
  ASSERT_EQ(due.size(), scheduled);
  for (std::size_t i = 1; i < due.size(); ++i) {
    EXPECT_LE(due[i - 1].due_round, due[i].due_round) << i;
  }
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(DeliveryCalendarDeterminism, NothingDeliveredEarly) {
  DeliveryCalendar queue(2);
  queue.schedule(10, 0, 1);
  queue.schedule(11, 1, 2);
  for (std::uint64_t round = 0; round < 10; ++round) {
    EXPECT_TRUE(queue.collect_due(round).empty()) << "round " << round;
  }
  EXPECT_EQ(queue.collect_due(10).size(), 1u);
  EXPECT_EQ(queue.collect_due(11).size(), 1u);
}

}  // namespace
}  // namespace neatbound::net
