#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "stats/intervals.hpp"
#include "stats/summary.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::stats {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> data = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats s;
  for (const double x : data) s.add(x);
  EXPECT_EQ(s.count(), data.size());
  EXPECT_NEAR(s.mean(), 5.0, 1e-12);
  // Sample variance with n−1 denominator: 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.mean(), 3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  crng::Stream rng({31, 0}, 0, 0, crng::Purpose::kGeneric);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean_before = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean_before);
  RunningStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean_before);
}

TEST(RunningStats, NumericallyStableAroundLargeOffset) {
  // Welford's point: values 10⁹ + small noise must not lose variance.
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(s.variance(), 0.25025, 1e-3);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(quantile(data, 0.0), 1.0);
  EXPECT_EQ(quantile(data, 1.0), 4.0);
  EXPECT_NEAR(quantile(data, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(quantile(data, 1.0 / 3.0), 2.0, 1e-12);
}

TEST(Quantile, RejectsEmptyAndBadQ) {
  const std::vector<double> empty;
  EXPECT_THROW((void)quantile(empty, 0.5), neatbound::ContractViolation);
  const std::vector<double> one = {1.0};
  EXPECT_THROW((void)quantile(one, 1.5), neatbound::ContractViolation);
}

TEST(MeanOf, Basics) {
  const std::vector<double> d = {1.0, 2.0, 6.0};
  EXPECT_NEAR(mean_of(d), 3.0, 1e-12);
  const std::vector<double> empty;
  EXPECT_EQ(mean_of(empty), 0.0);
}

TEST(Wilson, CentersNearPhat) {
  const Interval iv = wilson_interval(50, 100);
  EXPECT_TRUE(iv.contains(0.5));
  EXPECT_GT(iv.lo, 0.39);
  EXPECT_LT(iv.hi, 0.61);
}

TEST(Wilson, SmallCountsStayInUnitRange) {
  const Interval zero = wilson_interval(0, 10);
  EXPECT_GE(zero.lo, 0.0);
  EXPECT_GT(zero.hi, 0.0);  // does not collapse like the Wald interval
  const Interval all = wilson_interval(10, 10);
  EXPECT_LT(all.lo, 1.0);
  EXPECT_LE(all.hi, 1.0);
}

TEST(Wilson, ShrinksWithTrials) {
  const Interval small = wilson_interval(5, 10);
  const Interval large = wilson_interval(500, 1000);
  EXPECT_LT(large.width(), small.width());
}

TEST(Wilson, ContractChecks) {
  EXPECT_THROW((void)wilson_interval(5, 0), neatbound::ContractViolation);
  EXPECT_THROW((void)wilson_interval(11, 10), neatbound::ContractViolation);
}

TEST(Wilson, EmpiricalCoverage) {
  // 95% interval should cover the true p in ≈95% of repetitions.
  crng::Stream rng({77, 0}, 0, 0, crng::Purpose::kGeneric);
  const double p = 0.07;
  int covered = 0;
  const int reps = 2000;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t hits = rng.binomial(400, p);
    covered += wilson_interval(hits, 400).contains(p);
  }
  const double coverage = static_cast<double>(covered) / reps;
  EXPECT_GT(coverage, 0.92);
  EXPECT_LT(coverage, 0.985);
}

TEST(MeanInterval, SymmetricAroundMean) {
  const Interval iv = mean_interval(10.0, 2.0);
  EXPECT_NEAR((iv.lo + iv.hi) / 2.0, 10.0, 1e-12);
  EXPECT_NEAR(iv.width(), 2.0 * 1.959963984540054 * 2.0, 1e-9);
}

TEST(ZForConfidence, KnownQuantiles) {
  EXPECT_NEAR(z_for_confidence(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(z_for_confidence(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(z_for_confidence(0.90), 1.644854, 1e-4);
  EXPECT_NEAR(z_for_confidence(0.999), 3.290527, 1e-4);
}

TEST(ZForConfidence, RejectsOutOfRange) {
  EXPECT_THROW((void)z_for_confidence(0.0), neatbound::ContractViolation);
  EXPECT_THROW((void)z_for_confidence(1.0), neatbound::ContractViolation);
}

TEST(Wilson, EdgeCountsAreFiniteAndOrdered) {
  // k = 0: pinned to 0 on the left (up to rounding), open on the right
  // (hi = z²/(n+z²)).
  const Interval none = wilson_interval(0, 25);
  EXPECT_NEAR(none.lo, 0.0, 1e-12);
  const double z2 = 1.959963984540054 * 1.959963984540054;
  EXPECT_NEAR(none.hi, z2 / (25.0 + z2), 1e-12);
  // k = n: the mirror image — hi is exactly 1 in exact arithmetic.
  const Interval all = wilson_interval(25, 25);
  EXPECT_NEAR(all.hi, 1.0, 1e-12);
  EXPECT_NEAR(all.lo, 1.0 - none.hi, 1e-12);
  // n = 1 in all three outcomes: wide but sane.
  for (const std::uint64_t k : {std::uint64_t{0}, std::uint64_t{1}}) {
    const Interval one = wilson_interval(k, 1);
    EXPECT_GE(one.lo, 0.0);
    EXPECT_LE(one.hi, 1.0);
    EXPECT_LT(one.lo, one.hi);
    EXPECT_TRUE(one.contains(static_cast<double>(k)));
  }
  // Huge n: no overflow, width collapses toward 0 around phat.
  const Interval huge = wilson_interval(500'000'000'000ULL,
                                        1'000'000'000'000ULL);
  EXPECT_TRUE(std::isfinite(huge.lo));
  EXPECT_TRUE(std::isfinite(huge.hi));
  EXPECT_TRUE(huge.contains(0.5));
  EXPECT_LT(huge.width(), 1e-5);
}

TEST(WilsonHalfWidth, MatchesIntervalAndShrinksWithTrials) {
  EXPECT_DOUBLE_EQ(wilson_half_width(7, 20),
                   wilson_interval(7, 20).width() / 2.0);
  double previous = 1.0;
  for (const std::uint64_t n : {4ULL, 16ULL, 64ULL, 256ULL, 4096ULL}) {
    const double hw = wilson_half_width(n / 2, n);
    EXPECT_LT(hw, previous);
    previous = hw;
  }
}

/// The sequential-stopping decision is monotone along both axes the
/// adaptive sweep relies on: more trials never un-stops a proportion,
/// and a looser target stops no later than a tighter one.
TEST(PrecisionReached, MonotoneInTrialsAndTarget) {
  const double target = 0.1;
  bool reached_before = false;
  for (std::uint64_t n = 1; n <= 600; ++n) {
    const bool reached = precision_reached(n / 2, n, target);
    EXPECT_FALSE(reached_before && !reached) << "un-stopped at n=" << n;
    reached_before = reached;
  }
  EXPECT_TRUE(reached_before);

  // For a fixed (k, n), the smallest stopping target is a threshold:
  // every looser target stops too.
  const std::uint64_t k = 3, n = 60;
  bool stopped = false;
  for (const double t : {0.01, 0.05, 0.08, 0.12, 0.3}) {
    const bool now = precision_reached(k, n, t);
    EXPECT_FALSE(stopped && !now) << "non-monotone at target " << t;
    stopped = now;
  }
  EXPECT_TRUE(stopped);

  // Target 0 (the fixed-budget degenerate) never stops.
  EXPECT_FALSE(precision_reached(0, 1'000'000, 0.0));
  EXPECT_FALSE(precision_reached(0, 1'000'000, -1.0));
}

TEST(RunningStatsState, RoundTripsBitExactly) {
  RunningStats original;
  for (int i = 1; i <= 37; ++i) original.add(1.0 / i - 0.5 * (i % 3));
  const RunningStatsState state = original.state();
  const RunningStats rebuilt = RunningStats::from_state(state);
  EXPECT_EQ(rebuilt.count(), original.count());
  EXPECT_DOUBLE_EQ(rebuilt.mean(), original.mean());
  EXPECT_DOUBLE_EQ(rebuilt.variance(), original.variance());
  EXPECT_DOUBLE_EQ(rebuilt.min(), original.min());
  EXPECT_DOUBLE_EQ(rebuilt.max(), original.max());
  // Continuing the stream from the rebuilt state matches continuing the
  // original — the checkpoint/resume identity at the accumulator level.
  RunningStats a = original;
  RunningStats b = RunningStats::from_state(state);
  for (int i = 0; i < 11; ++i) {
    a.add(0.123 * i);
    b.add(0.123 * i);
  }
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());
}

}  // namespace
}  // namespace neatbound::stats
