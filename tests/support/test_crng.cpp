#include "support/crng.hpp"

#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <set>
#include <vector>

namespace neatbound::crng {
namespace {

// ---------------------------------------------------------------------------
// Known-answer tests: vectors generated by an independent implementation
// (scripts/gen_crng_vectors.py); the first three rows are the upstream
// Random123 kat_vectors entries for philox4x64-10.
// ---------------------------------------------------------------------------

struct KatRow {
  std::uint64_t c0, c1, c2, c3, k0, k1, out0, out1, out2, out3;
};

constexpr KatRow kKat[] = {
#include "crng_vectors.inc"
};

TEST(CrngKat, MatchesIndependentReference) {
  for (const KatRow& row : kKat) {
    const Block out =
        philox4x64(Counter{row.c0, row.c1, row.c2, row.c3},
                   Key{row.k0, row.k1});
    EXPECT_EQ(out[0], row.out0);
    EXPECT_EQ(out[1], row.out1);
    EXPECT_EQ(out[2], row.out2);
    EXPECT_EQ(out[3], row.out3);
  }
}

TEST(CrngKat, DrawIsLaneZero) {
  const KatRow& row = kKat[2];
  EXPECT_EQ(draw(Key{row.k0, row.k1}, Counter{row.c0, row.c1, row.c2, row.c3}),
            row.out0);
}

// ---------------------------------------------------------------------------
// Purity / addressability: a draw depends only on (key, counter), never on
// evaluation order, and distinct counters give (essentially) distinct
// outputs.
// ---------------------------------------------------------------------------

TEST(Crng, DrawIsPureAndOrderIndependent) {
  const Key key{0xABCDEF, 17};
  std::vector<std::uint64_t> forward;
  for (std::uint64_t round = 0; round < 64; ++round) {
    forward.push_back(draw(key, Counter{round, round % 7, 1, 0}));
  }
  // Re-query in reverse, interleaved with unrelated draws.
  for (std::uint64_t round = 64; round-- > 0;) {
    (void)draw(key, Counter{round + 1000, 0, 2, 0});
    EXPECT_EQ(draw(key, Counter{round, round % 7, 1, 0}),
              forward[static_cast<std::size_t>(round)]);
  }
}

TEST(Crng, CounterAndKeyWordsAllMatter) {
  const Key key{5, 6};
  const Counter base{7, 8, 9, 10};
  const std::uint64_t ref = draw(key, base);
  EXPECT_NE(draw(key, Counter{base.a ^ 1, base.b, base.purpose, base.slot}), ref);
  EXPECT_NE(draw(key, Counter{base.a, base.b ^ 1, base.purpose, base.slot}), ref);
  EXPECT_NE(draw(key, Counter{base.a, base.b, base.purpose ^ 1, base.slot}), ref);
  EXPECT_NE(draw(key, Counter{base.a, base.b, base.purpose, base.slot ^ 1}), ref);
  EXPECT_NE(draw(Key{key.cell ^ 1, key.seed}, base), ref);
  EXPECT_NE(draw(Key{key.cell, key.seed ^ 1}, base), ref);
}

TEST(Crng, StreamReplaysItsSubspace) {
  const Key key{123, 456};
  Stream a(key, 9, 2, Purpose::kGeneric);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 100; ++i) first.push_back(a.bits());
  Stream b(key, 9, 2, Purpose::kGeneric);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(b.bits(), first[static_cast<std::size_t>(i)]);
  // The stream is lanes of slot 0, 1, 2, ... of its counter prefix.
  const Block slot0 = philox4x64(
      Counter{9, 2, static_cast<std::uint64_t>(Purpose::kGeneric), 0}, key);
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(first[static_cast<std::size_t>(lane)],
              slot0[static_cast<std::size_t>(lane)]);
  }
}

TEST(Crng, StreamsOnDifferentSubspacesDiffer) {
  const Key key{1, 2};
  Stream a(key, 0, 0, Purpose::kGeneric);
  Stream b(key, 0, 1, Purpose::kGeneric);
  Stream c(key, 0, 0, Purpose::kWalk);
  int equal_ab = 0;
  int equal_ac = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t x = a.bits();
    equal_ab += (x == b.bits());
    equal_ac += (x == c.bits());
  }
  EXPECT_LE(equal_ab, 1);
  EXPECT_LE(equal_ac, 1);
}

// ---------------------------------------------------------------------------
// mix64: the stateless key/salt mixer and RandomOracle round function.
// ---------------------------------------------------------------------------

TEST(Mix64, KnownVector) {
  // The splitmix64 reference implementation's first output at seed 0 is
  // the finalizer applied to the golden-ratio increment.
  EXPECT_EQ(mix64(0x9e3779b97f4a7c15ULL), 0xe220a8397b1dcdafULL);
}

TEST(Mix64, BijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
  EXPECT_EQ(outputs.size(), 10000u);
}

// ---------------------------------------------------------------------------
// Statistical smoke battery.  Thresholds are loose (≈4σ / p < 10⁻³) so the
// tests are deterministic-stable yet still catch a broken round function,
// biased mapping, or wrong distribution arithmetic.
// ---------------------------------------------------------------------------

TEST(CrngStats, UniformUnitIntervalMoments) {
  Stream s(Key{2026, 1}, 0, 0, Purpose::kGeneric);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double u = s.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
    sum_sq += u * u;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  // Mean 1/2 (sd of the estimate ≈ 0.00065), variance 1/12.
  EXPECT_NEAR(mean, 0.5, 0.003);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.003);
}

TEST(CrngStats, UniformBelowChiSquare) {
  Stream s(Key{2026, 2}, 0, 0, Purpose::kGeneric);
  constexpr std::uint64_t kBins = 13;
  const int n = 130000;
  std::vector<int> counts(kBins, 0);
  for (int i = 0; i < n; ++i) ++counts[s.uniform_below(kBins)];
  const double expected = static_cast<double>(n) / kBins;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 12 degrees of freedom: P[chi2 > 32.9] ≈ 0.001.
  EXPECT_LT(chi2, 32.9);
}

TEST(CrngStats, BernoulliMean) {
  Stream s(Key{2026, 3}, 0, 0, Purpose::kGeneric);
  const double p = 0.3;
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += s.bernoulli(p);
  const double sd = std::sqrt(p * (1.0 - p) / n);
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 4.0 * sd);
}

TEST(CrngStats, GeometricFailuresMeanVariance) {
  Stream s(Key{2026, 6}, 0, 0, Purpose::kGeneric);
  const double p = 0.02;
  const int n = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(s.geometric_failures(p));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  const double true_mean = (1.0 - p) / p;        // 49
  const double true_var = (1.0 - p) / (p * p);   // 2450
  EXPECT_NEAR(mean, true_mean, 4.0 * std::sqrt(true_var / n));
  EXPECT_NEAR(var, true_var, 0.1 * true_var);
}

TEST(CrngStats, GeometricEdgeCases) {
  Stream s(Key{2026, 7}, 0, 0, Purpose::kGeneric);
  EXPECT_EQ(s.geometric_failures(1.0), 0u);
}

}  // namespace
}  // namespace neatbound::crng
