#include <gtest/gtest.h>

#include <set>

#include "protocol/hash.hpp"
#include "protocol/mining.hpp"
#include "support/crng.hpp"

namespace neatbound::protocol {
namespace {

TEST(RandomOracle, Deterministic) {
  const RandomOracle a(42), b(42);
  EXPECT_EQ(a.query(1, 2, 3), b.query(1, 2, 3));
}

TEST(RandomOracle, SeedSeparation) {
  const RandomOracle a(42), b(43);
  EXPECT_NE(a.query(1, 2, 3), b.query(1, 2, 3));
}

TEST(RandomOracle, InputSensitivity) {
  const RandomOracle oracle(7);
  const HashValue base = oracle.query(10, 20, 30);
  EXPECT_NE(oracle.query(11, 20, 30), base);
  EXPECT_NE(oracle.query(10, 21, 30), base);
  EXPECT_NE(oracle.query(10, 20, 31), base);
}

TEST(RandomOracle, VerifyMatchesQuery) {
  const RandomOracle oracle(7);
  const HashValue h = oracle.query(1, 2, 3);
  EXPECT_TRUE(oracle.verify(1, 2, 3, h));
  EXPECT_FALSE(oracle.verify(1, 2, 3, h ^ 1));
  EXPECT_FALSE(oracle.verify(2, 2, 3, h));
}

TEST(RandomOracle, OutputLooksUniform) {
  // Bucket the top 3 bits of 80k queries; chi-square against uniform.
  const RandomOracle oracle(11);
  std::vector<int> buckets(8, 0);
  const int reps = 80000;
  for (int i = 0; i < reps; ++i) {
    ++buckets[oracle.query(static_cast<HashValue>(i), 0, 0) >> 61];
  }
  double chi2 = 0.0;
  const double expected = reps / 8.0;
  for (const int b : buckets) {
    chi2 += (b - expected) * (b - expected) / expected;
  }
  // 7 dof: P[chi2 > 24.3] ≈ 0.001.
  EXPECT_LT(chi2, 24.3);
}

TEST(TryMine, AssembledIdsAreCollisionFree) {
  // The paper's second requirement of the oracle: distinct queries give
  // distinct block ids.  Sibling blocks share parent and payload and
  // differ only in their Philox nonce.
  const RandomOracle oracle(3);
  crng::Stream nonces(crng::Key{5, 0}, 0, 0, crng::Purpose::kGeneric);
  std::set<HashValue> ids;
  const std::size_t blocks = 100000;
  for (std::size_t i = 0; i < blocks; ++i) {
    ids.insert(assemble_block(oracle, /*parent_hash=*/1234,
                              /*payload_digest=*/5678, nonces.bits())
                   .hash);
  }
  EXPECT_EQ(ids.size(), blocks);
}

TEST(TryMine, AssembledBlockVerifies) {
  const RandomOracle oracle(9);
  crng::Stream nonces(crng::Key{2, 0}, 0, 0, crng::Purpose::kGeneric);
  for (int i = 0; i < 100; ++i) {
    const Block block = assemble_block(oracle, 1234, 5678, nonces.bits());
    EXPECT_TRUE(oracle.verify(1234, block.nonce, 5678, block.hash));
    EXPECT_FALSE(oracle.verify(1235, block.nonce, 5678, block.hash));
    EXPECT_EQ(block.parent_hash, 1234u);
    EXPECT_EQ(block.payload_digest, 5678u);
  }
}

}  // namespace
}  // namespace neatbound::protocol
