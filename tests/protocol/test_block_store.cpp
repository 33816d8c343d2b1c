#include "protocol/block_store.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::protocol {
namespace {

/// Appends a block with a synthetic (but unique) hash under `parent`.
BlockIndex append(BlockStore& store, BlockIndex parent, HashValue hash,
                  std::uint64_t round = 1,
                  MinerClass who = MinerClass::kHonest) {
  Block b;
  b.hash = hash;
  b.parent = parent;
  b.parent_hash = store.block(parent).hash;
  b.round = round;
  b.miner_class = who;
  return store.add(b);
}

TEST(BlockStore, StartsWithGenesis) {
  const BlockStore store;
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.block(kGenesisIndex).height, 0u);
  EXPECT_EQ(store.block(kGenesisIndex).miner_class, MinerClass::kGenesis);
  EXPECT_EQ(store.hash_of(kGenesisIndex), 0u);
}

TEST(BlockStore, AddFillsHeightAndParentIndex) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100);
  const BlockIndex b = append(store, a, 200, 2);
  EXPECT_EQ(store.block(a).height, 1u);
  EXPECT_EQ(store.block(b).height, 2u);
  EXPECT_EQ(store.block(b).parent, a);
  EXPECT_EQ(store.hash_of(b), 200u);
}

TEST(BlockStore, RejectsParentIndexOutOfRange) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100);
  Block orphan;
  orphan.hash = 5;
  orphan.parent = a + 1;  // never added
  orphan.parent_hash = 100;
  EXPECT_THROW((void)store.add(std::move(orphan)), ContractViolation);
  EXPECT_EQ(store.size(), 2u);
}

TEST(BlockStore, RejectsParentHashMismatch) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100);
  append(store, kGenesisIndex, 200);
  Block child;
  child.hash = 5;
  child.parent = a;
  child.parent_hash = 200;  // a stored hash, but not the parent's
  EXPECT_THROW((void)store.add(std::move(child)), ContractViolation);
  Block orphan;
  orphan.hash = 6;
  orphan.parent_hash = 999;  // never added; parent defaults to genesis
  EXPECT_THROW((void)store.add(std::move(orphan)), ContractViolation);
  EXPECT_EQ(store.size(), 3u);
}

TEST(BlockStore, ColumnsSurviveGrowth) {
  // 9,000 appends on one chain: every column reallocates several times
  // and each block must keep its own fields.
  BlockStore store;
  BlockIndex tip = kGenesisIndex;
  for (std::uint64_t i = 1; i <= 9000; ++i) {
    tip = append(store, tip, mix64(i), i,
                 i % 3 == 0 ? MinerClass::kAdversary : MinerClass::kHonest);
  }
  ASSERT_EQ(store.size(), 9001u);
  for (BlockIndex b = 1; b < store.size(); ++b) {
    ASSERT_EQ(store.hash_of(b), mix64(b));
    ASSERT_EQ(store.parent_of(b), b - 1);
    ASSERT_EQ(store.height_of(b), b);
    ASSERT_EQ(store.round_of(b), b);
    ASSERT_EQ(store.miner_class_of(b), b % 3 == 0 ? MinerClass::kAdversary
                                                  : MinerClass::kHonest);
  }
  EXPECT_EQ(store.ancestor_at_height(tip, 4500), 4500u);
}

TEST(BlockStore, BlockFillsOnlyTheStoredFields) {
  BlockStore store;
  Block b;
  b.hash = 77;
  b.nonce = 5;
  b.payload_digest = 6;
  b.round = 3;
  b.miner = 2;
  const Block got = store.block(store.add(b));
  EXPECT_EQ(got.hash, 77u);
  EXPECT_EQ(got.parent, kGenesisIndex);
  EXPECT_EQ(got.height, 1u);
  EXPECT_EQ(got.round, 3u);
  EXPECT_EQ(got.miner, 2u);
  EXPECT_EQ(got.parent_hash, 0u);
  EXPECT_EQ(got.nonce, 0u);
  EXPECT_EQ(got.payload_digest, 0u);
}

TEST(BlockStore, RejectsRoundRegression) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100, /*round=*/5);
  Block child;
  child.hash = 101;
  child.parent = a;
  child.parent_hash = store.block(a).hash;
  child.round = 3;  // precedes parent
  EXPECT_THROW((void)store.add(std::move(child)), ContractViolation);
}

TEST(BlockStore, AncestorWalk) {
  BlockStore store;
  BlockIndex tip = kGenesisIndex;
  for (HashValue h = 1; h <= 5; ++h) tip = append(store, tip, h, h);
  EXPECT_EQ(store.ancestor(tip, 0), tip);
  EXPECT_EQ(store.height_of(store.ancestor(tip, 2)), 3u);
  // Clamps at genesis.
  EXPECT_EQ(store.ancestor(tip, 100), kGenesisIndex);
}

TEST(BlockStore, CommonAncestorOfFork) {
  BlockStore store;
  const BlockIndex shared = append(store, kGenesisIndex, 1);
  BlockIndex left = shared;
  for (HashValue h = 10; h < 13; ++h) left = append(store, left, h, 2);
  BlockIndex right = shared;
  for (HashValue h = 20; h < 22; ++h) right = append(store, right, h, 2);
  EXPECT_EQ(store.common_ancestor(left, right), shared);
  EXPECT_EQ(store.common_prefix_height(left, right), 1u);
  EXPECT_EQ(store.common_ancestor(left, left), left);
  EXPECT_EQ(store.common_ancestor(left, shared), shared);
}

TEST(BlockStore, IsAncestor) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, a, 2, 2);
  const BlockIndex sibling = append(store, kGenesisIndex, 3);
  EXPECT_TRUE(store.is_ancestor(kGenesisIndex, b));
  EXPECT_TRUE(store.is_ancestor(a, b));
  EXPECT_TRUE(store.is_ancestor(b, b));
  EXPECT_FALSE(store.is_ancestor(b, a));
  EXPECT_FALSE(store.is_ancestor(sibling, b));
}

TEST(BlockStore, ChainToGenesisFirst) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 1);
  const BlockIndex b = append(store, a, 2, 2);
  const auto chain = store.chain_to(b);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], kGenesisIndex);
  EXPECT_EQ(chain[1], a);
  EXPECT_EQ(chain[2], b);
}

}  // namespace
}  // namespace neatbound::protocol
