#include "protocol/block_store.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "protocol/mining.hpp"
#include "protocol/validation.hpp"
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
  EXPECT_TRUE(store.contains_hash(0));
}

TEST(BlockStore, AddFillsHeightAndParentIndex) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100);
  const BlockIndex b = append(store, a, 200, 2);
  EXPECT_EQ(store.block(a).height, 1u);
  EXPECT_EQ(store.block(b).height, 2u);
  EXPECT_EQ(store.block(b).parent, a);
  EXPECT_EQ(store.index_of(200), b);
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
  EXPECT_FALSE(store.contains_hash(5));
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
  EXPECT_FALSE(store.contains_hash(5));
  EXPECT_FALSE(store.contains_hash(6));
}

TEST(BlockStore, RejectsDuplicateHash) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100);
  EXPECT_THROW(append(store, kGenesisIndex, 100), ContractViolation);
  EXPECT_THROW(append(store, a, 100), ContractViolation);
  EXPECT_THROW(append(store, a, 0), ContractViolation);  // genesis' hash
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.index_of(100), a);
}

TEST(BlockStore, HashIndexSurvivesGrowth) {
  // Hashes that share their low bits, their high bits, or neither, so
  // every growth step of the index rehashes clustered keys.
  BlockStore store;
  std::vector<HashValue> hashes;
  for (std::uint64_t i = 1; i <= 3000; ++i) {
    hashes.push_back(i << 40);
    hashes.push_back(i);
    hashes.push_back(mix64(i));
  }
  BlockIndex tip = kGenesisIndex;
  for (const HashValue h : hashes) tip = append(store, tip, h);
  ASSERT_EQ(store.size(), hashes.size() + 1);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    ASSERT_EQ(store.index_of(hashes[i]), static_cast<BlockIndex>(i + 1));
  }
  EXPECT_EQ(store.index_of(0), kGenesisIndex);
  EXPECT_FALSE(store.contains_hash(std::uint64_t{3001} << 40));
  EXPECT_FALSE(store.contains_hash(mix64(3001)));
  EXPECT_THROW((void)store.index_of(3001), ContractViolation);
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

TEST(BlockStore, IndexOfUnknownHashThrows) {
  const BlockStore store;
  EXPECT_THROW((void)store.index_of(12345), ContractViolation);
}

TEST(Validation, AcceptsHonestlyMinedChain) {
  // Build a chain through real block assembly so linkage and H.ver hold.
  const RandomOracle oracle(21);
  BlockStore store;
  BlockIndex tip = kGenesisIndex;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    Block mined = assemble_block(oracle, store.block(tip).hash,
                                 /*payload_digest=*/mix64(round),
                                 /*nonce=*/mix64(round + 100));
    mined.parent = tip;
    mined.round = round;
    tip = store.add(std::move(mined));
  }
  const ValidationReport report = validate_chain(store, tip, oracle);
  EXPECT_TRUE(report.valid) << report.failure;
}

TEST(Validation, RejectsForgedBlock) {
  const RandomOracle oracle(31);
  BlockStore store;
  // A forged block whose hash was never produced by the oracle.
  Block fake;
  fake.hash = 1;
  fake.parent_hash = 0;
  fake.nonce = 99;
  fake.payload_digest = 7;
  fake.round = 1;
  const BlockIndex tip = store.add(std::move(fake));
  const ValidationReport report = validate_chain(store, tip, oracle);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.failure.find("H.ver"), std::string::npos);
}

}  // namespace
}  // namespace neatbound::protocol
