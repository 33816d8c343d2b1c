#include "protocol/block_store.hpp"

#include <gtest/gtest.h>

#include "protocol/mining.hpp"
#include "protocol/validation.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::protocol {
namespace {

/// Appends a block with a synthetic (but unique) hash under `parent`.
BlockIndex append(BlockStore& store, BlockIndex parent, HashValue hash,
                  std::uint64_t round = 1,
                  MinerClass who = MinerClass::kHonest,
                  std::string message = "") {
  Block b;
  b.hash = hash;
  b.parent_hash = store.block(parent).hash;
  b.round = round;
  b.miner_class = who;
  b.message = std::move(message);
  return store.add(std::move(b));
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

TEST(BlockStore, RejectsUnknownParent) {
  BlockStore store;
  Block orphan;
  orphan.hash = 5;
  orphan.parent_hash = 999;  // never added
  EXPECT_THROW((void)store.add(std::move(orphan)), ContractViolation);
}

TEST(BlockStore, RejectsDuplicateHash) {
  BlockStore store;
  append(store, kGenesisIndex, 100);
  EXPECT_THROW(append(store, kGenesisIndex, 100), ContractViolation);
}

TEST(BlockStore, RejectsRoundRegression) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 100, /*round=*/5);
  Block child;
  child.hash = 101;
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

TEST(BlockStore, ExtractMessagesInChainOrder) {
  BlockStore store;
  const BlockIndex a = append(store, kGenesisIndex, 1, 1,
                              MinerClass::kHonest, "tx-batch-1");
  const BlockIndex b = append(store, a, 2, 2, MinerClass::kHonest, "");
  const BlockIndex c =
      append(store, b, 3, 3, MinerClass::kHonest, "tx-batch-2");
  const auto messages = store.extract_messages(c);
  ASSERT_EQ(messages.size(), 2u);  // empty payloads skipped
  EXPECT_EQ(messages[0], "tx-batch-1");
  EXPECT_EQ(messages[1], "tx-batch-2");
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
