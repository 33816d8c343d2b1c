// The reference model's whole block records: the duplicate-hash contract
// and chain validation (H.ver, linkage, heights, rounds) that the
// engine's lean BlockStore leaves out, and the block-for-block comparison
// the engine tests run against them.
#include "block_records.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "protocol/mining.hpp"
#include "support/contracts.hpp"
#include "support/crng.hpp"

namespace neatbound::sim::reference {
namespace {

using protocol::Block;
using protocol::BlockIndex;
using protocol::kGenesisIndex;

/// Appends a block with a synthetic (but unique) hash under `parent`.
BlockIndex append(BlockRecords& records, BlockIndex parent,
                  protocol::HashValue hash) {
  Block b;
  b.hash = hash;
  b.parent = parent;
  b.parent_hash = records.blocks()[parent].hash;
  b.round = 1;
  return records.add(b);
}

/// A five-block chain built through real block assembly, so linkage and
/// H.ver hold, as whole records.
std::vector<Block> mined_chain(const protocol::RandomOracle& oracle) {
  BlockRecords records;
  BlockIndex tip = kGenesisIndex;
  for (std::uint64_t round = 1; round <= 5; ++round) {
    Block mined = protocol::assemble_block(
        oracle, records.blocks()[tip].hash,
        /*payload_digest=*/mix64(round), /*nonce=*/mix64(round + 100));
    mined.parent = tip;
    mined.round = round;
    tip = records.add(mined);
  }
  return {records.blocks().begin(), records.blocks().end()};
}

TEST(BlockRecords, StartsWithGenesisAndFillsHeights) {
  BlockRecords records;
  ASSERT_EQ(records.blocks().size(), 1u);
  EXPECT_EQ(records.blocks()[0].miner_class, protocol::MinerClass::kGenesis);
  const BlockIndex a = append(records, kGenesisIndex, 100);
  const BlockIndex b = append(records, a, 200);
  EXPECT_EQ(records.blocks()[b].height, 2u);
  EXPECT_EQ(records.blocks()[b].parent, a);
}

TEST(BlockRecords, RejectsDuplicateHash) {
  BlockRecords records;
  const BlockIndex a = append(records, kGenesisIndex, 100);
  EXPECT_THROW(append(records, kGenesisIndex, 100), ContractViolation);
  EXPECT_THROW(append(records, a, 100), ContractViolation);
  EXPECT_THROW(append(records, a, 0), ContractViolation);  // genesis' hash
  EXPECT_EQ(records.blocks().size(), 2u);
  // A refused block leaves nothing behind: the next one appends as usual.
  const BlockIndex b = append(records, a, 101);
  EXPECT_EQ(records.blocks()[b].hash, 101u);
}

TEST(BlockRecords, RejectsBrokenLinkage) {
  BlockRecords records;
  const BlockIndex a = append(records, kGenesisIndex, 100);
  Block child;
  child.hash = 5;
  child.parent = a;
  child.parent_hash = 0;  // a held hash, but not the parent's
  EXPECT_THROW((void)records.add(child), ContractViolation);
  child.parent = a + 1;  // never added
  child.parent_hash = 100;
  EXPECT_THROW((void)records.add(child), ContractViolation);
  EXPECT_EQ(records.blocks().size(), 2u);
}

TEST(Validation, AcceptsHonestlyMinedChain) {
  const protocol::RandomOracle oracle(21);
  const std::vector<Block> chain = mined_chain(oracle);
  const ValidationReport report =
      validate_chain(chain, static_cast<BlockIndex>(chain.size() - 1), oracle);
  EXPECT_TRUE(report.valid) << report.failure;
}

TEST(Validation, RejectsForgedBlock) {
  const protocol::RandomOracle oracle(31);
  BlockRecords records;
  // A forged block whose hash was never produced by the oracle.
  Block fake;
  fake.hash = 1;
  fake.parent_hash = 0;
  fake.nonce = 99;
  fake.payload_digest = 7;
  fake.round = 1;
  const BlockIndex tip = records.add(fake);
  const ValidationReport report = validate_chain(records.blocks(), tip, oracle);
  EXPECT_FALSE(report.valid);
  EXPECT_NE(report.failure.find("H.ver"), std::string::npos);
}

TEST(Validation, NamesEachBrokenCheck) {
  const protocol::RandomOracle oracle(41);
  const std::vector<Block> good = mined_chain(oracle);
  const auto tip = static_cast<BlockIndex>(good.size() - 1);
  const auto failure = [&](auto&& corrupt) {
    std::vector<Block> chain = good;
    corrupt(chain[tip]);
    return validate_chain(chain, tip, oracle).failure;
  };
  EXPECT_EQ(failure([](Block& b) { b.parent_hash ^= 1; }),
            "hash linkage broken at height 5");
  EXPECT_EQ(failure([](Block& b) { b.height = 7; }),
            "height not incremented at height 7");
  EXPECT_EQ(failure([](Block& b) { b.round = 1; }),
            "round precedes parent at height 5");
  EXPECT_EQ(failure([](Block& b) { b.nonce ^= 1; }),
            "H.ver failed at height 5");
}

TEST(StoreMismatch, ComparesTheStoredFieldsBlockForBlock) {
  const protocol::RandomOracle oracle(51);
  const std::vector<Block> chain = mined_chain(oracle);
  protocol::BlockStore store;
  for (std::size_t i = 1; i < chain.size(); ++i) (void)store.add(chain[i]);
  EXPECT_EQ(store_mismatch(store, chain), "");

  std::vector<Block> other = chain;
  other[2].miner = 9;
  EXPECT_EQ(store_mismatch(store, other), "block 2 differs");
  other.pop_back();
  EXPECT_EQ(store_mismatch(store, other), "store holds 6 blocks, records 5");
}

}  // namespace
}  // namespace neatbound::sim::reference
