#include "block_records.hpp"

#include <utility>

#include "support/contracts.hpp"

namespace neatbound::sim::reference {

using protocol::Block;
using protocol::BlockIndex;

BlockRecords::BlockRecords() {
  Block genesis;
  genesis.miner_class = protocol::MinerClass::kGenesis;
  blocks_.push_back(genesis);
  hashes_.insert(genesis.hash);
}

BlockIndex BlockRecords::add(Block block) {
  NEATBOUND_EXPECTS(block.parent < blocks_.size() &&
                        blocks_[block.parent].hash == block.parent_hash,
                    "parent index and parent hash must name a held block");
  NEATBOUND_EXPECTS(hashes_.insert(block.hash).second,
                    "duplicate block hash (oracle collision)");
  block.height = blocks_[block.parent].height + 1;
  blocks_.push_back(std::move(block));
  return static_cast<BlockIndex>(blocks_.size() - 1);
}

ValidationReport validate_chain(std::span<const Block> blocks, BlockIndex tip,
                                const protocol::RandomOracle& oracle) {
  NEATBOUND_EXPECTS(tip < blocks.size(), "tip out of range");
  const auto fail = [](const char* what, std::uint64_t height) {
    return ValidationReport{false,
                            std::string(what) + " at height " +
                                std::to_string(height)};
  };
  for (BlockIndex b = tip; b != protocol::kGenesisIndex;
       b = blocks[b].parent) {
    const Block& block = blocks[b];
    NEATBOUND_EXPECTS(block.parent < blocks.size(), "parent out of range");
    const Block& parent = blocks[block.parent];
    if (block.parent_hash != parent.hash) {
      return fail("hash linkage broken", block.height);
    }
    if (block.height != parent.height + 1) {
      return fail("height not incremented", block.height);
    }
    if (block.round < parent.round) {
      return fail("round precedes parent", block.height);
    }
    if (!oracle.verify(block.parent_hash, block.nonce, block.payload_digest,
                       block.hash)) {
      return fail("H.ver failed", block.height);
    }
  }
  return {};
}

std::string store_mismatch(const protocol::BlockStore& store,
                           std::span<const Block> blocks) {
  if (store.size() != blocks.size()) {
    return "store holds " + std::to_string(store.size()) +
           " blocks, records " + std::to_string(blocks.size());
  }
  for (BlockIndex i = 0; i < blocks.size(); ++i) {
    const Block got = store.block(i);
    const Block& want = blocks[i];
    if (got.hash != want.hash || got.parent != want.parent ||
        got.height != want.height || got.round != want.round ||
        got.miner != want.miner || got.miner_class != want.miner_class) {
      return "block " + std::to_string(i) + " differs";
    }
  }
  return {};
}

}  // namespace neatbound::sim::reference
