// Whole block records for the reference model, and the checks the
// engine's lean BlockStore leaves to it.
//
// The store keeps only what a run reads: no parent hash, nonce or payload
// digest, and no index by hash.  BlockRecords keeps every field of every
// block, index-aligned with a BlockStore, so the tests can still check
//   * the duplicate-hash contract (the oracle is collision-free at the
//     scales simulated; add() refuses a hash it already holds),
//   * chain validity (validate_chain: hash linkage, H.ver, heights and
//     rounds from genesis to a tip),
// and compare an engine's store with the model's records block for block
// (store_mismatch).
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "protocol/block.hpp"
#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"

namespace neatbound::sim::reference {

class BlockRecords {
 public:
  /// Holds only the genesis record (hash 0, height 0).
  BlockRecords();

  /// Appends `block` under `block.parent` with its height filled in.
  /// EXPECTS the parent to be held, `block.parent_hash` to be its hash,
  /// and `block.hash` to be new.  Returns the new record's index.
  protocol::BlockIndex add(protocol::Block block);

  [[nodiscard]] std::span<const protocol::Block> blocks() const noexcept {
    return blocks_;
  }

 private:
  std::vector<protocol::Block> blocks_;
  std::set<protocol::HashValue> hashes_;
};

struct ValidationReport {
  bool valid = true;
  std::string failure;  ///< empty when valid
};

/// Validates the chain from genesis to `tip` over whole records: every
/// block's hash must verify (H.ver), its parent hash must be its parent's
/// hash, its height must be its parent's plus one, and its round must not
/// precede its parent's.
[[nodiscard]] ValidationReport validate_chain(
    std::span<const protocol::Block> blocks, protocol::BlockIndex tip,
    const protocol::RandomOracle& oracle);

/// The first block whose hash, parent, height, round, miner or miner
/// class differs between `store` and `blocks`, or a size mismatch,
/// described; empty when they agree block for block.
[[nodiscard]] std::string store_mismatch(
    const protocol::BlockStore& store,
    std::span<const protocol::Block> blocks);

}  // namespace neatbound::sim::reference
