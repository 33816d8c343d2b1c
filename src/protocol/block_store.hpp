// Append-only block tree shared by the whole execution.
//
// Every mined block (honest or adversarial, published or withheld) lives
// here exactly once; per-miner *views* are subsets of indices (src/sim).
// The store maintains parent links and heights and answers ancestry /
// common-prefix queries, which is all the longest-chain rule needs.
//
// Storage is structure-of-arrays: each block field lives in its own
// parallel vector, indexed by BlockIndex.  The simulation hot path
// (T×n oracle queries, ancestry walks in the consistency metrics) touches
// only one or two fields per block, so SoA keeps those reads dense in
// cache instead of striding over whole Block records.  One jump-pointer
// column (Myers' skew-binary scheme, "An applicative random-access
// stack", IPL 1983) makes ancestor() / common_ancestor() O(log h) hops
// instead of O(h) parent walks, and costs one O(1) entry per append.
//
// The store keeps only what a run reads: seven columns, about 33 B per
// block.  add() checks a block's parent hash against the parent's stored
// hash and then drops it with the nonce and payload digest; nothing looks
// a block up by hash, so there is no hash index and hash uniqueness is
// not a store contract (tests/sim/block_records checks it, with H.ver, on
// the reference model's whole records).  The `Block` struct
// survives as the value type used to *assemble* a block (mining) and as
// the materialized record `block()` returns for cold paths (tests,
// demos).
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/block.hpp"
#include "support/contracts.hpp"
#include "support/hot.hpp"

namespace neatbound::protocol {

class BlockStore {
 public:
  /// Creates the store holding only the genesis block (hash 0, height 0).
  BlockStore();

  /// Number of blocks including genesis.
  [[nodiscard]] std::size_t size() const noexcept { return hash_.size(); }

  /// Materialized copy of one block record — a convenience for cold paths
  /// (tests, demos).  Only the stored fields are filled: parent_hash,
  /// nonce and payload_digest read zero.  Hot paths should read the field
  /// they need through the *_of accessors below.
  [[nodiscard]] Block block(BlockIndex index) const;

  // --- per-field accessors over the SoA columns ---
  [[nodiscard]] HashValue hash_of(BlockIndex index) const {
    check_index(index);
    return hash_[index];
  }
  [[nodiscard]] BlockIndex parent_of(BlockIndex index) const {
    check_index(index);
    return parent_[index];
  }
  [[nodiscard]] std::uint64_t height_of(BlockIndex index) const {
    check_index(index);
    return height_[index];
  }
  [[nodiscard]] std::uint64_t round_of(BlockIndex index) const {
    check_index(index);
    return round_[index];
  }
  [[nodiscard]] std::uint32_t miner_of(BlockIndex index) const {
    check_index(index);
    return miner_[index];
  }
  [[nodiscard]] MinerClass miner_class_of(BlockIndex index) const {
    check_index(index);
    return miner_class_[index];
  }

  /// Appends a block under `block.parent`, which must be a stored block
  /// whose hash is `block.parent_hash` and whose round does not exceed
  /// the block's; fills in the height and extends the jump column, in
  /// O(1) amortized.  Returns the new block's index.
  BlockIndex add(Block block);

  /// Walks up from `index` by `steps` parent links, *clamping at genesis*:
  /// when `steps` meets or exceeds the block's height the walk bottoms out
  /// and genesis is returned (never an underflow or an error).  In
  /// particular ancestor(genesis, k) == genesis for every k.  O(log h)
  /// via the jump column.
  [[nodiscard]] NEATBOUND_HOT BlockIndex ancestor(BlockIndex index,
                                                  std::uint64_t steps) const;

  /// The unique ancestor of `index` at height `target_height`, which must
  /// not exceed the block's own height.  O(log h).
  [[nodiscard]] NEATBOUND_HOT BlockIndex ancestor_at_height(
      BlockIndex index, std::uint64_t target_height) const;

  /// The deepest common ancestor of two blocks.  O(log h).
  [[nodiscard]] NEATBOUND_HOT BlockIndex common_ancestor(BlockIndex a,
                                                         BlockIndex b) const;

  /// Height of the deepest common ancestor — the "agreement depth" used by
  /// consistency metrics.
  [[nodiscard]] NEATBOUND_HOT std::uint64_t common_prefix_height(
      BlockIndex a, BlockIndex b) const;

  /// True iff `ancestor_candidate` is on the path from `descendant` to
  /// genesis (inclusive).  O(log h).
  [[nodiscard]] NEATBOUND_HOT bool is_ancestor(BlockIndex ancestor_candidate,
                                               BlockIndex descendant) const;

  /// The chain from genesis to `tip`, genesis first.
  [[nodiscard]] std::vector<BlockIndex> chain_to(BlockIndex tip) const;

 private:
  void check_index(BlockIndex index) const {
    NEATBOUND_EXPECTS(index < hash_.size(), "block index out of range");
  }
  // SoA columns, all indexed by BlockIndex and equal in length.
  std::vector<HashValue> hash_;
  std::vector<BlockIndex> parent_;
  std::vector<std::uint32_t> height_;  ///< ≤ size() − 1, fits 32 bits
  /// jump_[i] is a proper ancestor of i (genesis for genesis) at a height
  /// fixed by i's height alone: from parent p it is jump_[jump_[p]] when
  /// p's two jumps span equal heights, else p.  Every height is then
  /// reached in O(log h) hops along jumps and parent links.
  std::vector<BlockIndex> jump_;
  std::vector<std::uint64_t> round_;
  std::vector<std::uint32_t> miner_;
  std::vector<MinerClass> miner_class_;
};

}  // namespace neatbound::protocol
