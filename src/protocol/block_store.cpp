#include "protocol/block_store.hpp"

#include <algorithm>

#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::protocol {

BlockStore::BlockStore() {
  hash_.push_back(0);
  parent_.push_back(kGenesisIndex);
  height_.push_back(0);
  jump_.push_back(kGenesisIndex);
  round_.push_back(0);
  miner_.push_back(0);
  miner_class_.push_back(MinerClass::kGenesis);
}

Block BlockStore::block(BlockIndex index) const {
  check_index(index);
  Block b;
  b.hash = hash_[index];
  b.parent = parent_[index];
  b.height = height_[index];
  b.round = round_[index];
  b.miner = miner_[index];
  b.miner_class = miner_class_[index];
  return b;
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// add() is the append-only SoA growth point; every push_back amortizes
// geometrically over blocks ever mined, and nothing downstream of it is
// per-delivery work.  Keep new columns inside this function.
BlockIndex BlockStore::add(Block block) {
  const BlockIndex parent = block.parent;
  NEATBOUND_EXPECTS(parent < hash_.size() && hash_[parent] == block.parent_hash,
                    "parent index and parent hash must name a stored block");
  NEATBOUND_EXPECTS(block.round >= round_[parent],
                    "child round must not precede parent round");
  const auto index = static_cast<BlockIndex>(hash_.size());
  NEATBOUND_EXPECTS(index != ~BlockIndex{0}, "block index space exhausted");

  const BlockIndex pj = jump_[parent];
  const bool equal_spans =
      height_[parent] - height_[pj] == height_[pj] - height_[jump_[pj]];
  hash_.push_back(block.hash);
  parent_.push_back(parent);
  height_.push_back(height_[parent] + 1);
  jump_.push_back(equal_spans ? jump_[pj] : parent);
  round_.push_back(block.round);
  miner_.push_back(block.miner);
  miner_class_.push_back(block.miner_class);

  // Column-length lockstep: every SoA column must cover exactly the
  // blocks appended so far — a short column would turn the next *_of
  // read into a silent out-of-bounds.
  NEATBOUND_INVARIANT(
      parent_.size() == hash_.size() && height_.size() == hash_.size() &&
          jump_.size() == hash_.size() && round_.size() == hash_.size() &&
          miner_.size() == hash_.size() &&
          miner_class_.size() == hash_.size(),
      "SoA columns out of lockstep after add()");
  NEATBOUND_INVARIANT(height_[index] == height_[parent] + 1,
                      "child height must be parent height + 1");
  NEATBOUND_INVARIANT(height_[jump_[index]] < height_[index],
                      "jump must land strictly above the block");
  return index;
}

BlockIndex BlockStore::ancestor(BlockIndex index, std::uint64_t steps) const {
  check_index(index);
  if (steps >= height_[index]) return kGenesisIndex;  // documented clamp
  return ancestor_at_height(index, height_[index] - steps);
}

BlockIndex BlockStore::ancestor_at_height(BlockIndex index,
                                          std::uint64_t target_height) const {
  NEATBOUND_COUNT(kAncestryQueries);
  check_index(index);
  NEATBOUND_EXPECTS(target_height <= height_[index],
                    "target height above the block");
  // Take the jump unless it overshoots the target, else the parent link.
  while (height_[index] > target_height) {
    const BlockIndex jump = jump_[index];
    index = height_[jump] >= target_height ? jump : parent_[index];
  }
  return index;
}

BlockIndex BlockStore::common_ancestor(BlockIndex a, BlockIndex b) const {
  NEATBOUND_COUNT(kAncestryQueries);
  check_index(a);
  check_index(b);
  // Equalize heights, then climb in lockstep.  At equal heights both
  // jumps land at one height: unequal jumps are both below the fork
  // point, so take them; equal ones may overshoot it, so take the parents.
  if (height_[a] > height_[b]) a = ancestor_at_height(a, height_[b]);
  if (height_[b] > height_[a]) b = ancestor_at_height(b, height_[a]);
  while (a != b) {
    if (jump_[a] != jump_[b]) {
      a = jump_[a];
      b = jump_[b];
    } else {
      a = parent_[a];
      b = parent_[b];
    }
  }
  return a;
}

std::uint64_t BlockStore::common_prefix_height(BlockIndex a,
                                               BlockIndex b) const {
  return height_[common_ancestor(a, b)];
}

bool BlockStore::is_ancestor(BlockIndex ancestor_candidate,
                             BlockIndex descendant) const {
  check_index(ancestor_candidate);
  check_index(descendant);
  if (height_[ancestor_candidate] > height_[descendant]) return false;
  return ancestor_at_height(descendant, height_[ancestor_candidate]) ==
         ancestor_candidate;
}

std::vector<BlockIndex> BlockStore::chain_to(BlockIndex tip) const {
  check_index(tip);
  std::vector<BlockIndex> chain;
  chain.reserve(height_[tip] + 1);
  for (BlockIndex cur = tip;; cur = parent_[cur]) {
    chain.push_back(cur);
    if (cur == kGenesisIndex) break;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

}  // namespace neatbound::protocol
