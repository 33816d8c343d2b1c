#include "protocol/block_store.hpp"

#include <algorithm>
#include <bit>

#include "support/invariant.hpp"
#include "support/telemetry.hpp"

namespace neatbound::protocol {

BlockStore::BlockStore() {
  hash_.push_back(0);
  parent_hash_.push_back(0);
  parent_.push_back(kGenesisIndex);
  height_.push_back(0);
  jump_.push_back(kGenesisIndex);
  round_.push_back(0);
  nonce_.push_back(0);
  payload_digest_.push_back(0);
  miner_.push_back(0);
  miner_class_.push_back(MinerClass::kGenesis);
  rehash_index(16);
}

Block BlockStore::block(BlockIndex index) const {
  check_index(index);
  Block b;
  b.hash = hash_[index];
  b.parent_hash = parent_hash_[index];
  b.parent = parent_[index];
  b.height = height_[index];
  b.round = round_[index];
  b.nonce = nonce_[index];
  b.payload_digest = payload_digest_[index];
  b.miner = miner_[index];
  b.miner_class = miner_class_[index];
  return b;
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// add() is the append-only SoA growth point; every push_back and index
// rehash amortizes geometrically over blocks ever mined, and nothing
// downstream of it is per-delivery work.  Keep new columns inside this
// function.
BlockIndex BlockStore::add(Block block) {
  const BlockIndex parent = block.parent;
  NEATBOUND_EXPECTS(parent < hash_.size() && hash_[parent] == block.parent_hash,
                    "parent index and parent hash must name a stored block");
  NEATBOUND_EXPECTS(block.round >= round_[parent],
                    "child round must not precede parent round");
  const auto index = static_cast<BlockIndex>(hash_.size());
  NEATBOUND_EXPECTS(index != kEmptySlot, "block index space exhausted");
  if (2 * (hash_.size() + 1) > slots_.size()) rehash_index(2 * slots_.size());
  // One probe both rejects a duplicate and finds the new block's slot.
  Slot& slot = slots_[find_slot(block.hash)];
  NEATBOUND_EXPECTS(slot.index == kEmptySlot,
                    "duplicate block hash (oracle collision)");
  slot = {block.hash, index};

  const BlockIndex pj = jump_[parent];
  const bool equal_spans =
      height_[parent] - height_[pj] == height_[pj] - height_[jump_[pj]];
  hash_.push_back(block.hash);
  parent_hash_.push_back(block.parent_hash);
  parent_.push_back(parent);
  height_.push_back(height_[parent] + 1);
  jump_.push_back(equal_spans ? jump_[pj] : parent);
  round_.push_back(block.round);
  nonce_.push_back(block.nonce);
  payload_digest_.push_back(block.payload_digest);
  miner_.push_back(block.miner);
  miner_class_.push_back(block.miner_class);

  // Column-length lockstep: every SoA column must cover exactly the
  // blocks appended so far — a short column would turn the next *_of
  // read into a silent out-of-bounds.
  NEATBOUND_INVARIANT(
      parent_hash_.size() == hash_.size() && parent_.size() == hash_.size() &&
          height_.size() == hash_.size() && jump_.size() == hash_.size() &&
          round_.size() == hash_.size() && nonce_.size() == hash_.size() &&
          payload_digest_.size() == hash_.size() &&
          miner_.size() == hash_.size() &&
          miner_class_.size() == hash_.size(),
      "SoA columns out of lockstep after add()");
  NEATBOUND_INVARIANT(2 * hash_.size() <= slots_.size(),
                      "hash index more than half full");
  NEATBOUND_INVARIANT(height_[index] == height_[parent] + 1,
                      "child height must be parent height + 1");
  NEATBOUND_INVARIANT(height_[jump_[index]] < height_[index],
                      "jump must land strictly above the block");
  return index;
}

std::size_t BlockStore::find_slot(HashValue hash) const noexcept {
  // Fibonacci hashing: the top bits of hash · 2⁶⁴/φ spread sequential
  // hashes as well as oracle outputs.  The table is at most half full,
  // so the probe always meets a free slot.
  const std::size_t mask = slots_.size() - 1;
  auto i = static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >>
                                    slot_shift_);
  while (slots_[i].index != kEmptySlot && slots_[i].hash != hash) {
    i = (i + 1) & mask;
  }
  return i;
}

void BlockStore::rehash_index(std::size_t capacity) {
  slots_.assign(capacity, Slot{});
  slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (std::size_t i = 0; i < hash_.size(); ++i) {
    slots_[find_slot(hash_[i])] = {hash_[i], static_cast<BlockIndex>(i)};
  }
}

bool BlockStore::contains_hash(HashValue hash) const noexcept {
  return slots_[find_slot(hash)].index != kEmptySlot;
}

BlockIndex BlockStore::index_of(HashValue hash) const {
  const Slot& slot = slots_[find_slot(hash)];
  NEATBOUND_EXPECTS(slot.index != kEmptySlot, "unknown block hash");
  return slot.index;
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
