// Per-miner view of the block tree and the longest-chain rule.
//
// Each honest player only "knows" the blocks that have been delivered to
// it (plus blocks it mined itself).  It adopts the longest known chain,
// breaking ties in favour of the first-received chain — Nakamoto's rule.
// Because the adversary may reorder messages, a block can arrive before
// its parent; such orphans are buffered and activated once their ancestry
// is complete (an honest player cannot validate, let alone mine on, a
// block whose chain it cannot see).
//
// The known set is a flat bitset over block indices, and the orphan
// buffer is one vector of (parent, block) pairs sorted by parent and, per
// parent, by arrival — sized by the orphans alive right now, not by the
// highest block index ever buffered, so copying a view (the engine splits
// shared views by copying) costs the bitset plus the live orphans.
// Waiting children activate in arrival order.
//
// A view also keeps an XOR-of-hashes fingerprint of its known set, so two
// views can be checked for identical state cheaply before the exact
// bitset comparison (same_state).
#pragma once

#include <cstdint>
#include <vector>

#include "protocol/block_store.hpp"
#include "support/hot.hpp"

namespace neatbound::sim {

/// Outcome of delivering one block to a view.
struct AdoptionEvent {
  bool adopted = false;       ///< tip changed
  std::uint64_t reorg_depth = 0;  ///< blocks abandoned from the old tip
  bool duplicate = false;     ///< the block was already known (no change)
  std::uint32_t orphans_buffered = 0;   ///< 1 iff parked awaiting its parent
  std::uint32_t orphans_activated = 0;  ///< buffered blocks this woke
};

class MinerView {
 public:
  /// A fresh view knows only genesis.
  MinerView();

  [[nodiscard]] protocol::BlockIndex tip() const noexcept { return tip_; }

  /// Height of tip(), cached so the per-delivery longest-chain compare
  /// costs one store read, not two.
  [[nodiscard]] std::uint64_t tip_height() const noexcept {
    return tip_height_;
  }

  [[nodiscard]] bool knows(protocol::BlockIndex block) const noexcept {
    const std::size_t word = block >> 6;
    return word < known_.size() && ((known_[word] >> (block & 63)) & 1) != 0;
  }

  /// True iff delivering `block` would change this view: it is neither
  /// known nor already waiting in the orphan buffer.
  [[nodiscard]] bool accepts(protocol::BlockIndex block,
                             const protocol::BlockStore& store) const;

  /// True iff `other` would behave identically to this view on every
  /// future delivery: same tip, same known set, and both orphan buffers
  /// empty.  The fingerprint filters; the bitset comparison decides.
  [[nodiscard]] bool same_state(const MinerView& other) const noexcept {
    return tip_ == other.tip_ && orphans_.empty() && other.orphans_.empty() &&
           fingerprint_ == other.fingerprint_ && known_ == other.known_;
  }

  /// Delivers `block`; activates it (and any waiting descendants) if its
  /// ancestry is known, applying the longest-chain rule.  Returns the
  /// deepest reorg performed during activation (0 when the tip just
  /// extends or does not change).  The duplicate-delivery check (gossip
  /// echoes make duplicates the single most common delivery) stays inline
  /// in the caller's loop.
  NEATBOUND_HOT AdoptionEvent deliver(protocol::BlockIndex block,
                                      const protocol::BlockStore& store) {
    AdoptionEvent event;
    if (knows(block)) {  // duplicate delivery (echo), ignore
      event.duplicate = true;
      return event;
    }
    deliver_fresh(block, store, event);
    return event;
  }

 private:
  /// A buffered block and the unknown parent it waits for.
  struct Orphan {
    protocol::BlockIndex parent;
    protocol::BlockIndex block;
  };

  /// Out-of-line continuation of deliver() for not-yet-known blocks.
  NEATBOUND_HOT void deliver_fresh(protocol::BlockIndex block,
                                   const protocol::BlockStore& store,
                                   AdoptionEvent& event);
  /// Parks `block` behind its parent's earlier waiting children, unless it
  /// is already waiting (an adversarial re-send or gossip echo while the
  /// parent is withheld).
  NEATBOUND_HOT void buffer_orphan(protocol::BlockIndex parent,
                                   protocol::BlockIndex block,
                                   AdoptionEvent& event);
  /// Marks `block` known, then repeatedly activates buffered orphans
  /// whose parents became known.
  NEATBOUND_HOT void activate_ready(protocol::BlockIndex block,
                                    const protocol::BlockStore& store,
                                    AdoptionEvent& event);
  NEATBOUND_HOT void consider_tip(protocol::BlockIndex candidate,
                                  const protocol::BlockStore& store,
                                  AdoptionEvent& event);

  protocol::BlockIndex tip_;
  std::uint64_t tip_height_ = 0;  ///< height of tip_, kept in lockstep
  /// Bit b of word b/64 is set iff block b is known; grown lazily to the
  /// word of the highest known block, so equal sets have equal sizes.
  std::vector<std::uint64_t> known_;
  /// XOR over known blocks of a per-block hash (see same_state).
  std::uint64_t fingerprint_ = 0;
  /// Waiting orphans, sorted by parent; arrival order within a parent.
  std::vector<Orphan> orphans_;
  /// Reused activation worklist — no allocation on the delivery hot path.
  std::vector<protocol::BlockIndex> activation_stack_;
};

}  // namespace neatbound::sim
