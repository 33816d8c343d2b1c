#include "sim/miner_view.hpp"

#include <algorithm>

#include "support/crng.hpp"
#include "support/invariant.hpp"

namespace neatbound::sim {

namespace {
/// Orphans are ordered by the parent they wait for.
struct ByParent {
  template <typename Orphan>
  bool operator()(const Orphan& o, protocol::BlockIndex parent) const {
    return o.parent < parent;
  }
  template <typename Orphan>
  bool operator()(protocol::BlockIndex parent, const Orphan& o) const {
    return parent < o.parent;
  }
};
}  // namespace

MinerView::MinerView() : tip_(protocol::kGenesisIndex) {
  known_.assign(1, std::uint64_t{1} << protocol::kGenesisIndex);
  fingerprint_ = mix64(protocol::kGenesisIndex);
}

bool MinerView::accepts(protocol::BlockIndex block,
                        const protocol::BlockStore& store) const {
  if (knows(block)) return false;
  if (orphans_.empty()) return true;
  const auto [first, last] = std::equal_range(
      orphans_.begin(), orphans_.end(), store.parent_of(block), ByParent{});
  return std::none_of(first, last,
                      [block](const Orphan& o) { return o.block == block; });
}

void MinerView::deliver_fresh(protocol::BlockIndex block,
                              const protocol::BlockStore& store,
                              AdoptionEvent& event) {
  const protocol::BlockIndex parent = store.parent_of(block);
  if (!knows(parent)) {
    buffer_orphan(parent, block, event);
    return;
  }
  activate_ready(block, store, event);
}

void MinerView::buffer_orphan(protocol::BlockIndex parent,
                              protocol::BlockIndex block,
                              AdoptionEvent& event) {
  const auto [first, last] =
      std::equal_range(orphans_.begin(), orphans_.end(), parent, ByParent{});
  // Re-threading an already-waiting orphan would wake it twice.
  if (std::any_of(first, last,
                  [block](const Orphan& o) { return o.block == block; })) {
    return;
  }
  // Behind the parent's earlier children, so they wake in arrival order.
  // neatbound-analyze: allow(hot-alloc) — only out-of-order (adversarial)
  // delivery reaches this; capacity is retained once orphans drain.
  orphans_.insert(last, Orphan{parent, block});
  event.orphans_buffered = 1;
}

void MinerView::activate_ready(protocol::BlockIndex block,
                               const protocol::BlockStore& store,
                               AdoptionEvent& event) {
  // Iterative activation: mark known, adopt if longer, then wake orphans.
  activation_stack_.clear();
  // neatbound-analyze: allow(hot-alloc) — reused worklist: capacity is
  // retained across deliveries, so appends amortize to zero allocation.
  activation_stack_.push_back(block);
  while (!activation_stack_.empty()) {
    const protocol::BlockIndex current = activation_stack_.back();
    activation_stack_.pop_back();
    const std::size_t word = current >> 6;
    // neatbound-analyze: allow(hot-alloc) — lazy bitset growth, amortized
    if (known_.size() <= word) known_.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (current & 63);
    if ((known_[word] & bit) != 0) continue;
    known_[word] |= bit;
    fingerprint_ ^= mix64(current);
    consider_tip(current, store, event);
    if (orphans_.empty()) continue;
    const auto [first, last] = std::equal_range(
        orphans_.begin(), orphans_.end(), current, ByParent{});
    // Pushed latest-first onto the LIFO worklist, so children pop in
    // arrival order.
    for (auto it = last; it != first;) {
      --it;
      NEATBOUND_INVARIANT(!knows(it->block),
                          "known block still waiting as an orphan");
      // neatbound-analyze: allow(hot-alloc) — reused worklist (above)
      activation_stack_.push_back(it->block);
      ++event.orphans_activated;
    }
    orphans_.erase(first, last);
  }
}

void MinerView::consider_tip(protocol::BlockIndex candidate,
                             const protocol::BlockStore& store,
                             AdoptionEvent& event) {
  // Longest-chain rule; strict inequality implements first-received
  // tie-breaking (an equally long chain never displaces the current tip).
  const std::uint64_t candidate_height = store.height_of(candidate);
  if (candidate_height <= tip_height_) return;
  // Extending the tip — the common case — abandons nothing and needs no
  // ancestry query.
  const std::uint64_t abandoned =
      store.parent_of(candidate) == tip_
          ? 0
          : tip_height_ - store.common_prefix_height(candidate, tip_);
  event.adopted = true;
  event.reorg_depth = std::max(event.reorg_depth, abandoned);
  tip_ = candidate;
  tip_height_ = candidate_height;
  // The cached height is what every longest-chain compare reads; drift
  // from the store's truth silently changes which chains win.
  NEATBOUND_INVARIANT(tip_height_ == store.height_of(tip_),
                      "cached tip height out of lockstep with the store");
}

}  // namespace neatbound::sim
