#include "sim/metrics.hpp"

#include <algorithm>

namespace neatbound::sim {

void ConsistencyTracker::observe_reorg(std::uint64_t depth) noexcept {
  max_reorg_depth_ = std::max(max_reorg_depth_, depth);
}

void ConsistencyTracker::observe_round(
    std::span<const protocol::BlockIndex> tips,
    const protocol::BlockStore& store) {
  // Deduplicate tips first: miners overwhelmingly share views, so the
  // pairwise pass below runs on a handful of distinct values.  The dedup
  // is a single epoch-stamped pass, not a sort — the pairwise maximum
  // below is order-independent.  Tips already observed in the previous
  // call go first: a pair of two such tips was measured then (the
  // divergence of two blocks never changes), so only pairs with a fresh
  // tip can raise the maximum.
  ++epoch_;
  scratch_.clear();
  std::size_t kept = 0;  // scratch_[0, kept) were tips last call too
  for (const protocol::BlockIndex tip : tips) {
    if (tip_epoch_.size() <= tip) {
      // neatbound-analyze: allow(hot-alloc) — lazy stamp-array growth,
      // doubling: one resize per doubling of the store, not per new tip.
      tip_epoch_.resize(std::max<std::size_t>(tip + 1, 2 * tip_epoch_.size()),
                        0);
    }
    if (tip_epoch_[tip] == epoch_) continue;
    const bool seen_last_call = tip_epoch_[tip] == epoch_ - 1;
    tip_epoch_[tip] = epoch_;
    // neatbound-analyze: allow(hot-alloc) — reused scratch: cleared, not
    // freed, each round, so capacity settles at the distinct-tip maximum.
    scratch_.push_back(tip);
    if (seen_last_call) std::swap(scratch_[kept++], scratch_.back());
  }
  last_round_disagreed_ = scratch_.size() >= 2;
  if (scratch_.size() < 2) return;
  ++disagreement_rounds_;
  for (std::size_t i = 0; i < scratch_.size(); ++i) {
    for (std::size_t j = std::max(i + 1, kept); j < scratch_.size(); ++j) {
      const std::uint64_t common =
          store.common_prefix_height(scratch_[i], scratch_[j]);
      const std::uint64_t deeper = std::max(store.height_of(scratch_[i]),
                                            store.height_of(scratch_[j]));
      max_divergence_ = std::max(max_divergence_, deeper - common);
    }
  }
}

ChainMetrics measure_chain(const protocol::BlockStore& store,
                           protocol::BlockIndex best_tip,
                           std::uint64_t rounds) {
  ChainMetrics metrics;
  metrics.best_height = store.height_of(best_tip);
  metrics.growth_per_round =
      rounds == 0 ? 0.0
                  : static_cast<double>(metrics.best_height) /
                        static_cast<double>(rounds);
  for (const protocol::BlockIndex index : store.chain_to(best_tip)) {
    switch (store.miner_class_of(index)) {
      case protocol::MinerClass::kGenesis:
        break;
      case protocol::MinerClass::kHonest:
        ++metrics.honest_blocks_in_chain;
        break;
      case protocol::MinerClass::kAdversary:
        ++metrics.adversary_blocks_in_chain;
        break;
    }
  }
  const std::uint64_t total =
      metrics.honest_blocks_in_chain + metrics.adversary_blocks_in_chain;
  metrics.quality =
      total == 0 ? 1.0
                 : static_cast<double>(metrics.honest_blocks_in_chain) /
                       static_cast<double>(total);
  return metrics;
}

DagMetrics measure_dag(const protocol::BlockStore& store,
                       protocol::BlockIndex best_tip) {
  DagMetrics metrics;
  if (store.size() <= 1) return metrics;
  metrics.total_blocks = store.size() - 1;

  std::vector<std::uint64_t> width;  // blocks per height (excl. genesis)
  std::uint64_t honest_total = 0;
  for (protocol::BlockIndex i = 1;
       i < static_cast<protocol::BlockIndex>(store.size()); ++i) {
    const std::uint64_t height = store.height_of(i);
    metrics.max_height = std::max(metrics.max_height, height);
    if (width.size() < height) width.resize(height, 0);
    ++width[height - 1];
    if (store.miner_class_of(i) == protocol::MinerClass::kHonest) {
      ++honest_total;
    }
  }
  for (const std::uint64_t w : width) {
    if (w >= 2) ++metrics.fork_heights;
    metrics.max_width = std::max(metrics.max_width, w);
  }
  // Honest blocks not on the best chain.
  std::vector<bool> on_chain(store.size(), false);
  for (const protocol::BlockIndex i : store.chain_to(best_tip)) {
    on_chain[i] = true;
  }
  for (protocol::BlockIndex i = 1;
       i < static_cast<protocol::BlockIndex>(store.size()); ++i) {
    if (!on_chain[i] &&
        store.miner_class_of(i) == protocol::MinerClass::kHonest) {
      ++metrics.honest_off_chain;
    }
  }
  metrics.orphan_rate =
      honest_total == 0
          ? 0.0
          : static_cast<double>(metrics.honest_off_chain) /
                static_cast<double>(honest_total);
  return metrics;
}

}  // namespace neatbound::sim
