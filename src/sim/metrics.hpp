// Consistency / growth / quality metrics observed during an execution.
//
// The consistency property (Definition 1) is parameterized by T: all but
// the last T blocks of any honest chain at round r must prefix any honest
// chain at round s ≥ r.  Two observable quantities witness violations:
//   * view divergence  — at a single round, the number of non-common
//     trailing blocks between two honest tips;
//   * reorg depth      — blocks an honest miner abandons when switching
//     tips (the r < s, i = j case).
// The empirical "violation depth" of a run is the max of both; consistency
// with parameter T held throughout iff violation depth ≤ T.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "protocol/block_store.hpp"

namespace neatbound::sim {

class ConsistencyTracker {
 public:
  /// Records a tip switch of one honest miner (depth = abandoned blocks).
  void observe_reorg(std::uint64_t depth) noexcept;

  /// Records the end-of-round honest tips; computes the worst pairwise
  /// divergence among the (few) distinct tips.
  void observe_round(std::span<const protocol::BlockIndex> tips,
                     const protocol::BlockStore& store);

  /// Records `count` rounds whose tips are bit-identical to the previous
  /// observe_round call (no adoptions happened): the divergence maximum
  /// cannot move, so only the disagreement-round count is folded in.  The
  /// engine's quiet-round fast path (ExecutionEngine::run) calls this to
  /// commit a whole run of silent rounds in O(1); results are identical to
  /// observing each round, which tests/sim/test_quiet_skip_equivalence
  /// pins.
  void observe_rounds_unchanged(std::uint64_t count) noexcept {
    disagreement_rounds_ += last_round_disagreed_ ? count : 0;
  }

  [[nodiscard]] std::uint64_t max_reorg_depth() const noexcept {
    return max_reorg_depth_;
  }
  [[nodiscard]] std::uint64_t max_divergence() const noexcept {
    return max_divergence_;
  }
  /// Rounds in which at least two honest miners held different tips.
  [[nodiscard]] std::uint64_t disagreement_rounds() const noexcept {
    return disagreement_rounds_;
  }
  /// The empirical consistency-violation depth (see header comment).
  [[nodiscard]] std::uint64_t violation_depth() const noexcept {
    return max_reorg_depth_ > max_divergence_ ? max_reorg_depth_
                                              : max_divergence_;
  }

 private:
  std::uint64_t max_reorg_depth_ = 0;
  std::uint64_t max_divergence_ = 0;
  std::uint64_t disagreement_rounds_ = 0;
  /// Whether the most recent observe_round saw ≥ 2 distinct tips (what an
  /// unchanged round would see again).
  bool last_round_disagreed_ = false;
  /// Distinct tips of the round under observation (reused scratch).
  std::vector<protocol::BlockIndex> scratch_;
  /// Epoch-stamped dedup: tip_epoch_[b] == epoch_ iff block b was already
  /// seen as a tip this round, and == epoch_ − 1 iff it was a tip in the
  /// previous call.  One flat array reused every round — no per-round
  /// sort and no clearing (bumping the epoch invalidates all stale stamps
  /// at once).  Starting at 1 keeps the zero-filled stamps from reading as
  /// "seen last call" on the first call.
  std::vector<std::uint64_t> tip_epoch_;
  std::uint64_t epoch_ = 1;
};

/// Growth and quality of the final best honest chain.
struct ChainMetrics {
  std::uint64_t best_height = 0;      ///< height of the best honest tip
  double growth_per_round = 0.0;      ///< best_height / rounds
  std::uint64_t honest_blocks_in_chain = 0;
  std::uint64_t adversary_blocks_in_chain = 0;
  double quality = 0.0;  ///< honest fraction of non-genesis chain blocks
};

[[nodiscard]] ChainMetrics measure_chain(const protocol::BlockStore& store,
                                         protocol::BlockIndex best_tip,
                                         std::uint64_t rounds);

/// Shape of the whole block DAG (every block ever mined, published or
/// not): how much honest work was wasted on forks.
struct DagMetrics {
  std::uint64_t total_blocks = 0;     ///< excluding genesis
  std::uint64_t max_height = 0;       ///< deepest block anywhere
  std::uint64_t fork_heights = 0;     ///< heights holding ≥ 2 blocks
  std::uint64_t max_width = 0;        ///< most blocks at a single height
  std::uint64_t honest_off_chain = 0; ///< honest blocks off the best chain
  double orphan_rate = 0.0;           ///< honest_off_chain / honest blocks
};

[[nodiscard]] DagMetrics measure_dag(const protocol::BlockStore& store,
                                     protocol::BlockIndex best_tip);

}  // namespace neatbound::sim
