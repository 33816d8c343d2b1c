// Per-round invariant oracle: the runtime falsification harness for the
// paper's lemma-level properties (ROADMAP item 4).
//
// The ConsistencyTracker (sim/metrics.hpp) measures an aggregate
// violation depth after the fact; the oracle instead *asserts* a
// configurable invariant set at the end of every round, across all
// honest views, and freezes a replayable snapshot at the first failure:
//   * common-prefix(T)  — the deepest pairwise divergence among distinct
//     honest tips this round, combined with the deepest reorg any view
//     performed this round, must stay ≤ T (Definition 1 observed per
//     round rather than per run);
//   * chain-growth(W,g) — over any window of W rounds the best honest
//     height must grow by ≥ g blocks (Theorem 2's growth lower bound);
//   * chain-quality(K,µ) — among the last K blocks of the best honest
//     chain, the honest fraction must be ≥ µ (Theorem 3's quality bound).
//
// Cost model (why this stays out of untraced hot paths): the oracle is a
// RoundObserver, attached only when requested, and reads public
// accessors after the round has executed — an unobserved run executes
// zero oracle instructions.  When armed, per round with an adoption:
// common-prefix reads the engine's k view classes, not its n views — an
// O(k²) distinct-tip dedup plus O(d² log h) for the d ≤ k distinct tips
// (k and d are almost always 1–3; each pair is one jump-pointer
// common_ancestor query) — and chain-quality subtracts two entries of a
// per-block honest-depth count found with one O(log h) ancestor lookup,
// after extending that count over the blocks mined since the last
// check.  Tips move only by adoption, so a round without one (every
// quiet round, most rounds of a sparse run) repeats the previous
// verdicts and skips both passes.  Chain-growth is O(1)
// against a ring of W heights, and the slice recorder appends one
// RoundRecord into a bounded ring, every round.  Nothing here writes to
// the simulation: an oracle-armed run steps the same rounds as an
// unarmed run of the same seed and its RunResult is bit-identical
// (tests/sim/test_oracle.cpp pins this).  One diagnostic exception: the
// oracle queries ancestry through the same instrumented BlockStore, so
// its own lookups are visible in the ancestry-queries counter — every
// counter that measures simulation work stays exact.
//
// The oracle owns no file I/O (the trace-io rule bans it in sim/):
// serializing a frozen violation into an artifact is scenario-layer work
// (scenario/artifact.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace neatbound::sim {

/// The invariants the oracle can arm.  Names (the scenario-file and
/// artifact spellings) round-trip through invariant_name /
/// parse_invariant_name.
enum class InvariantKind : std::uint8_t {
  kCommonPrefix,
  kChainGrowth,
  kChainQuality,
};

[[nodiscard]] const char* invariant_name(InvariantKind kind) noexcept;
[[nodiscard]] std::optional<InvariantKind> parse_invariant_name(
    std::string_view name) noexcept;
/// All invariant names, in enum order — the registry scenario/spec
/// validates `oracle.invariants` entries against.
[[nodiscard]] std::vector<std::string> invariant_names();

struct OracleConfig {
  /// common-prefix: armed unless disabled; T is the tolerated depth.
  bool common_prefix = true;
  std::uint64_t common_prefix_t = 6;
  /// chain-growth: armed iff growth_window > 0; over every window of
  /// growth_window rounds, best height must grow ≥ growth_min_blocks.
  std::uint64_t growth_window = 0;
  std::uint64_t growth_min_blocks = 1;
  /// chain-quality: armed iff quality_window > 0; among the last
  /// quality_window best-chain blocks (checked once the chain is that
  /// long), honest blocks ≥ ceil(quality_min_ratio · quality_window).
  std::uint64_t quality_window = 0;
  double quality_min_ratio = 0.0;
  /// Trailing RoundRecords retained for the violation snapshot.
  std::uint64_t slice_rounds = 64;
};

/// Rejects unusable configurations with a ContractViolation naming the
/// field: no invariant armed, growth_min_blocks = 0 with growth armed,
/// quality_min_ratio outside [0, 1], slice_rounds = 0 or above the
/// trace-record cap (2²⁰).
void validate_oracle_config(const OracleConfig& config);

/// The first failed assertion.  `measured` vs `bound` reads per kind:
/// common-prefix measured > bound; chain-growth / chain-quality
/// measured < bound (growth in blocks, quality in honest-block counts —
/// integers, so replay equality is exact).
struct OracleViolation {
  InvariantKind kind = InvariantKind::kCommonPrefix;
  std::uint64_t round = 0;     ///< 1-based round of first failure
  std::uint64_t measured = 0;
  std::uint64_t bound = 0;
  /// Offending honest views: for common-prefix the divergent pair (or
  /// view_a == view_b, the reorging view, when a reorg alone exceeded
  /// T); 0 for window invariants, which implicate the best chain.
  std::uint32_t view_a = 0;
  std::uint32_t view_b = 0;

  friend bool operator==(const OracleViolation&,
                         const OracleViolation&) = default;
};

/// One honest view at the violating round, pinned bit-for-bit: replay
/// must reproduce tip index, height *and* hash (the hash also guards
/// against store-layout coincidences).
struct ViewSnapshot {
  std::uint32_t miner = 0;
  protocol::BlockIndex tip = protocol::kGenesisIndex;
  std::uint64_t height = 0;
  protocol::HashValue hash = 0;

  friend bool operator==(const ViewSnapshot&, const ViewSnapshot&) = default;
};

/// The common-prefix measurement of one round: the deepest pairwise
/// divergence among the distinct honest tips, and the first view holding
/// each tip of the deepest pair (view_a < view_b; both 0 when every view
/// holds one tip).
struct TipDivergence {
  std::uint64_t depth = 0;
  std::uint32_t view_a = 0;
  std::uint32_t view_b = 0;

  friend bool operator==(const TipDivergence&, const TipDivergence&) = default;
};

/// Measures TipDivergence from one tip and one lowest member per view
/// class (ExecutionEngine::class_tips / class_leads), never touching the
/// per-view tips.  Classes that share a tip count once, owned by their
/// lowest lead — the first view holding it — and the distinct tips are
/// compared in owner order: the order a scan of the views in id order
/// meets them, so the deepest pair and its views come out as such a scan
/// finds them.
class TipDivergenceScan {
 public:
  [[nodiscard]] TipDivergence measure(
      const protocol::BlockStore& store,
      std::span<const protocol::BlockIndex> class_tips,
      std::span<const std::uint32_t> class_leads);

 private:
  /// (owner, tip) per distinct tip; reused every round.
  std::vector<std::pair<std::uint32_t, protocol::BlockIndex>> distinct_;
};

/// Counts the honest blocks among the last `window` blocks of a chain as
/// the difference of two entries of a per-block count of honest blocks
/// from genesis, which each call first extends over the blocks added to
/// the store since the last one: O(new blocks + log h) per call instead
/// of a `window`-long parent walk.  One index serves one store.
class HonestDepthIndex {
 public:
  /// EXPECTS window ≤ height of tip.
  [[nodiscard]] std::uint64_t honest_in_window(
      const protocol::BlockStore& store, protocol::BlockIndex tip,
      std::uint64_t window);

 private:
  /// Per block: honest blocks on the path genesis..block, both included
  /// (32 bits, like the block indices that bound them).
  std::vector<std::uint32_t> honest_depth_;
};

class InvariantOracle {
 public:
  explicit InvariantOracle(OracleConfig config);

  /// End-of-round assertion pass; the RoundObserver body.  Keeps
  /// updating depth statistics after a violation (the tracker
  /// cross-check needs whole-run maxima) but the frozen snapshot is
  /// immutable once taken.
  void observe(const ExecutionEngine& engine, std::uint64_t round);

  /// An observer bound to *this; the oracle must outlive the engine run.
  [[nodiscard]] ExecutionEngine::RoundObserver observer();

  [[nodiscard]] bool violated() const noexcept { return violation_.has_value(); }
  /// EXPECTS violated().
  [[nodiscard]] const OracleViolation& first_violation() const;
  /// All honest views at the violating round; EXPECTS violated().
  [[nodiscard]] const std::vector<ViewSnapshot>& violating_views() const;
  /// The trailing ≤ slice_rounds RoundRecords ending at the violating
  /// round, oldest first; EXPECTS violated().
  [[nodiscard]] const std::vector<RoundRecord>& violation_slice() const;

  /// Running max of the per-round common-prefix depth — by construction
  /// equal to ConsistencyTracker::violation_depth() over the same rounds
  /// (each round's depth is max(pairwise divergence of end-of-round
  /// tips, deepest reorg this round); the tracker accumulates exactly
  /// those two maxima).  The cross-check property test pins equality.
  [[nodiscard]] std::uint64_t max_round_depth() const noexcept {
    return max_round_depth_;
  }
  [[nodiscard]] std::uint64_t rounds_observed() const noexcept {
    return rounds_observed_;
  }
  [[nodiscard]] const OracleConfig& config() const noexcept { return config_; }

 private:
  void check_common_prefix(const ExecutionEngine& engine, std::uint64_t round);
  void check_chain_growth(const ExecutionEngine& engine, std::uint64_t round);
  void check_chain_quality(const ExecutionEngine& engine, std::uint64_t round);
  void freeze(const ExecutionEngine& engine, OracleViolation violation);
  void record_round(const ExecutionEngine& engine, std::uint64_t round);

  OracleConfig config_;
  std::uint64_t rounds_observed_ = 0;
  std::uint64_t max_round_depth_ = 0;
  /// Ring of best heights for chain-growth: heights_[r % W] = best
  /// height after round r, valid once r > W.
  std::vector<std::uint64_t> height_ring_;
  /// Ring of the trailing RoundRecords (slice_rounds capacity);
  /// slice-order materialization happens once, at freeze time.
  std::vector<RoundRecord> record_ring_;
  TipDivergenceScan divergence_scan_;
  HonestDepthIndex honest_depth_;
  std::optional<OracleViolation> violation_;
  std::vector<ViewSnapshot> views_;
  std::vector<RoundRecord> slice_;
};

}  // namespace neatbound::sim
