#include "sim/oracle.hpp"

#include <algorithm>
#include <cmath>

#include "support/contracts.hpp"

namespace neatbound::sim {

namespace {

constexpr const char* kInvariantNames[] = {
    "common-prefix",
    "chain-growth",
    "chain-quality",
};

/// ceil(ratio · window) in honest blocks; ratio round-trips artifacts
/// via %.17g, so replay recomputes the identical threshold.
std::uint64_t quality_required(const OracleConfig& config) {
  return static_cast<std::uint64_t>(
      std::ceil(config.quality_min_ratio *
                static_cast<double>(config.quality_window)));
}

}  // namespace

const char* invariant_name(InvariantKind kind) noexcept {
  return kInvariantNames[static_cast<std::size_t>(kind)];
}

std::optional<InvariantKind> parse_invariant_name(
    std::string_view name) noexcept {
  constexpr std::size_t kCount =
      sizeof(kInvariantNames) / sizeof(kInvariantNames[0]);
  for (std::size_t i = 0; i < kCount; ++i) {
    if (name == kInvariantNames[i]) {
      return static_cast<InvariantKind>(i);
    }
  }
  return std::nullopt;
}

std::vector<std::string> invariant_names() {
  return {std::begin(kInvariantNames), std::end(kInvariantNames)};
}

void validate_oracle_config(const OracleConfig& config) {
  const bool growth_armed = config.growth_window > 0;
  const bool quality_armed = config.quality_window > 0;
  NEATBOUND_EXPECTS(config.common_prefix || growth_armed || quality_armed,
                    "oracle config arms no invariant");
  if (growth_armed) {
    NEATBOUND_EXPECTS(config.growth_min_blocks > 0,
                      "chain-growth with growth_min_blocks = 0 is vacuous");
  }
  if (quality_armed) {
    NEATBOUND_EXPECTS(config.quality_min_ratio > 0.0 &&
                          config.quality_min_ratio <= 1.0,
                      "chain-quality needs quality_min_ratio in (0, 1]");
  }
  NEATBOUND_EXPECTS(config.slice_rounds >= 1,
                    "slice_rounds must retain at least one round");
  NEATBOUND_EXPECTS(config.slice_rounds <= (std::uint64_t{1} << 20),
                    "slice_rounds exceeds the trace record cap");
}

TipDivergence TipDivergenceScan::measure(
    const protocol::BlockStore& store,
    std::span<const protocol::BlockIndex> class_tips,
    std::span<const std::uint32_t> class_leads) {
  NEATBOUND_EXPECTS(class_tips.size() == class_leads.size(),
                    "one lead per class tip");
  distinct_.clear();
  for (std::size_t i = 0; i < class_tips.size(); ++i) {
    const auto same = std::find_if(
        distinct_.begin(), distinct_.end(),
        [tip = class_tips[i]](const auto& d) { return d.second == tip; });
    if (same == distinct_.end()) {
      distinct_.emplace_back(class_leads[i], class_tips[i]);
    } else {
      same->first = std::min(same->first, class_leads[i]);
    }
  }
  // Owners are distinct views, so this is the order of first occurrence.
  std::sort(distinct_.begin(), distinct_.end());
  TipDivergence result;
  for (std::size_t i = 0; i < distinct_.size(); ++i) {
    for (std::size_t j = i + 1; j < distinct_.size(); ++j) {
      const auto [owner_a, a] = distinct_[i];
      const auto [owner_b, b] = distinct_[j];
      const std::uint64_t common = store.common_prefix_height(a, b);
      const std::uint64_t deeper =
          std::max(store.height_of(a), store.height_of(b));
      if (deeper - common > result.depth) {
        result = {deeper - common, owner_a, owner_b};
      }
    }
  }
  return result;
}

std::uint64_t HonestDepthIndex::honest_in_window(
    const protocol::BlockStore& store, protocol::BlockIndex tip,
    std::uint64_t window) {
  const auto honest = [&store](protocol::BlockIndex block) {
    return store.miner_class_of(block) == protocol::MinerClass::kHonest ? 1u
                                                                       : 0u;
  };
  if (honest_depth_.empty()) {
    honest_depth_.push_back(honest(protocol::kGenesisIndex));
  }
  // Parents precede their children in the store, so one pass in index
  // order extends the count.
  for (auto block = static_cast<protocol::BlockIndex>(honest_depth_.size());
       block < store.size(); ++block) {
    honest_depth_.push_back(honest_depth_[store.parent_of(block)] +
                            honest(block));
  }
  const std::uint64_t height = store.height_of(tip);
  NEATBOUND_EXPECTS(window <= height, "window deeper than the chain");
  // The window holds the blocks at heights (height − window, height].
  return honest_depth_[tip] -
         honest_depth_[store.ancestor_at_height(tip, height - window)];
}

InvariantOracle::InvariantOracle(OracleConfig config) : config_(config) {
  validate_oracle_config(config_);
  if (config_.growth_window > 0) {
    height_ring_.assign(config_.growth_window, 0);
  }
  record_ring_.resize(config_.slice_rounds);
}

// neatbound-analyze: allow(hot-alloc) — accepted allocation boundary:
// an armed oracle is a diagnostic observer (ring records, frozen
// artifacts); unobserved runs, the engine's hot path, never call it.
ExecutionEngine::RoundObserver InvariantOracle::observer() {
  return [this](const ExecutionEngine& engine, std::uint64_t round) {
    observe(engine, round);
  };
}

void InvariantOracle::observe(const ExecutionEngine& engine,
                              std::uint64_t round) {
  ++rounds_observed_;
  record_round(engine, round);
  // Fixed assertion order; the first failure across rounds (and, within
  // a round, in this order) freezes the snapshot — fully deterministic.
  // Honest tips and the best tip move only by adoption, so on a round
  // without one both tip verdicts repeat the previous round's: the same
  // divergence with no reorg, the same best chain.
  const bool tips_moved = engine.round_activity().adoptions > 0;
  if (tips_moved) check_common_prefix(engine, round);
  if (config_.growth_window > 0) check_chain_growth(engine, round);
  if (tips_moved && config_.quality_window > 0) {
    check_chain_quality(engine, round);
  }
}

void InvariantOracle::record_round(const ExecutionEngine& engine,
                                   std::uint64_t round) {
  if (violation_.has_value()) return;  // the slice is frozen
  // Circular slot reuse: assign into the slot so mined_by keeps its
  // capacity — steady state allocates nothing.
  RoundRecord& slot = record_ring_[(round - 1) % config_.slice_rounds];
  const RoundActivity& activity = engine.round_activity();
  slot.round = round;
  slot.honest_mined = activity.honest_mined;
  slot.adversary_mined = activity.adversary_mined;
  slot.mined_by.assign(engine.round_miners().begin(),
                       engine.round_miners().end());
  slot.delivered = activity.delivered;
  slot.adoptions = activity.adoptions;
  slot.best_height = engine.best_height();
  slot.violation_depth = engine.violation_depth();
}

void InvariantOracle::check_common_prefix(const ExecutionEngine& engine,
                                          std::uint64_t round) {
  const TipDivergence divergence = divergence_scan_.measure(
      engine.store(), engine.class_tips(), engine.class_leads());
  const std::uint64_t reorg = engine.round_activity().max_reorg_depth;
  const std::uint64_t depth = std::max(divergence.depth, reorg);
  max_round_depth_ = std::max(max_round_depth_, depth);
  if (!config_.common_prefix || violation_.has_value()) return;
  if (depth <= config_.common_prefix_t) return;
  OracleViolation violation;
  violation.kind = InvariantKind::kCommonPrefix;
  violation.round = round;
  violation.measured = depth;
  violation.bound = config_.common_prefix_t;
  if (divergence.depth >= reorg) {
    violation.view_a = divergence.view_a;
    violation.view_b = divergence.view_b;
  } else {
    // A reorg alone exceeded T: the reorging view is both offenders.
    violation.view_a = engine.round_activity().max_reorg_view;
    violation.view_b = violation.view_a;
  }
  freeze(engine, violation);
}

void InvariantOracle::check_chain_growth(const ExecutionEngine& engine,
                                         std::uint64_t round) {
  const std::uint64_t window = config_.growth_window;
  const std::uint64_t height = engine.best_height();
  // height_ring_[r % W] holds the best height after round r; the slot
  // about to be overwritten is exactly the value from W rounds ago.
  if (round > window && !violation_.has_value()) {
    const std::uint64_t before = height_ring_[round % window];
    const std::uint64_t grown = height - before;
    if (grown < config_.growth_min_blocks) {
      OracleViolation violation;
      violation.kind = InvariantKind::kChainGrowth;
      violation.round = round;
      violation.measured = grown;
      violation.bound = config_.growth_min_blocks;
      freeze(engine, violation);
    }
  }
  height_ring_[round % window] = height;
}

void InvariantOracle::check_chain_quality(const ExecutionEngine& engine,
                                          std::uint64_t round) {
  const std::uint64_t window = config_.quality_window;
  if (violation_.has_value()) return;
  if (engine.best_height() < window) return;  // chain not yet K deep
  const std::uint64_t honest = honest_depth_.honest_in_window(
      engine.store(), engine.best_honest_tip(), window);
  const std::uint64_t required = quality_required(config_);
  if (honest >= required) return;
  OracleViolation violation;
  violation.kind = InvariantKind::kChainQuality;
  violation.round = round;
  violation.measured = honest;
  violation.bound = required;
  freeze(engine, violation);
}

void InvariantOracle::freeze(const ExecutionEngine& engine,
                             OracleViolation violation) {
  violation_ = violation;
  const auto tips = engine.honest_tips();
  const auto& store = engine.store();
  views_.clear();
  views_.reserve(tips.size());
  for (std::uint32_t m = 0; m < tips.size(); ++m) {
    ViewSnapshot snapshot;
    snapshot.miner = m;
    snapshot.tip = tips[m];
    snapshot.height = store.height_of(tips[m]);
    snapshot.hash = store.hash_of(tips[m]);
    views_.push_back(snapshot);
  }
  // Materialize the ring oldest-first, ending at the violating round.
  const std::uint64_t count =
      std::min<std::uint64_t>(violation.round, config_.slice_rounds);
  slice_.clear();
  slice_.reserve(count);
  for (std::uint64_t r = violation.round - count + 1; r <= violation.round;
       ++r) {
    slice_.push_back(record_ring_[(r - 1) % config_.slice_rounds]);
  }
}

const OracleViolation& InvariantOracle::first_violation() const {
  NEATBOUND_EXPECTS(violation_.has_value(), "no violation was observed");
  return *violation_;
}

const std::vector<ViewSnapshot>& InvariantOracle::violating_views() const {
  NEATBOUND_EXPECTS(violation_.has_value(), "no violation was observed");
  return views_;
}

const std::vector<RoundRecord>& InvariantOracle::violation_slice() const {
  NEATBOUND_EXPECTS(violation_.has_value(), "no violation was observed");
  return slice_;
}

}  // namespace neatbound::sim
