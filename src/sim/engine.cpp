#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "protocol/mining.hpp"
#include "support/contracts.hpp"
#include "support/invariant.hpp"

namespace neatbound::sim {

namespace {
std::uint32_t corrupted_count(const EngineConfig& config) {
  return static_cast<std::uint32_t>(std::llround(
      config.adversary_fraction * static_cast<double>(config.miner_count)));
}

constexpr std::uint64_t purpose_of(crng::Purpose p) noexcept {
  return static_cast<std::uint64_t>(p);
}

/// Calls f(lo, hi) on each of `ranges` (ascending, disjoint recipient
/// ranges) or, with `gaps`, on each gap they leave in [0, n) — possibly
/// empty — in ascending order.
template <typename Ranges, typename F>
void for_each_side(const Ranges& ranges, bool gaps, std::uint32_t n, F&& f) {
  std::uint32_t lo = 0;
  for (const auto& r : ranges) {
    if (gaps) {
      f(lo, r.lo);
    } else {
      f(r.lo, r.hi);
    }
    lo = r.hi;
  }
  if (gaps) f(lo, n);
}

/// `config` once validate_engine_config accepts it, so the engine rejects
/// a bad config before any member is built from it.
const EngineConfig& validated(const EngineConfig& config) {
  validate_engine_config(config);
  return config;
}
}  // namespace

std::uint32_t honest_miner_count(const EngineConfig& config) {
  return config.miner_count - corrupted_count(config);
}

crng::Key engine_rng_key(const EngineConfig& config) {
  // Chained mix over the trajectory-shaping parameters; `rounds` and
  // `seed` deliberately excluded (see the declaration comment).
  std::uint64_t cell = 0x6e65617462756e64ULL;  // "neatbund" domain tag
  const auto fold = [&cell](std::uint64_t v) { cell = mix64(cell ^ v); };
  fold(config.miner_count);
  fold(std::bit_cast<std::uint64_t>(config.adversary_fraction));
  fold(std::bit_cast<std::uint64_t>(config.p));
  fold(config.delta);
  return {cell, config.seed};
}

void validate_engine_config(const EngineConfig& config) {
  NEATBOUND_EXPECTS(config.miner_count >= 4,
                    "the paper's condition (3): n >= 4");
  NEATBOUND_EXPECTS(config.adversary_fraction >= 0.0 &&
                        config.adversary_fraction < 0.5,
                    "adversary fraction nu must be in [0, 1/2)");
  // Before p: the hardness rules derive p = 1/(c·n·Δ), so Δ = 0 would
  // otherwise be reported as a bad p the user never set.
  NEATBOUND_EXPECTS(config.delta >= 1, "delta must be >= 1");
  NEATBOUND_EXPECTS(config.p > 0.0 && config.p < 1.0,
                    "mining hardness p must be in (0, 1)");
  NEATBOUND_EXPECTS(config.rounds >= 1, "rounds must be >= 1");
  NEATBOUND_EXPECTS(config.miner_count > corrupted_count(config),
                    "at least one honest miner needed");
}

/// AdversaryOps backed by the engine.  Lives only during act().
class ExecutionEngine::Ops final : public AdversaryOps {
 public:
  Ops(ExecutionEngine& engine, std::uint64_t round, std::uint64_t budget)
      : engine_(engine), round_(round), remaining_(budget), budget_(budget) {}

  [[nodiscard]] const protocol::BlockStore& store() const override {
    return engine_.store_;
  }
  [[nodiscard]] std::uint64_t round() const override { return round_; }
  [[nodiscard]] std::uint64_t delta() const override {
    return engine_.config_.delta;
  }
  [[nodiscard]] std::uint32_t honest_count() const override {
    return engine_.honest_count_;
  }
  [[nodiscard]] std::span<const protocol::BlockIndex> honest_tips()
      const override {
    return engine_.honest_tips();
  }
  [[nodiscard]] protocol::BlockIndex best_honest_tip() const override {
    return engine_.best_honest_tip();
  }
  [[nodiscard]] std::uint64_t remaining_queries() const override {
    return remaining_;
  }

  std::optional<protocol::BlockIndex> mine_on(
      protocol::BlockIndex parent) override {
    NEATBOUND_EXPECTS(remaining_ > 0, "adversary query budget exhausted");
    const std::uint64_t query = budget_ - remaining_;  // index within round
    --remaining_;
    // Success is decided by the addressable Bernoulli field at flat
    // position (round−1)·budget + query.
    if (!engine_.adversary_gaps_.contains_take(base() + query)) {
      return std::nullopt;
    }
    return mint(query, parent);
  }

  std::span<const protocol::BlockIndex> mine_run(
      protocol::BlockIndex parent, std::uint64_t k) override {
    NEATBOUND_EXPECTS(k <= remaining_, "adversary query budget exhausted");
    const std::uint64_t first = budget_ - remaining_;
    remaining_ -= k;
    // One walk of the success field over the k positions, instead of k
    // membership tests: the cursor names each success directly.
    GapCursor& gaps = engine_.adversary_gaps_;
    gaps.advance_to(base() + first);
    auto& mined = engine_.mined_run_;
    mined.clear();
    while (gaps.peek() < base() + first + k) {
      parent = mint(gaps.take() - base(), parent);
      // neatbound-analyze: allow(hot-alloc) — reused scratch: capacity
      // settles at the largest per-round success count.
      mined.push_back(parent);
    }
    return mined;
  }

  void publish_to(std::uint32_t recipient, protocol::BlockIndex block,
                  std::uint64_t delay) override {
    NEATBOUND_EXPECTS(recipient < engine_.honest_count_,
                      "recipient out of range");
    NEATBOUND_EXPECTS(block < engine_.store_.size(),
                      "published block does not exist");
    const std::uint64_t d = engine_.clamp_delay(delay);
    engine_.calendar_.schedule(round_ + d, recipient, block);
    engine_.schedule_echo(round_ + d, block);
  }

  void publish_to_all(protocol::BlockIndex block,
                      std::uint64_t delay) override {
    NEATBOUND_EXPECTS(block < engine_.store_.size(),
                      "published block does not exist");
    const std::uint64_t d = engine_.clamp_delay(delay);
    engine_.calendar_.schedule(round_ + d, 0, engine_.honest_count_, block);
    engine_.schedule_echo(round_ + d, block);
  }

 private:
  /// First flat success-field position of this round.
  [[nodiscard]] std::uint64_t base() const noexcept {
    return (round_ - 1) * budget_;
  }

  /// Stores the adversary block of successful query `query` on `parent`.
  /// Block draws are keyed by (round, query), so they are independent of
  /// every other success.
  protocol::BlockIndex mint(std::uint64_t query, protocol::BlockIndex parent) {
    const crng::Block draws = crng::philox4x64(
        {round_, query, purpose_of(crng::Purpose::kAdversaryBlock), 0},
        engine_.key_);
    protocol::Block block = protocol::assemble_block(
        engine_.oracle_, engine_.store_.hash_of(parent),
        /*payload_digest=*/draws[1], /*nonce=*/draws[0]);
    block.parent = parent;
    block.round = round_;
    block.miner_class = protocol::MinerClass::kAdversary;
    block.miner = engine_.honest_count_;  // corrupted ids share one bucket
    ++engine_.adversary_blocks_total_;
    ++engine_.round_activity_.adversary_mined;
    NEATBOUND_COUNT(kAdversaryBlocksMined);
    return engine_.store_.add(std::move(block));
  }

  ExecutionEngine& engine_;
  std::uint64_t round_;
  std::uint64_t remaining_;
  std::uint64_t budget_;
};

ExecutionEngine::ExecutionEngine(EngineConfig config,
                                 std::unique_ptr<Adversary> adversary)
    : config_(validated(config)),
      honest_count_(honest_miner_count(config)),
      adversary_queries_(corrupted_count(config)),
      oracle_(mix64(config.seed ^ 0x5bd1e995u)),
      calendar_(config.miner_count),
      adversary_(std::move(adversary)),
      opportunities_(config.delta),
      opportunity_state_(opportunities_.start()) {
  NEATBOUND_EXPECTS(adversary_ != nullptr, "an adversary is required");
  key_ = engine_rng_key(config);
  honest_gaps_ = GapCursor(key_, crng::Purpose::kHonestGap, config.p);
  if (adversary_queries_ > 0) {
    adversary_gaps_ = GapCursor(key_, crng::Purpose::kAdversaryGap, config.p);
  }
  // Quiet-round skipping requires that the adversary's act() is
  // observably a no-op on quiet rounds (the contract in
  // sim/adversary.hpp).
  quiet_eligible_ =
      adversary_queries_ == 0 || adversary_->quiet_act_is_noop();
  // Every view starts as genesis-only: one class holding them all.  The
  // slot vector never outgrows honest_count_ (each live class has a
  // member), so reserving it keeps ViewClass references stable.
  classes_.reserve(honest_count_);
  classes_.emplace_back();
  classes_[0].size = honest_count_;
  live_.push_back(0);
  class_of_.assign(honest_count_, 0);
  covered_.assign(honest_count_, 0);
  tips_scratch_.resize(honest_count_, protocol::kGenesisIndex);
  class_tips_.push_back(protocol::kGenesisIndex);
  class_leads_.push_back(0);
  delays_.resize(honest_count_);
  // At most honest_count_ honest blocks per round, so the per-round miner
  // list never reallocates after this.
  round_miners_.reserve(honest_count_);
}

ExecutionEngine::~ExecutionEngine() = default;

protocol::BlockIndex ExecutionEngine::honest_tip(std::uint32_t miner) const {
  NEATBOUND_EXPECTS(miner < honest_count_, "miner id out of range");
  return classes_[class_of_[miner]].view.tip();
}

protocol::BlockIndex ExecutionEngine::best_honest_tip() const {
  return best_tip_;
}

std::span<const protocol::BlockIndex> ExecutionEngine::honest_tips() const {
  if (tips_stale_) {
    for (std::uint32_t m = 0; m < honest_count_; ++m) {
      tips_scratch_[m] = classes_[class_of_[m]].view.tip();
    }
    tips_stale_ = false;
  }
  return tips_scratch_;
}

void ExecutionEngine::relabel(std::uint32_t c, std::uint32_t to) noexcept {
  std::uint32_t left = classes_[c].size;
  for (std::uint32_t m = classes_[c].lead; left > 0; ++m) {
    if (class_of_[m] != c) continue;
    --left;
    class_of_[m] = to;
  }
}

void ExecutionEngine::note_adoption(std::uint32_t c) {
  const ViewClass& vc = classes_[c];
  const protocol::BlockIndex tip = vc.view.tip();
  tips_stale_ = true;
  const std::uint64_t height = vc.view.tip_height();
  const std::uint32_t lead = vc.lead;
  if (height > best_height_ || (height == best_height_ && lead < best_view_)) {
    best_height_ = height;
    best_view_ = lead;
    best_tip_ = tip;
  }
  // The incremental best-tip triple is what the adversary and the metrics
  // read instead of rescanning views: it must keep naming a real view's
  // tip at its real height, and must never fall behind the tip that was
  // just adopted.
  NEATBOUND_INVARIANT(best_height_ == store_.height_of(best_tip_),
                      "best-tip height cache out of lockstep with the store");
  NEATBOUND_INVARIANT(best_view_ < honest_count_ &&
                          classes_[class_of_[best_view_]].view.tip() ==
                              best_tip_,
                      "best-tip cache names a tip no view holds");
  NEATBOUND_INVARIANT(best_height_ >= height,
                      "best-tip cache fell behind a fresh adoption");
}

void ExecutionEngine::record_delivery(std::uint32_t c,
                                      const AdoptionEvent& event,
                                      std::uint32_t count) {
  NEATBOUND_COUNT(kClassDeliveries);
  if (event.duplicate) {
    NEATBOUND_COUNT_ADD(kDuplicateDeliveries, count);
    return;
  }
  classes_[c].changed = true;
  NEATBOUND_COUNT_ADD(kOrphansBuffered,
                      std::uint64_t{event.orphans_buffered} * count);
  NEATBOUND_COUNT_ADD(kOrphansActivated,
                      std::uint64_t{event.orphans_activated} * count);
  if (!event.adopted) return;
  round_activity_.adoptions += count;
  NEATBOUND_COUNT_ADD(kAdoptions, count);
  note_adoption(c);
  if (event.reorg_depth == 0) return;
  NEATBOUND_COUNT_ADD(kReorgs, count);
  consistency_.observe_reorg(event.reorg_depth);
  // The first view, in (delivery, ascending recipient) order, to reach
  // the round's deepest reorg: classes of one group compare leads.
  const std::uint32_t lead = classes_[c].lead;
  if (event.reorg_depth > round_activity_.max_reorg_depth ||
      (event.reorg_depth == round_activity_.max_reorg_depth &&
       delivery_serial_ == max_reorg_serial_ &&
       lead < round_activity_.max_reorg_view)) {
    round_activity_.max_reorg_depth = event.reorg_depth;
    round_activity_.max_reorg_view = lead;
    max_reorg_serial_ = delivery_serial_;
  }
}

std::uint64_t ExecutionEngine::clamp_delay(std::uint64_t d) const noexcept {
  return std::clamp<std::uint64_t>(d, 1, config_.delta);
}

void ExecutionEngine::grow_echoed(protocol::BlockIndex block) {
  // Doubling: one resize per doubling of the store, not one per block.
  // neatbound-analyze: allow(hot-alloc) — amortized O(1) per block ever
  // mined (not per delivery).
  echoed_.resize(std::max<std::size_t>(block + 1, 2 * echoed_.size()), false);
}

void ExecutionEngine::schedule_echo(std::uint64_t first_receipt_round,
                                    protocol::BlockIndex block) {
  if (echoed_.size() <= block) grow_echoed(block);
  if (echoed_[block]) return;
  echoed_[block] = true;
  calendar_.schedule(first_receipt_round + config_.delta, 0, honest_count_,
                     block);
}

void ExecutionEngine::deliver_due(std::uint64_t round) {
  calendar_.drain_runs(round, [this](const net::DeliveryRun& run) {
    if (!group_.empty() &&
        (run.block != group_block_ || run.lo < group_.back().hi)) {
      deliver_group();
    }
    group_block_ = run.block;
    // neatbound-analyze: allow(hot-alloc) — reused scratch: capacity
    // settles at the longest group.
    group_.push_back({run.lo, run.hi});
  });
  if (!group_.empty()) deliver_group();
  merge_classes();
  // class_of_ is the only membership record, and every walk over a class
  // trusts its size and lead: the sizes must partition the honest views,
  // and each lead must be its class's lowest member.
  NEATBOUND_INVARIANT(
      std::accumulate(live_.begin(), live_.end(), std::uint32_t{0},
                      [this](std::uint32_t sum, std::uint32_t c) {
                        return sum + classes_[c].size;
                      }) == honest_count_,
      "view-class sizes do not add up to the honest view count");
  NEATBOUND_INVARIANT(
      std::all_of(live_.begin(), live_.end(),
                  [this](std::uint32_t c) {
                    const auto lead = class_of_.begin() + classes_[c].lead;
                    return *lead == c &&
                           std::find(class_of_.begin(), lead, c) == lead;
                  }),
      "a class lead is not the lowest view of its class");
  NEATBOUND_INVARIANT(
      std::all_of(live_.begin(), live_.end(),
                  [this](std::uint32_t c) {
                    return std::count(class_of_.begin(), class_of_.end(), c) ==
                           classes_[c].size;
                  }),
      "a class size differs from its views in class_of_");
}

void ExecutionEngine::deliver_group() {
  ++delivery_serial_;
  const protocol::BlockIndex block = group_block_;
  // Count covered members per class on the smaller side: walk the covered
  // ranges, or start each class at its size and take off the views in the
  // gaps, so a broadcast to all but the sender walks one view.
  // Neighbouring views mostly share a class, so the count is kept in a
  // register until the class changes.
  std::uint32_t span = 0;
  for (const RecipientRange& r : group_) span += r.hi - r.lo;
  const bool by_gaps = span > honest_count_ - span;
  if (by_gaps) {
    for (const std::uint32_t c : live_) covered_[c] = classes_[c].size;
  }
  for_each_side(group_, by_gaps, honest_count_,
                [this, by_gaps](std::uint32_t lo, std::uint32_t hi) {
                  for (std::uint32_t m = lo; m < hi;) {
                    const std::uint32_t c = class_of_[m];
                    std::uint32_t run = 0;
                    for (; m < hi && class_of_[m] == c; ++m) ++run;
                    covered_[c] = by_gaps ? covered_[c] - run
                                          : covered_[c] + run;
                  }
                });
  // Classes split off below are appended to live_ and already served.
  const std::size_t live = live_.size();
  for (std::size_t i = 0; i < live; ++i) {
    std::uint32_t c = live_[i];
    const std::uint32_t count = covered_[c];
    if (count == 0) continue;
    covered_[c] = 0;
    // Only a delivery that changes the view needs its own copy; a
    // duplicate is a no-op for the whole class.
    if (count < classes_[c].size && classes_[c].view.accepts(block, store_)) {
      c = split_class(c, group_, count);
    }
    round_activity_.delivered += count;
    NEATBOUND_COUNT_ADD(kDeliveries, count);
    record_delivery(c, classes_[c].view.deliver(block, store_), count);
  }
  group_.clear();
}

std::uint32_t ExecutionEngine::split_class(
    std::uint32_t c, std::span<const RecipientRange> covered,
    std::uint32_t count) {
  NEATBOUND_COUNT(kClassSplits);
  std::uint32_t s = 0;
  if (free_.empty()) {
    s = static_cast<std::uint32_t>(classes_.size());
    // neatbound-analyze: allow(hot-alloc) — within the capacity reserved
    // in the constructor; a slot's storage is reused once freed.
    classes_.emplace_back();
  } else {
    s = free_.back();
    free_.pop_back();
  }
  ViewClass& from = classes_[c];
  ViewClass& to = classes_[s];
  // Copy-assignment reuses the freed slot's capacity.
  to.view = from.view;
  to.changed = true;  // a new class: a merge candidate by definition
  to.size = count;
  from.size -= count;
  // The new slot takes the covered side, found by walking the covered
  // ranges from the class's lead on.
  std::uint32_t left = count;
  for (const RecipientRange& r : covered) {
    for (std::uint32_t m = std::max(r.lo, from.lead); m < r.hi && left > 0;
         ++m) {
      if (class_of_[m] != c) continue;
      if (left == count) to.lead = m;
      class_of_[m] = s;
      --left;
    }
    if (left == 0) break;
  }
  // If the lead moved, the class's lowest remaining member lies above it.
  while (class_of_[from.lead] != c) ++from.lead;
  // neatbound-analyze: allow(hot-alloc) — capacity settles at the most
  // live classes (≤ honest_count_).
  live_.push_back(s);
  return s;
}

void ExecutionEngine::merge_classes() {
  merge_worklist_.clear();
  for (const std::uint32_t c : live_) {
    if (!classes_[c].changed) continue;
    classes_[c].changed = false;
    // neatbound-analyze: allow(hot-alloc) — reused scratch (≤ live classes).
    merge_worklist_.push_back(c);
  }
  // Classes that did not change were pairwise distinct after the last
  // pass and still are, so only a changed class can have a twin.  After
  // a merge the survivor keeps looking: it may equal another class too.
  for (std::uint32_t a : merge_worklist_) {
    if (classes_[a].size == 0) continue;  // already absorbed
    for (std::size_t j = 0; j < live_.size(); ++j) {
      const std::uint32_t b = live_[j];
      if (b == a || !classes_[a].view.same_state(classes_[b].view)) continue;
      a = merge_pair(a, b);
      j = static_cast<std::size_t>(-1);  // live_ shrank: rescan
    }
  }
}

std::uint32_t ExecutionEngine::merge_pair(std::uint32_t a, std::uint32_t b) {
  NEATBOUND_COUNT(kClassMerges);
  // The larger class survives; the smaller one's views are relabelled.
  const bool keep_a = classes_[a].size >= classes_[b].size;
  const std::uint32_t keep = keep_a ? a : b;
  const std::uint32_t gone = keep_a ? b : a;
  relabel(gone, keep);
  ViewClass& kept = classes_[keep];
  ViewClass& moved = classes_[gone];
  kept.size += moved.size;
  kept.lead = std::min(kept.lead, moved.lead);
  moved.size = 0;
  live_.erase(std::find(live_.begin(), live_.end(), gone));
  // neatbound-analyze: allow(hot-alloc) — capacity ≤ honest_count_.
  free_.push_back(gone);
  return keep;
}

void ExecutionEngine::broadcast_honest(std::uint64_t round,
                                       std::uint32_t sender,
                                       protocol::BlockIndex block) {
  // Scoped per mined block (rare: n·p per round), not per recipient.
  NEATBOUND_PHASE_SCOPE(kSchedule);
  adversary_->honest_delays(round, sender, block, delays_);
  net::for_each_delay_run(
      sender, delays_,
      [&](std::uint32_t lo, std::uint32_t hi, std::uint64_t delay) {
        calendar_.schedule(round + clamp_delay(delay), lo, hi, block);
      });
  // The sender itself received the block at `round`; gossip echo from that
  // first receipt (a no-op here since every recipient is already
  // scheduled within Δ, but it keeps the invariant uniform).
  if (echoed_.size() <= block) grow_echoed(block);
  echoed_[block] = true;
}

void ExecutionEngine::register_honest_block(std::uint64_t round,
                                            std::uint32_t miner,
                                            protocol::Block&& block) {
  block.round = round;
  block.miner = miner;
  block.miner_class = protocol::MinerClass::kHonest;
  const protocol::BlockIndex index = store_.add(std::move(block));
  ++round_activity_.honest_mined;
  // neatbound-analyze: allow(hot-alloc) — capacity pre-reserved to
  // honest_count_ in the constructor; this append never reallocates.
  round_miners_.push_back(miner);
  NEATBOUND_COUNT(kHonestBlocksMined);
  // The miner adopts its own block immediately (it extends its tip), which
  // sets its view apart from the rest of its class.
  std::uint32_t c = class_of_[miner];
  if (classes_[c].size > 1) {
    const RecipientRange self{miner, miner + 1};
    c = split_class(c, {&self, 1}, 1);
  }
  ++delivery_serial_;
  record_delivery(c, classes_[c].view.deliver(index, store_), 1);
  adversary_->on_honest_block(round, index);
  broadcast_honest(round, miner, index);
}

void ExecutionEngine::honest_mining_phase(std::uint64_t round) {
  // Walk the honest Bernoulli success field over this round's positions
  // [(round−1)·n, round·n).  The cursor is monotone and every earlier
  // round consumed its own span, so its next success is already ≥ the
  // round base; miners come out in increasing id order.
  const std::uint64_t end = round * static_cast<std::uint64_t>(honest_count_);
  const std::uint64_t base = end - honest_count_;
  while (honest_gaps_.peek() < end) {
    const auto m = static_cast<std::uint32_t>(honest_gaps_.take() - base);
    const crng::Block draws = crng::philox4x64(
        {round, m, purpose_of(crng::Purpose::kHonestBlock), 0}, key_);
    const protocol::BlockIndex parent = classes_[class_of_[m]].view.tip();
    protocol::Block block = protocol::assemble_block(
        oracle_, store_.hash_of(parent), /*payload_digest=*/draws[1],
        /*nonce=*/draws[0]);
    block.parent = parent;
    register_honest_block(round, m, std::move(block));
  }
  const std::uint32_t mined = round_activity_.honest_mined;
  honest_blocks_total_ += mined;
  const chains::OpportunityAutomaton::Step step = opportunities_.step(
      opportunity_state_, chains::OpportunityAutomaton::input_of(mined));
  opportunity_state_ = step.next;
  convergence_opportunities_ += step.completes ? 1 : 0;
}

void ExecutionEngine::step_round(std::uint64_t round,
                                 const RoundObserver& observer) {
  round_activity_ = {};
  round_miners_.clear();
  {
    NEATBOUND_PHASE_SCOPE(kDeliver);
    deliver_due(round);
  }
  {
    NEATBOUND_PHASE_SCOPE(kMine);
    honest_mining_phase(round);
  }
  // best_tip_ is already current: every adoption path runs through
  // note_adoption, which also marks the per-view snapshot for rebuilding
  // at its next read.
  if (adversary_queries_ > 0) {
    NEATBOUND_PHASE_SCOPE(kAdversary);
    Ops ops(*this, round, adversary_queries_);
    adversary_->act(ops);
    // Publication may not change views until delivery, so the snapshot
    // taken above remains valid for metrics.  Unspent queries of this
    // round are forfeited: the success field restarts at the next round's
    // base regardless of how much budget the strategy used, so
    // trajectories never depend on spent budget.
    adversary_gaps_.advance_to(round *
                               static_cast<std::uint64_t>(adversary_queries_));
  }
  {
    NEATBOUND_PHASE_SCOPE(kMetrics);
    class_tips_.clear();
    class_leads_.clear();
    for (const std::uint32_t c : live_) {
      // neatbound-analyze: allow(hot-alloc) — reused scratch (≤ live
      // classes).
      class_tips_.push_back(classes_[c].view.tip());
      // neatbound-analyze: allow(hot-alloc) — reused scratch (≤ live
      // classes).
      class_leads_.push_back(classes_[c].lead);
    }
    consistency_.observe_round(class_tips_, store_);
  }
  if (observer) observer(*this, round);
}

std::uint64_t ExecutionEngine::skip_quiet_rounds(std::uint64_t round,
                                                 std::uint64_t last) {
  if (!quiet_eligible_) return round;
  // A round is quiet iff all three event sources are silent: the honest
  // success field has no position in the round's span, the adversary
  // field has none either (so every one of its queries would fail), and
  // no message is due.  Each source names its next busy round directly —
  // a gap-cursor position p is the flat address (round−1)·span + slot,
  // so its round is p/span + 1 — which locates the whole quiet run
  // without examining the rounds inside it.  Cursors are not advanced;
  // their next success already lies inside the first busy round.
  std::uint64_t busy =
      honest_gaps_.peek() / static_cast<std::uint64_t>(honest_count_) + 1;
  if (adversary_queries_ > 0) {
    const std::uint64_t a_busy =
        adversary_gaps_.peek() /
            static_cast<std::uint64_t>(adversary_queries_) + 1;
    busy = a_busy < busy ? a_busy : busy;
  }
  if (busy <= round) return round;
  // has_due first: it advances the ring past drained buckets exactly as
  // step_round's drain would (the state-equivalence contract), which
  // also establishes next_due_round's "nothing pending ≤ round"
  // precondition.
  if (calendar_.has_due(round)) return round;
  const std::uint64_t due = calendar_.next_due_round(round);
  busy = due < busy ? due : busy;
  const std::uint64_t stop = busy < last + 1 ? busy : last + 1;
  const std::uint64_t skipped = stop - round;
  // Commit the quiet rounds: observably identical to stepping each one,
  // which the skip-vs-noskip differential battery pins per strategy.
  round_activity_ = {};
  round_miners_.clear();
  const chains::OpportunityAutomaton::Step step =
      opportunities_.step_quiet(opportunity_state_, skipped);
  opportunity_state_ = step.next;
  convergence_opportunities_ += step.completes ? 1 : 0;
  consistency_.observe_rounds_unchanged(skipped);
  NEATBOUND_COUNT_ADD(kQuietRoundsSkipped, skipped);
  return stop;
}

RunResult ExecutionEngine::finish_run() {
  RunResult result;
  result.honest_blocks_total = honest_blocks_total_;
  result.adversary_blocks_total = adversary_blocks_total_;
  result.convergence_opportunities = convergence_opportunities_;
  result.max_reorg_depth = consistency_.max_reorg_depth();
  result.max_divergence = consistency_.max_divergence();
  result.disagreement_rounds = consistency_.disagreement_rounds();
  result.violation_depth = consistency_.violation_depth();
  result.chain = measure_chain(store_, best_honest_tip(), config_.rounds);
  result.store_size = store_.size();
  result.telemetry = telemetry::snapshot();
  return result;
}

RunResult ExecutionEngine::run(const RoundObserver& observer) {
  NEATBOUND_EXPECTS(!ran_, "run() may be called once");
  ran_ = true;
  // Telemetry registers are thread_local and reset here, so the snapshot
  // taken by finish_run covers exactly this run, on whichever worker
  // thread executed it.
  telemetry::reset();
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    // Observed or not, a run commits its quiet rounds in O(1); an
    // observer then sees each committed round in turn, in exactly the
    // state a stepped quiet round leaves (zeroed activity, unchanged
    // tips, store, best height and violation depth).
    const std::uint64_t busy = skip_quiet_rounds(round, config_.rounds);
    if (observer) {
      for (; round < busy; ++round) observer(*this, round);
    }
    round = busy;
    if (round > config_.rounds) break;
    step_round(round, observer);
  }
  return finish_run();
}

}  // namespace neatbound::sim
