#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "chains/convergence.hpp"
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
  NEATBOUND_EXPECTS(config.p > 0.0 && config.p < 1.0,
                    "mining hardness p must be in (0, 1)");
  NEATBOUND_EXPECTS(config.delta >= 1, "delta must be >= 1");
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
    return engine_.tips_scratch_;
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
    // position (round−1)·budget + query; block draws are keyed by
    // (round, query) so they are independent of every other success.
    const std::uint64_t pos = (round_ - 1) * budget_ + query;
    if (!engine_.adversary_gaps_.contains_take(pos)) return std::nullopt;
    const crng::Block draws = crng::philox4x64(
        {round_, query, purpose_of(crng::Purpose::kAdversaryBlock), 0},
        engine_.key_);
    protocol::Block block = protocol::assemble_block(
        engine_.oracle_, engine_.store_.hash_of(parent),
        /*payload_digest=*/draws[1], /*nonce=*/draws[0]);
    block.round = round_;
    block.miner_class = protocol::MinerClass::kAdversary;
    block.miner = engine_.honest_count_;  // corrupted ids share one bucket
    ++engine_.adversary_blocks_total_;
    ++engine_.round_activity_.adversary_mined;
    NEATBOUND_COUNT(kAdversaryBlocksMined);
    return engine_.store_.add(std::move(block));
  }

  void publish_to(std::uint32_t recipient, protocol::BlockIndex block,
                  std::uint64_t delay) override {
    NEATBOUND_EXPECTS(recipient < engine_.honest_count_,
                      "recipient out of range");
    const std::uint64_t d = engine_.clamp_delay(delay);
    engine_.calendar_.schedule(round_ + d, recipient, block);
    engine_.schedule_echo(round_ + d, block);
  }

  void publish_to_all(protocol::BlockIndex block,
                      std::uint64_t delay) override {
    const std::uint64_t d = engine_.clamp_delay(delay);
    for (std::uint32_t r = 0; r < engine_.honest_count_; ++r) {
      engine_.calendar_.schedule(round_ + d, r, block);
    }
    engine_.schedule_echo(round_ + d, block);
  }

 private:
  ExecutionEngine& engine_;
  std::uint64_t round_;
  std::uint64_t remaining_;
  std::uint64_t budget_;
};

ExecutionEngine::ExecutionEngine(EngineConfig config,
                                 std::unique_ptr<Adversary> adversary)
    : config_(config),
      honest_count_(honest_miner_count(config)),
      adversary_queries_(corrupted_count(config)),
      oracle_(mix64(config.seed ^ 0x5bd1e995u)),
      calendar_(config.miner_count),
      adversary_(std::move(adversary)) {
  validate_engine_config(config);
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
  views_.resize(honest_count_);
  tips_scratch_.resize(honest_count_, protocol::kGenesisIndex);
  // At most honest_count_ honest blocks per round, so the per-round miner
  // list never reallocates after this.
  round_miners_.reserve(honest_count_);
}

ExecutionEngine::~ExecutionEngine() = default;

protocol::BlockIndex ExecutionEngine::honest_tip(std::uint32_t miner) const {
  NEATBOUND_EXPECTS(miner < honest_count_, "miner id out of range");
  return views_[miner].tip();
}

protocol::BlockIndex ExecutionEngine::best_honest_tip() const {
  return best_tip_;
}

void ExecutionEngine::note_adoption(std::uint32_t miner) {
  const protocol::BlockIndex tip = views_[miner].tip();
  tips_scratch_[miner] = tip;
  const std::uint64_t height = views_[miner].tip_height();
  if (height > best_height_ ||
      (height == best_height_ && miner < best_view_)) {
    best_height_ = height;
    best_view_ = miner;
    best_tip_ = tip;
  }
  // The incremental best-tip triple is what the adversary and the metrics
  // read instead of rescanning views: it must keep naming a real view's
  // tip at its real height, and must never fall behind the tip that was
  // just adopted.
  NEATBOUND_INVARIANT(best_height_ == store_.height_of(best_tip_),
                      "best-tip height cache out of lockstep with the store");
  NEATBOUND_INVARIANT(best_view_ < honest_count_ &&
                          tips_scratch_[best_view_] == best_tip_,
                      "best-tip cache names a tip no view holds");
  NEATBOUND_INVARIANT(best_height_ >= height,
                      "best-tip cache fell behind a fresh adoption");
}

std::uint64_t ExecutionEngine::clamp_delay(std::uint64_t d) const noexcept {
  return std::clamp<std::uint64_t>(d, 1, config_.delta);
}

void ExecutionEngine::schedule_echo(std::uint64_t first_receipt_round,
                                    protocol::BlockIndex block) {
  // neatbound-analyze: allow(hot-alloc) — lazy bitset growth, amortized
  // O(1) per block ever mined (not per delivery).
  if (echoed_.size() <= block) echoed_.resize(block + 1, false);
  if (echoed_[block]) return;
  echoed_[block] = true;
  for (std::uint32_t r = 0; r < honest_count_; ++r) {
    calendar_.schedule(first_receipt_round + config_.delta, r, block);
  }
}

void ExecutionEngine::deliver_due(std::uint64_t round) {
  calendar_.drain_due(round, [this](const net::Delivery& d) {
    ++round_activity_.delivered;
    NEATBOUND_COUNT(kDeliveries);
    const AdoptionEvent event = views_[d.recipient].deliver(d.block, store_);
    if (event.adopted) {
      ++round_activity_.adoptions;
      NEATBOUND_COUNT(kAdoptions);
      if (event.reorg_depth > 0) NEATBOUND_COUNT(kReorgs);
      note_adoption(d.recipient);
      if (event.reorg_depth > 0) {
        consistency_.observe_reorg(event.reorg_depth);
        if (event.reorg_depth > round_activity_.max_reorg_depth) {
          round_activity_.max_reorg_depth = event.reorg_depth;
          round_activity_.max_reorg_view = d.recipient;
        }
      }
    }
  });
}

void ExecutionEngine::broadcast_honest(std::uint64_t round,
                                       std::uint32_t sender,
                                       protocol::BlockIndex block) {
  // Scoped per mined block (rare: n·p per round), not per recipient.
  NEATBOUND_PHASE_SCOPE(kSchedule);
  for (std::uint32_t r = 0; r < honest_count_; ++r) {
    if (r == sender) continue;
    const std::uint64_t d =
        clamp_delay(adversary_->honest_delay(round, sender, r, block));
    calendar_.schedule(round + d, r, block);
  }
  // The sender itself received the block at `round`; gossip echo from that
  // first receipt (a no-op here since every recipient is already
  // scheduled within Δ, but it keeps the invariant uniform).
  // neatbound-analyze: allow(hot-alloc) — lazy bitset growth, amortized
  if (echoed_.size() <= block) echoed_.resize(block + 1, false);
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
  // The miner adopts its own block immediately (it extends its tip).
  const AdoptionEvent event = views_[miner].deliver(index, store_);
  if (event.adopted) {
    ++round_activity_.adoptions;
    NEATBOUND_COUNT(kAdoptions);
    if (event.reorg_depth > 0) NEATBOUND_COUNT(kReorgs);
    note_adoption(miner);
    if (event.reorg_depth > 0) {
      consistency_.observe_reorg(event.reorg_depth);
      if (event.reorg_depth > round_activity_.max_reorg_depth) {
        round_activity_.max_reorg_depth = event.reorg_depth;
        round_activity_.max_reorg_view = miner;
      }
    }
  }
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
    register_honest_block(
        round, m,
        protocol::assemble_block(oracle_, store_.hash_of(tips_scratch_[m]),
                                 /*payload_digest=*/draws[1],
                                 /*nonce=*/draws[0]));
  }
  // neatbound-analyze: allow(hot-alloc) — one amortized append per round
  // into the result metric; geometric growth, not per-miner work.
  honest_counts_.push_back(round_activity_.honest_mined);
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
  // tips_scratch_ / best_tip_ are already current: every adoption path
  // runs through note_adoption, so the adversary and metrics read the
  // same snapshot the old per-round rescan produced.
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
    consistency_.observe_round(tips_scratch_, store_);
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
  // neatbound-analyze: allow(hot-alloc) — reserved to `rounds` in
  // run(); this append never reallocates.
  honest_counts_.insert(honest_counts_.end(), skipped, 0);
  consistency_.observe_rounds_unchanged(skipped);
  NEATBOUND_COUNT_ADD(kQuietRoundsSkipped, skipped);
  return stop;
}

RunResult ExecutionEngine::finish_run() {
  RunResult result;
  result.honest_counts = honest_counts_;
  result.honest_blocks_total = 0;
  for (const std::uint32_t c : honest_counts_) {
    result.honest_blocks_total += c;
  }
  result.adversary_blocks_total = adversary_blocks_total_;
  result.convergence_opportunities =
      chains::count_convergence_opportunities(honest_counts_, config_.delta);
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
  honest_counts_.reserve(config_.rounds);
  // Telemetry registers are thread_local and reset here, so the snapshot
  // taken by finish_run covers exactly this run, on whichever worker
  // thread executed it.
  telemetry::reset();
  for (std::uint64_t round = 1; round <= config_.rounds; ++round) {
    // An observer must see every round, so only unobserved runs skip.
    if (!observer) {
      round = skip_quiet_rounds(round, config_.rounds);
      if (round > config_.rounds) break;
    }
    step_round(round, observer);
  }
  return finish_run();
}

}  // namespace neatbound::sim
