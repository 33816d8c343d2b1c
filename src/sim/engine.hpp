// The round-based execution engine of Section III.
//
// Per round, in order:
//   1. due messages are delivered; honest players update their chains
//      (longest-chain rule);
//   2. every honest player makes exactly one parallel oracle query on its
//      current tip; freshly mined blocks are broadcast, with per-recipient
//      delays chosen by the adversary within [1, Δ];
//   3. the adversary (who observed everything, including this round's
//      honest blocks — it is rushing) takes its turn: up to νn sequential
//      queries on parents of its choice, plus publications;
//   4. metrics are recorded.
//
// Gossip echo: the first time a block reaches *any* honest player (round
// r₀), the engine schedules its delivery to every other honest player by
// r₀ + Δ.  This models honest re-broadcast, whose messages the adversary
// can again delay by at most Δ — without it, "delay ≤ Δ" would be
// meaningless for adversary-mined blocks sent to a single victim.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/delivery.hpp"
#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"
#include "sim/adversary.hpp"
#include "sim/draws.hpp"
#include "sim/environment.hpp"
#include "sim/metrics.hpp"
#include "sim/miner_view.hpp"
#include "support/crng.hpp"
#include "support/hot.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {

struct EngineConfig {
  std::uint32_t miner_count = 16;      ///< n (honest + corrupted)
  double adversary_fraction = 0.0;     ///< ν; corrupted count = round(νn)
  double p = 0.01;                     ///< proof-of-work hardness
  std::uint64_t delta = 1;             ///< Δ, max message delay in rounds
  std::uint64_t rounds = 1000;         ///< T, rounds to execute
  std::uint64_t seed = 1;              ///< master seed (oracle + mining)
};

/// The counter-RNG key of a run: cell = hash of the trajectory-shaping
/// parameters (n, ν, p, Δ), seed = the run seed.  Every draw of the run is
/// addressed as a pure function of (key, counter = (round, actor,
/// purpose)) — see support/crng.hpp — so the engine can prove a round
/// quiet from the gap cursors alone and commit it without stepping it
/// (pinned by tests/sim/test_quiet_skip_equivalence).  `rounds` is
/// excluded on purpose: truncating the horizon must replay a prefix of the
/// same trajectory (what the oracle replayer and checkpoint resume rely
/// on).
[[nodiscard]] crng::Key engine_rng_key(const EngineConfig& config);

/// Honest miner count the engine derives from a config: n minus
/// round(νn).  Partition/victim-table builders must size against exactly
/// this value, so it is exported rather than re-derived per call site.
[[nodiscard]] std::uint32_t honest_miner_count(const EngineConfig& config);

/// Rejects unusable parameter combinations with a ContractViolation whose
/// message names the offending field: n < 4 (the paper's condition (3)),
/// ν ∉ [0, 1/2) (which covers ν ≥ 1), p ∉ (0, 1), Δ = 0, T = 0, or a
/// corrupted count that leaves no honest miner.  Called by the engine
/// constructor; exposed so config-producing layers (CLI, scenario files)
/// can fail fast before spawning runs.
void validate_engine_config(const EngineConfig& config);

/// Event counts of the most recent round, maintained unconditionally
/// (plain increments — cheap enough to keep out of the telemetry gate)
/// so the round tracer (sim/trace.hpp) can read them without touching
/// simulation state.
struct RoundActivity {
  std::uint32_t honest_mined = 0;
  std::uint32_t adversary_mined = 0;
  std::uint32_t delivered = 0;
  std::uint32_t adoptions = 0;
  /// Deepest reorg any honest view performed this round (0 = none) and
  /// the view that performed it.  Input to the per-round invariant oracle
  /// (sim/oracle.hpp); like every other field here, never read back by
  /// simulation code.
  std::uint64_t max_reorg_depth = 0;
  std::uint32_t max_reorg_view = 0;
};

struct RunResult {
  std::vector<std::uint32_t> honest_counts;  ///< blocks honest miners mined, per round
  std::uint64_t honest_blocks_total = 0;
  std::uint64_t adversary_blocks_total = 0;  ///< mined (published or not)
  std::uint64_t convergence_opportunities = 0;
  std::uint64_t max_reorg_depth = 0;
  std::uint64_t max_divergence = 0;
  std::uint64_t disagreement_rounds = 0;
  std::uint64_t violation_depth = 0;
  ChainMetrics chain;
  std::uint64_t store_size = 0;  ///< all blocks ever mined (incl. genesis)
  /// Counter values + per-phase wall times of this run; all zeros in
  /// telemetry-OFF builds.  Never read by simulation code.
  telemetry::TelemetrySnapshot telemetry;
};

class ExecutionEngine {
 public:
  ExecutionEngine(EngineConfig config, std::unique_ptr<Adversary> adversary);
  /// With an environment, honest blocks embed Z's messages and the final
  /// ledgers (ext of each honest tip) become meaningful.
  ExecutionEngine(EngineConfig config, std::unique_ptr<Adversary> adversary,
                  std::unique_ptr<Environment> environment);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Called at the end of every round with the engine (read-only view of
  /// store/tips) and the just-finished round number.
  using RoundObserver =
      std::function<void(const ExecutionEngine&, std::uint64_t round)>;

  /// Runs the configured number of rounds and returns the metrics.
  /// May be called once per engine instance.  The optional observer fires
  /// after each round's deliveries, mining and adversary turn.  Without an
  /// observer, runs of provably-quiet rounds are committed in O(1) instead
  /// of being stepped (see skip_quiet_rounds).  The result is identical
  /// either way; only the telemetry counters quiet_rounds_skipped and
  /// ancestry_queries (re-queried on stepped rounds whose tips disagree)
  /// tell the two apart.
  [[nodiscard]] RunResult run(const RoundObserver& observer = {});

  // --- read-only access for tests / examples after run() ---
  [[nodiscard]] const protocol::BlockStore& store() const noexcept {
    return store_;
  }
  [[nodiscard]] const protocol::RandomOracle& oracle() const noexcept {
    return oracle_;
  }
  [[nodiscard]] std::uint32_t honest_count() const noexcept {
    return honest_count_;
  }
  [[nodiscard]] protocol::BlockIndex honest_tip(std::uint32_t miner) const;
  [[nodiscard]] protocol::BlockIndex best_honest_tip() const;
  /// Current tips of all honest miners (valid after run()).
  [[nodiscard]] std::span<const protocol::BlockIndex> honest_tips() const {
    return tips_scratch_;
  }

  // --- per-round activity, for RoundObserver consumers (sim/trace) ---
  /// Event counts of the round that just finished (or is executing).
  [[nodiscard]] const RoundActivity& round_activity() const noexcept {
    return round_activity_;
  }
  /// Honest miner ids that mined in the current round, in mining order.
  [[nodiscard]] std::span<const std::uint32_t> round_miners() const noexcept {
    return round_miners_;
  }
  /// Height of the best honest tip (the incremental maximum).
  [[nodiscard]] std::uint64_t best_height() const noexcept {
    return best_height_;
  }
  /// Running max consistency-violation depth observed so far.
  [[nodiscard]] std::uint64_t violation_depth() const noexcept {
    return consistency_.violation_depth();
  }

 private:
  class Ops;  // AdversaryOps implementation

  /// Executes one round (deliver → mine → adversary → metrics).  Rounds
  /// are stepped in order 1, 2, ..., config.rounds.
  NEATBOUND_HOT void step_round(std::uint64_t round,
                                const RoundObserver& observer);
  /// Commits every provably-quiet round of `round, round+1, ...` up to
  /// and including `last` — no due deliveries, no honest or adversary
  /// mining success, and an adversary whose act() is a no-op on such
  /// rounds — stopping at the first round that must be stepped, and
  /// returns the first round NOT committed (== `round` when round itself
  /// is busy or the fast path is unavailable: an attached environment, or
  /// an adversary that did not opt into the quiet-act contract).  A
  /// committed round is observably identical to a stepped one (zero
  /// honest count, unchanged-round metrics fold).  The whole
  /// run of quiet rounds costs O(1): the three event sources name their
  /// next busy round directly (gap-cursor positions are flat
  /// (round, slot) addresses; the calendar exposes its earliest pending
  /// round), so nothing is examined per skipped round.
  [[nodiscard]] NEATBOUND_HOT std::uint64_t skip_quiet_rounds(
      std::uint64_t round, std::uint64_t last);
  /// Assembles the RunResult after the final round.
  [[nodiscard]] RunResult finish_run();

  NEATBOUND_HOT void deliver_due(std::uint64_t round);
  NEATBOUND_HOT void honest_mining_phase(std::uint64_t round);
  NEATBOUND_HOT void broadcast_honest(std::uint64_t round,
                                      std::uint32_t sender,
                                      protocol::BlockIndex block);
  /// First-honest-receipt gossip echo (see file comment).
  NEATBOUND_HOT void schedule_echo(std::uint64_t first_receipt_round,
                                   protocol::BlockIndex block);
  [[nodiscard]] NEATBOUND_HOT std::uint64_t clamp_delay(
      std::uint64_t d) const noexcept;
  /// Records that view `miner` adopted a new tip: refreshes the dense tip
  /// snapshot and the running best-tip maximum, so honest_tips() and
  /// best_honest_tip() are O(1) reads instead of per-query view scans.
  /// The tie rule (strictly greater height, or equal height from a
  /// lower-indexed view) reproduces the old lowest-index-wins scan.
  NEATBOUND_HOT void note_adoption(std::uint32_t miner);

  /// Stamps metadata on a freshly mined honest block, stores it, updates
  /// views/metrics and broadcasts it.
  NEATBOUND_HOT void register_honest_block(std::uint64_t round,
                                           std::uint32_t miner,
                                           protocol::Block&& block);

  EngineConfig config_;
  std::uint32_t honest_count_;
  std::uint32_t adversary_queries_;
  protocol::RandomOracle oracle_;
  protocol::BlockStore store_;
  net::DeliveryCalendar calendar_;
  std::vector<MinerView> views_;
  std::unique_ptr<Adversary> adversary_;
  std::unique_ptr<Environment> environment_;
  /// The run key plus cursors over the honest and adversary Bernoulli
  /// success fields.
  crng::Key key_;
  GapCursor honest_gaps_;
  GapCursor adversary_gaps_;
  /// Precomputed eligibility for skip_quiet_rounds: no environment, and
  /// an adversary honouring the quiet-act contract.
  bool quiet_eligible_ = false;
  ConsistencyTracker consistency_;
  std::vector<std::uint32_t> honest_counts_;
  std::uint64_t adversary_blocks_total_ = 0;
  /// Current tip of every honest view, maintained incrementally on each
  /// adoption (never rescanned).
  std::vector<protocol::BlockIndex> tips_scratch_;
  // Running maximum over tips_scratch_ (see note_adoption).
  protocol::BlockIndex best_tip_ = protocol::kGenesisIndex;
  std::uint64_t best_height_ = 0;
  std::uint32_t best_view_ = 0;
  std::vector<bool> echoed_;  ///< per block: gossip echo already scheduled
  /// Reset at the top of every round; read only by observers/tracers —
  /// no simulation decision ever consults these.
  RoundActivity round_activity_;
  /// Honest miner ids of the current round; capacity pre-reserved to
  /// honest_count_ in the constructor, so the per-block append never
  /// allocates.
  std::vector<std::uint32_t> round_miners_;
  bool ran_ = false;
};

}  // namespace neatbound::sim
