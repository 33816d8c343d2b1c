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
//
// View classes: honest views with the same known set, tip and orphan
// buffer share one MinerView.  Every honest block reaches every honest
// player within Δ, so views differ only by blocks still in flight, and n
// views collapse to a handful of classes.  A per-view slot map is the
// one record of membership; a class keeps only its size and its lowest
// member, and every walk over a class's views scans the map from that
// member.  The calendar holds runs — (block, recipients [lo, hi)) — and
// a run that covers a whole class is one deliver() call; a run that
// covers part of a class the block would change splits it, copying the
// view and relabelling the covered side; an honest miner's own block
// splits that one view off.  After each round's deliveries, a
// changed class merges with any class in the same state
// (MinerView::same_state), relabelling the smaller class.  Per-view
// meaning is kept exactly: honest_tips() returns every view's tip, the
// best-tip tie rule names the lowest-indexed view, max_reorg_view names
// the first view in (run, ascending recipient) order, and the per-view
// counters add the class size.  Only calendar_scheduled (runs, not
// messages) and ancestry_queries (one longest-chain compare per class)
// read lower than an engine with one MinerView per player would report.
//
// Observers read classes too.  class_tips() and class_leads() give one
// tip and one lowest member per live class, rebuilt once per stepped
// round; the consistency tracker and the invariant oracle work from
// them.  Nothing in the engine keeps a per-view tip array current:
// honest_tips() materializes one from the class map when a tip has moved
// since its last read, for the readers that need views one by one
// (violation snapshots, strategies that split the honest players).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "chains/convergence.hpp"
#include "net/delivery.hpp"
#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"
#include "sim/adversary.hpp"
#include "sim/draws.hpp"
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
/// ν ∉ [0, 1/2) (which covers ν ≥ 1), Δ = 0, p ∉ (0, 1), T = 0, or a
/// corrupted count that leaves no honest miner.  Called by the engine
/// constructor; exposed so config-producing layers (CLI, scenario files)
/// can fail fast before spawning runs.
void validate_engine_config(const EngineConfig& config);

/// Event counts of the most recent round, kept so the round tracer
/// (sim/trace.hpp) can read them without touching simulation state
/// (the telemetry counters, by contrast, span the whole run).
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

/// What one run reports.  The engine keeps no per-round series: the
/// per-round honest block counts are read through a RoundObserver
/// (round_activity().honest_mined), and C is counted online.
struct RunResult {
  std::uint64_t honest_blocks_total = 0;     ///< mined by honest players
  std::uint64_t adversary_blocks_total = 0;  ///< mined (published or not)
  /// C (Eq. 26/44) over rounds 1..T: what count_convergence_opportunities
  /// gives on the run's per-round honest block counts, counted as the
  /// rounds pass by stepping chains::OpportunityAutomaton.
  std::uint64_t convergence_opportunities = 0;
  std::uint64_t max_reorg_depth = 0;
  std::uint64_t max_divergence = 0;
  std::uint64_t disagreement_rounds = 0;
  std::uint64_t violation_depth = 0;
  ChainMetrics chain;
  std::uint64_t store_size = 0;  ///< all blocks ever mined (incl. genesis)
  /// Counter values + per-phase wall times of this run (phase times are
  /// zero unless the run was timed).  Never read by simulation code.
  telemetry::TelemetrySnapshot telemetry;
};

class ExecutionEngine {
 public:
  ExecutionEngine(EngineConfig config, std::unique_ptr<Adversary> adversary);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Called at the end of every round with the engine (read-only view of
  /// store/tips) and the just-finished round number.
  using RoundObserver =
      std::function<void(const ExecutionEngine&, std::uint64_t round)>;

  /// Runs the configured number of rounds and returns the metrics.
  /// May be called once per engine instance.  Runs of provably-quiet
  /// rounds are committed in O(1) instead of being stepped (see
  /// skip_quiet_rounds); the result is identical to stepping them.  The
  /// optional observer fires once per round, in order: after a stepped
  /// round's deliveries, mining and adversary turn, and for each committed
  /// quiet round with zeroed round_activity(), no round_miners() and the
  /// tips, store, best height and violation depth a stepped quiet round
  /// shows.  Observing never changes which rounds are stepped, so an
  /// observed run reports the unobserved run's counters; only the
  /// observer's own store lookups add to ancestry_queries.
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
  /// Current tip of every honest view, indexed by view id.  Rebuilt from
  /// the class map, O(n), on the first read after a tip moved; what it
  /// shows is current until the engine next delivers or mines.
  [[nodiscard]] std::span<const protocol::BlockIndex> honest_tips() const;
  /// One tip per live view class, and at the same position that class's
  /// lowest member view, as of the end of the last stepped round (before
  /// the first: genesis, held by view 0's class).  A committed quiet round
  /// changes no tip, so these stay valid through it.
  [[nodiscard]] std::span<const protocol::BlockIndex> class_tips()
      const noexcept {
    return class_tips_;
  }
  [[nodiscard]] std::span<const std::uint32_t> class_leads() const noexcept {
    return class_leads_;
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
  /// Number of distinct honest view classes right now (diagnostic).
  [[nodiscard]] std::size_t view_class_count() const noexcept {
    return live_.size();
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
  /// is busy or the fast path is unavailable: an adversary that did not
  /// opt into the quiet-act contract).  A committed round is observably
  /// identical to a stepped one (zero honest count, unchanged-round
  /// metrics fold).  The whole run of quiet rounds costs O(1): the three
  /// event sources name their next busy round directly (gap-cursor
  /// positions are flat (round, slot) addresses; the calendar exposes its
  /// earliest pending round), so nothing is examined per skipped round.
  [[nodiscard]] NEATBOUND_HOT std::uint64_t skip_quiet_rounds(
      std::uint64_t round, std::uint64_t last);
  /// Assembles the RunResult after the final round.
  [[nodiscard]] RunResult finish_run();

  /// Honest views sharing one state (see file comment).  Its members are
  /// the `size` views from `lead` on that class_of_ maps to it.
  struct ViewClass {
    MinerView view;
    std::uint32_t size = 0;  ///< member count (0: a free slot)
    std::uint32_t lead = 0;  ///< lowest member id
    bool changed = false;    ///< changed since the last merge pass
  };

  /// Recipients [lo, hi).
  struct RecipientRange {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };

  NEATBOUND_HOT void deliver_due(std::uint64_t round);
  /// Delivers group_block_ to the recipients in group_ — consecutive
  /// calendar runs of one block over ascending, disjoint ranges, such as
  /// the two halves of a broadcast around its sender — then clears the
  /// group.  Each covered view receives the block once and at the same
  /// point of its delivery sequence as run-by-run delivery would give it,
  /// but a class covered by the union needs no split.
  NEATBOUND_HOT void deliver_group();
  /// Splits class `c`, `count` of whose members lie inside `covered`
  /// (ascending, disjoint), into the covered and the uncovered side: a new
  /// slot takes a copy of the view and the covered members.  Returns the
  /// new slot.
  NEATBOUND_HOT std::uint32_t split_class(
      std::uint32_t c, std::span<const RecipientRange> covered,
      std::uint32_t count);
  /// Merges every class changed this round into an equal-state class.
  NEATBOUND_HOT void merge_classes();
  /// Merges two equal-state classes; returns the surviving slot.
  NEATBOUND_HOT std::uint32_t merge_pair(std::uint32_t a, std::uint32_t b);
  /// Applies `event` — a delivery to class `c` standing for `count`
  /// per-view deliveries — to the counters, tips and reorg tracking.
  NEATBOUND_HOT void record_delivery(std::uint32_t c,
                                     const AdoptionEvent& event,
                                     std::uint32_t count);
  NEATBOUND_HOT void honest_mining_phase(std::uint64_t round);
  NEATBOUND_HOT void broadcast_honest(std::uint64_t round,
                                      std::uint32_t sender,
                                      protocol::BlockIndex block);
  /// First-honest-receipt gossip echo (see file comment).
  NEATBOUND_HOT void schedule_echo(std::uint64_t first_receipt_round,
                                   protocol::BlockIndex block);
  [[nodiscard]] NEATBOUND_HOT std::uint64_t clamp_delay(
      std::uint64_t d) const noexcept;
  /// Records that class `c` adopted a new tip: refreshes the running
  /// best-tip maximum, so best_honest_tip() is an O(1) read, and marks the
  /// per-view snapshot stale.  The tie rule (strictly greater height, or
  /// equal height from a lower-indexed view — the class's lead)
  /// reproduces the old lowest-index-wins scan.
  NEATBOUND_HOT void note_adoption(std::uint32_t c);
  /// Moves every member of class `c` to slot `to` in class_of_.
  NEATBOUND_HOT void relabel(std::uint32_t c, std::uint32_t to) noexcept;
  /// Grows echoed_ to cover `block`, doubling its size.
  void grow_echoed(protocol::BlockIndex block);

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
  /// Class slots (capacity honest_count_, so references stay valid);
  /// live_ lists the slots in use, free_ the reusable ones, and
  /// class_of_ maps each honest view to its slot — the only record of
  /// which views a class holds.
  std::vector<ViewClass> classes_;
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> class_of_;
  /// Per slot: members the delivery group covers (zero between groups).
  std::vector<std::uint32_t> covered_;
  std::unique_ptr<Adversary> adversary_;
  /// The run key plus cursors over the honest and adversary Bernoulli
  /// success fields.
  crng::Key key_;
  GapCursor honest_gaps_;
  GapCursor adversary_gaps_;
  /// Precomputed eligibility for skip_quiet_rounds: an adversary
  /// honouring the quiet-act contract.
  bool quiet_eligible_ = false;
  ConsistencyTracker consistency_;
  /// C counted online: the automaton over each round's honest block
  /// count, its state, and the opportunities completed so far.
  chains::OpportunityAutomaton opportunities_;
  std::size_t opportunity_state_;
  std::uint64_t convergence_opportunities_ = 0;
  std::uint64_t honest_blocks_total_ = 0;
  std::uint64_t adversary_blocks_total_ = 0;
  /// Per-view tips as of the last honest_tips() read; stale once any
  /// class adopts (see honest_tips).
  mutable std::vector<protocol::BlockIndex> tips_scratch_;
  mutable bool tips_stale_ = false;
  /// One tip and one lead per live class, in live_ order: what the
  /// consistency tracker and the observers read.
  std::vector<protocol::BlockIndex> class_tips_;
  std::vector<std::uint32_t> class_leads_;
  /// The delivery group being collected from the calendar drain.
  std::vector<RecipientRange> group_;
  protocol::BlockIndex group_block_ = protocol::kGenesisIndex;
  /// Reused scratch: the merge pass's worklist.
  std::vector<std::uint32_t> merge_worklist_;
  /// Blocks of the adversary's latest mine_run.
  std::vector<protocol::BlockIndex> mined_run_;
  /// Per honest recipient: the raw delays of the broadcast being
  /// scheduled, filled by one Adversary::honest_delays call.
  std::vector<std::uint64_t> delays_;
  /// Serial of the delivery being applied (a delivery group or a miner's
  /// own block), and of the one that set round_activity_.max_reorg_depth:
  /// classes of one group tie-break on their leads.
  std::uint64_t delivery_serial_ = 0;
  std::uint64_t max_reorg_serial_ = 0;
  // Running maximum over the views' tips (see note_adoption).
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
