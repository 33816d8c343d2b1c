// The per-layer ledger of the traced pass: a RoundObserver counting pass
// for round/event totals, and unit costs measured by replaying
// workload-shaped inputs (sized from a run's own store, Δ, n and event
// counts) into the hot structures one at a time.
#pragma once

#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Re-executes every job with a counting observer.  Observers disable
/// quiet-round skipping, so this pass is for counts only, never timing.
[[nodiscard]] RoundCounts count_jobs(const std::vector<Job>& jobs);

/// Nanoseconds per operation of each hot structure.
struct UnitCosts {
  double crng_block_ns = 0.0;      ///< one philox4x64 block
  double gap_take_ns = 0.0;        ///< one GapCursor::take
  double calendar_msg_ns = 0.0;    ///< one schedule + its drain
  double deliver_fresh_ns = 0.0;   ///< MinerView::deliver, unseen block
  double deliver_dup_ns = 0.0;     ///< MinerView::deliver, known block
  double common_ancestor_ns = 0.0; ///< BlockStore::common_ancestor
  double observe_round_ns = 0.0;   ///< ConsistencyTracker::observe_round
};

/// Unit costs averaged over the first job of each distinct cell (at most
/// a handful), each re-run without an observer so its final store shapes
/// the replayed inputs.  `counts` sizes the calendar replay.
[[nodiscard]] UnitCosts measure_unit_costs(const std::vector<Job>& jobs,
                                           const RoundCounts& counts);

/// Σ(count × unit cost) over the counted events plus the time measured
/// directly inside adversary turns and oracle passes, in seconds — the
/// engine time the ledger accounts for.
/// Adoption ancestry is inside the fresh-delivery cost and divergence
/// ancestry inside the observe_round cost, so common_ancestor has no term
/// of its own.
[[nodiscard]] double modelled_seconds(const std::vector<Job>& jobs,
                                      const RoundCounts& counts,
                                      const UnitCosts& costs,
                                      double measured_s);

}  // namespace perfbench
