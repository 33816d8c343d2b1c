// Adaptive experiment control: confidence-interval-driven sequential
// stopping, frontier bisection, and checkpoint/resume — the layer that
// spends engine runs where the estimate is still uncertain instead of
// burning a fixed seed budget uniformly over the grid.
//
// Sequential stopping.  Seeds are scheduled in *waves* on the same
// (cell × seed) pool run_sweep uses: wave 0 gives every cell
// min_seeds runs, each later wave adds `batch` runs to every cell whose
// Wilson interval on P[violation depth > T] is still wider than the
// half-width target (and which is below max_seeds).  Seed k of cell g
// always runs engine seed base_seed + k of that cell's config — the
// stream a seed consumes is a function of (cell, k) only, never of the
// schedule — and per-cell aggregation replays results in seed order, so:
//   * serial and parallel runs are bit-identical;
//   * a cell that stopped after m seeds carries exactly the summary a
//     fixed budget of m seeds would have produced (truncation identity);
//   * stopping decisions happen only at wave boundaries, from data of
//     the cell's own completed seeds, so they are deterministic too.
//
// Checkpoint/resume.  With a checkpoint path set, the sweep snapshots
// every cell's accumulator state after each wave (see exp/checkpoint.hpp
// for the exactness contract); with resume set, a matching snapshot is
// loaded and only the remaining waves run.  A resumed run's result is
// bit-identical to an uninterrupted one.
//
// Frontier refinement.  Given one sweep axis and a violation-probability
// threshold, localize_frontier scans each line of the coarse grid
// for a bracket (adjacent points whose estimates straddle the threshold)
// and recursively bisects the bracket — evaluating midpoints with the
// same sequential-stopping rule — until the crossing is pinned to the
// requested axis tolerance.  The result reports both the engine runs
// actually spent and the cost of the dense uniform grid that would reach
// the same resolution.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/orchestrator.hpp"
#include "stats/intervals.hpp"

namespace neatbound::exp {

/// One wave boundary's progress, as passed to AdaptiveOptions::progress.
/// Pure observation: values are computed from cell state the stopping
/// rule already settled, after the checkpoint (if any) was written.
struct WaveProgress {
  std::uint64_t wave = 0;          ///< waves completed so far (resumed incl.)
  std::size_t cells_total = 0;
  std::size_t cells_stopped = 0;
  std::uint64_t seeds_spent = 0;   ///< Σ seeds_done over all cells
  /// Widest current Wilson half-width among still-open cells; 0 when
  /// every cell has stopped.
  double widest_half_width = 0.0;
};

struct AdaptiveOptions {
  std::uint32_t min_seeds = 4;   ///< wave-0 budget for every cell
  std::uint32_t batch = 4;       ///< seeds added per later wave
  std::uint32_t max_seeds = 64;  ///< hard per-cell cap
  /// Target Wilson half-width on P[violation depth > T]; 0 disables
  /// early stopping (every cell runs exactly max_seeds — the fixed-budget
  /// degenerate case, which is how checkpointing plugs under plain
  /// sweeps).
  double half_width = 0.05;
  double confidence = 0.95;  ///< level of the stopping/reporting interval
  std::string checkpoint_path;  ///< "" = no checkpointing
  /// Folded into the checkpoint fingerprint.  The automatic fingerprint
  /// covers the grid and each cell's engine config, never the adversary
  /// factory: a caller whose factory varies (scenario adversary /
  /// network components and their parameters, custom factory state)
  /// must put its identity here, or a checkpoint from a differently-wired
  /// sweep would resume silently.
  std::string fingerprint_context;
  /// Load checkpoint_path if it exists and resume from it (a missing
  /// file starts fresh, so first runs and resumes share one invocation).
  bool resume = false;
  /// Stop (checkpoint intact, result incomplete) after this many waves;
  /// 0 = run to completion.  This is the deterministic "kill" hook the
  /// resume tests and the CI round-trip use.
  std::uint32_t stop_after_waves = 0;
  /// Invoked once per completed wave, after stopping decisions and the
  /// checkpoint write.  Observation only — it cannot influence the
  /// schedule, is not part of the checkpoint fingerprint, and a callback
  /// that writes to stderr keeps stdout streams (CSV/JSON) clean.
  std::function<void(const WaveProgress&)> progress;
};

/// One finished cell: the plain sweep cell plus the adaptive verdict.
struct AdaptiveCell {
  SweepCell cell;
  std::uint32_t seeds_used = 0;
  std::uint64_t violations = 0;  ///< runs with violation_depth > T
  bool stopped_early = false;    ///< precision target met before max_seeds
  stats::Interval ci;  ///< Wilson interval on P[depth > T] at `confidence`
};

struct AdaptiveSweepResult {
  std::vector<AdaptiveCell> cells;  ///< grid order
  std::uint64_t engine_runs = 0;    ///< Σ seeds_used (resumed seeds included)
  std::uint64_t waves = 0;          ///< scheduling waves completed in total
  /// False when stop_after_waves interrupted the sweep; the checkpoint
  /// (if any) holds the partial state and cells are a snapshot.
  bool complete = true;
};

/// Runs the grid adaptively on one parallel_for_indexed pool; adversaries
/// come from `factory` exactly as in run_sweep.
[[nodiscard]] AdaptiveSweepResult run_sweep_adaptive(
    const SweepGrid& grid, const ConfigBuilder& build,
    const SweepOptions& options, const AdaptiveOptions& adaptive,
    const sim::AdversaryFactory& factory);

struct FrontierOptions {
  std::string axis;        ///< grid axis to bisect along
  double threshold = 0.5;  ///< P[depth > T] level that defines the frontier
  double tolerance = 0.05; ///< stop when the bracket is this narrow
  std::uint32_t max_bisections = 32;  ///< safety cap per bracket
};

/// One localized crossing: the line of the grid it lives on (identified
/// by the coarse point on the bracket's low side) and the refined
/// bracket [lo, hi] on the bisect axis with the estimates at its ends.
struct FrontierRow {
  GridPoint anchor;     ///< coarse cell at the bracket's low side
  bool bracketed = false;  ///< false: no crossing on this line
  double lo = 0.0;
  double hi = 0.0;
  double estimate_lo = 0.0;  ///< P[depth > T] estimate at lo
  double estimate_hi = 0.0;  ///< P[depth > T] estimate at hi
  std::uint64_t refine_runs = 0;  ///< engine runs spent on midpoints
};

struct FrontierResult {
  AdaptiveSweepResult coarse;      ///< the full coarse adaptive sweep
  std::vector<FrontierRow> rows;   ///< one per grid line, line order
  std::uint64_t engine_runs = 0;   ///< coarse + refinement
  /// Cost of the uniform dense grid reaching the same axis resolution:
  /// one point per `tolerance` step over the coarse axis span, times
  /// max_seeds, per line.
  std::uint64_t dense_equivalent_runs = 0;
};

/// Coarse adaptive sweep + bisection refinement.  Midpoint configs come
/// from `build` on synthetic grid points (same axes, interpolated value
/// on the bisect axis, index past the coarse grid).  Checkpointing, if
/// configured, covers the coarse phase; refinement re-runs are bounded
/// by max_bisections × max_seeds per line.  Throws std::invalid_argument
/// when options.axis is not a grid axis.
[[nodiscard]] FrontierResult localize_frontier(
    const SweepGrid& grid, const ConfigBuilder& build,
    const SweepOptions& options, const AdaptiveOptions& adaptive,
    const FrontierOptions& frontier, const sim::AdversaryFactory& factory);

}  // namespace neatbound::exp
