// The experiment orchestrator: runs a SweepGrid of ExperimentConfigs on a
// single shared work pool whose unit of work is one (grid-point × seed)
// engine run — so a sweep with 21 cells × 6 seeds keeps every thread busy
// on 126 independent jobs instead of parallelizing only within one cell.
//
// Determinism: seed k of cell i always runs engine seed base_seed + k of
// that cell's config, results land in a (cell, seed)-indexed slot, and
// aggregation replays them sequentially in seed order with the runner's
// own accumulate_run — the summaries are bit-identical to calling
// sim::run_experiment on each cell with the same factory, regardless of
// thread count or scheduling.  Worker exceptions propagate to the caller (first one wins)
// after all workers have joined.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "exp/grid.hpp"
#include "sim/runner.hpp"

namespace neatbound::exp {

/// Maps one grid point to the experiment to run there (engine parameters,
/// seed count).  Called once per point, up front, on the calling thread.
using ConfigBuilder =
    std::function<sim::ExperimentConfig(const GridPoint&)>;

struct SweepOptions {
  std::uint64_t violation_t = 8;  ///< consistency predicate depth
  unsigned threads = 0;           ///< workers; 0 = hardware concurrency
};

/// One grid cell's outcome: the point, the config it ran, the aggregate.
struct SweepCell {
  GridPoint point;
  sim::ExperimentConfig config;
  sim::ExperimentSummary summary;
};

/// Runs every (cell × seed) engine job on one pool and returns the cells
/// in grid order.  Each run's adversary comes from `factory`, called with
/// that run's engine config (seed set); it must be callable concurrently.
[[nodiscard]] std::vector<SweepCell> run_sweep(
    const SweepGrid& grid, const ConfigBuilder& build,
    const SweepOptions& options, const sim::AdversaryFactory& factory);

}  // namespace neatbound::exp
