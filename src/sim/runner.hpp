// Multi-seed experiment runner: repeats an execution-engine configuration
// across independent seeds and aggregates every metric with streaming
// statistics, so bench harnesses report mean ± stderr rather than
// single-run noise.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/engine.hpp"
#include "sim/adversary.hpp"
#include "stats/summary.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {

struct ExperimentConfig {
  EngineConfig engine;
  std::uint32_t seeds = 8;          ///< independent repetitions
  std::uint64_t base_seed = 12345;  ///< seed for repetition k is base+k
};

/// Aggregated across seeds; each field is a RunningStats over per-run values.
struct ExperimentSummary {
  stats::RunningStats convergence_opportunities;
  stats::RunningStats adversary_blocks;
  stats::RunningStats honest_blocks;
  stats::RunningStats violation_depth;
  stats::RunningStats max_reorg_depth;
  stats::RunningStats max_divergence;
  stats::RunningStats disagreement_rounds;
  stats::RunningStats chain_growth;
  stats::RunningStats chain_quality;
  stats::RunningStats best_height;
  /// Fraction of runs whose violation depth exceeded a caller-set T
  /// (see ExperimentConfig-independent helper below); stored as 0/1 values.
  stats::RunningStats violation_exceeds_t;
  /// Telemetry counters summed over the folded runs.  Folded
  /// in seed order like every other field; the counters surface as
  /// report meta (exp::BenchReporter::set_telemetry_meta).
  telemetry::TelemetryAccumulator telemetry;
};

/// The one adversary hook: builds a fresh adversary for each engine run
/// (seed already set).  Sweeps call it from pool workers, so it must be
/// callable concurrently.
using AdversaryFactory =
    std::function<std::unique_ptr<Adversary>(const EngineConfig&)>;

/// Folds one engine run into the summary.  Exposed so higher layers (the
/// sweep orchestrator) aggregate with exactly the serial runner's
/// arithmetic — the bit-identical guarantee hangs on sharing this.
void accumulate_run(ExperimentSummary& summary, const RunResult& result,
                    std::uint64_t violation_t);

/// Runs `config.seeds` executions serially, each against an adversary
/// from `factory`.  `violation_t` parameterizes the consistency predicate:
/// a run "violates T-consistency" iff its observed violation depth
/// exceeds violation_t.  Parallel sweeps go through exp::run_sweep, which
/// folds runs with accumulate_run in the same seed order.
[[nodiscard]] ExperimentSummary run_experiment(const ExperimentConfig& config,
                                               std::uint64_t violation_t,
                                               const AdversaryFactory& factory);

}  // namespace neatbound::sim
