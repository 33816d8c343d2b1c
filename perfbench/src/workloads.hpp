// One "unit" of a workload: every spec loaded, resolved, swept, reported
// and checked, exactly as `neatbound_cli run` would do it, timed from the
// first spec load to the last report written.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "specs.hpp"
#include "trace.hpp"

namespace perfbench {

/// Load + resolve of every spec: parse, registry lookup, grid, per-cell
/// configs with the hardness arithmetic, component validation — what
/// happens between spec load and the first engine run.
[[nodiscard]] std::vector<neatbound::scenario::ScenarioSpec> setup_specs(
    const std::vector<std::string>& paths,
    const neatbound::scenario::ScenarioRegistry& registry, Tracer* tracer);

/// Per-round event totals over a set of engine runs (from a
/// RoundObserver reading round_activity()).
struct RoundCounts {
  std::uint64_t rounds = 0;
  std::uint64_t active = 0;  ///< rounds with a delivery or a mined block
  std::uint64_t blocks = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t adoptions = 0;
};

/// Observer body shared by the counting pass and the observed-mix runs.
void count_round(const neatbound::sim::ExecutionEngine& engine,
                 RoundCounts& counts);

struct UnitResult {
  double wall_s = 0.0;
  /// Peak resident set of the unit's median engine run (upper median)
  /// and of its largest one.
  double run_rss_mb = 0.0;
  double max_run_rss_mb = 0.0;
  std::uint64_t engine_runs = 0;
  std::uint64_t failed_runs = 0;
  std::uint64_t rounds = 0;  ///< configured T × runs
  std::uint64_t digest = 0;  ///< over every cell's summary fields
  std::uint64_t waves = 0;   ///< exp scheduling waves (1 per fixed sweep)
  std::uint64_t artifact_bytes = 0;
  std::uint64_t trace_bytes = 0;
  /// Round counts of the runs this unit observed anyway (observed-mix).
  RoundCounts observed;
  std::vector<std::string> failures;
};

/// Runs one unit.  `out_dir` receives reports, artifacts and traces.
/// With a tracer, spans are recorded and engine runs go through the
/// timed registry; results are bit-identical either way.  Never throws:
/// an exception marks the unit's runs failed.
[[nodiscard]] UnitResult run_unit(WorkloadKind kind,
                                  const std::vector<std::string>& paths,
                                  const std::string& out_dir,
                                  Tracer* tracer);

}  // namespace perfbench
