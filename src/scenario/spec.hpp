// Declarative scenario specifications.
//
// A scenario file is one flat JSON object:
//
//   {
//     "name": "consistency_sweep",            // required, used as the
//                                             // report/JSON document name
//     "title": "printed before the run",      // optional
//     "description": "shown by describe",     // optional
//     "engine": {"miners": 40, "nu": 0.2, "delta": 3,
//                "rounds": 30000, "p": 0.01}, // per-run defaults
//     "axes": [{"name": "nu", "values": [0.15, 0.3]},
//              {"name": "multiple", "values": [0.4, 1.0]}],
//     "hardness": {"mode": "neat-bound-multiple"},  // how p is derived
//     "seeds": 6, "base_seed": 12345, "violation_t": 8,
//     "adaptive": {"min_seeds": 4, "batch": 4, "max_seeds": 64,
//                  "half_width": 0.05, "confidence": 0.95},  // optional
//     "adversary": {"strategy": "private-withhold", "min_fork_depth": 2},
//     "network": {"model": "strategy"},
//     "report": {"section_by": "nu",
//                "section_label": "nu = {nu:2}",
//                "columns": [{"header": "nu", "value": "nu",
//                             "decimals": 2}, ...]},
//     "meta": {"extra": 1.0}                  // optional extra JSON meta
//   }
//
// Axes form a row-major cartesian product (last axis fastest), exactly
// like exp::SweepGrid.  An axis named after an engine parameter (miners,
// nu, delta, rounds, p) overrides that parameter per grid point; other
// axis names are free variables for the hardness rule and report columns.
//
// Hardness modes decide each point's mining hardness p:
//   * "fixed"               — p taken from engine.p (or a "p" axis);
//   * "c"                   — p = 1 / (c·n·Δ) with c from the "c" axis
//                             (or hardness.c);
//   * "neat-bound-multiple" — c = neat_bound_c(nu) · multiple, with nu
//                             from the "nu" axis (or engine.nu) and
//                             multiple from the "multiple" axis (or
//                             hardness.multiple); p = 1 / (c·n·Δ).  The
//                             arithmetic matches bench_consistency_sweep
//                             operation for operation, so a scenario run
//                             is bit-identical to the hand-written bench.
//
// An "adaptive" block switches the run from the fixed per-cell seed
// budget to confidence-interval-driven sequential stopping (see
// exp/adaptive.hpp): every cell starts with min_seeds engine runs and
// receives `batch` more per wave until the Wilson interval on
// P[violation depth > T] at `confidence` is narrower than 2·half_width,
// or max_seeds is reached.  Without the block, "seeds" is the fixed
// budget exactly as before.
//
// Unknown keys anywhere are an error: scenario files never silently
// ignore a typo.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/json.hpp"
#include "scenario/params.hpp"

namespace neatbound::scenario {

struct AxisSpec {
  std::string name;
  std::vector<double> values;
};

struct ComponentSpec {
  std::string kind;  ///< registry key ("strategy"/"model" selector value)
  Params params;     ///< everything else in the component object
};

struct ColumnSpec {
  std::string header;  ///< table column header (defaults to `value`)
  std::string value;   ///< cell source: axis, derived or "<stat>.<agg>"
  int decimals = 3;    ///< format_fixed precision
};

/// Sequential-stopping schedule (the "adaptive" block); values mirror
/// exp::AdaptiveOptions.
struct AdaptiveSpec {
  std::uint32_t min_seeds = 4;
  std::uint32_t batch = 4;
  std::uint32_t max_seeds = 64;
  double half_width = 0.05;
  double confidence = 0.95;
};

/// The "oracle" block: which lemma invariants `run --oracle` (and the
/// falsification scan behind it) arms, plus its bounds.  Declared keys
/// only, like every other block.  Window/threshold fields are read only
/// when the matching invariant is listed; common_prefix_t defaults to
/// the spec's violation_t (the consistency parameter the sweep already
/// measures against).
struct OracleSpec {
  std::vector<std::string> invariants{"common-prefix"};
  std::optional<std::uint64_t> common_prefix_t;
  std::uint64_t growth_window = 64;
  std::uint64_t growth_min_blocks = 1;
  std::uint64_t quality_window = 64;
  double quality_min_ratio = 0.05;
  std::uint64_t slice_rounds = 64;
  /// Scan budget in engine runs (0 = the whole grid × seeds).
  std::uint64_t max_runs = 0;
};

struct ReportSpec {
  /// Axis whose value change starts a new section ("" = one section).
  std::string section_by;
  /// Template for section names: "{name}" / "{name:decimals}" holes are
  /// substituted with format_fixed of the named per-cell value.
  std::string section_label;
  std::vector<ColumnSpec> columns;  ///< empty = default column set
};

struct ScenarioSpec {
  std::string name;
  std::string title;
  std::string description;

  // Engine defaults (axes may override per point).
  std::uint32_t miners = 16;
  double nu = 0.0;
  std::uint64_t delta = 1;
  std::uint64_t rounds = 1000;
  double p = 0.01;

  std::string hardness_mode = "fixed";  ///< "fixed" | "c" | "neat-bound-multiple"
  double hardness_c = 0.0;        ///< fallback when no "c" axis (0 = unset)
  double hardness_multiple = 1.0; ///< fallback when no "multiple" axis

  std::uint32_t seeds = 8;
  std::uint64_t base_seed = 12345;
  std::uint64_t violation_t = 8;
  std::optional<AdaptiveSpec> adaptive;  ///< sequential stopping when set
  std::optional<OracleSpec> oracle;      ///< invariant-oracle defaults

  ComponentSpec adversary;  ///< kind defaults to "max-delay"
  ComponentSpec network;    ///< kind defaults to "strategy"

  std::vector<AxisSpec> axes;
  ReportSpec report;
  /// Extra "meta" numbers for the JSON summary, in file order.
  std::vector<std::pair<std::string, double>> extra_meta;

  [[nodiscard]] bool has_axis(const std::string& name) const;
  /// Grid size: product of axis sizes (1 when there are no axes).
  [[nodiscard]] std::size_t grid_size() const;
};

/// Parses and validates a scenario document; throws std::runtime_error
/// with a descriptive message on any schema violation.
[[nodiscard]] ScenarioSpec parse_scenario(const JsonValue& document);
[[nodiscard]] ScenarioSpec parse_scenario(std::string_view text);
[[nodiscard]] ScenarioSpec load_scenario_file(const std::string& path);

}  // namespace neatbound::scenario
