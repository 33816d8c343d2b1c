// Report rendering for scenario runs: turns finished SweepCells into the
// sectioned tables every exp::ResultSink consumes.
//
// Column/label values are resolved per cell by name:
//   * an axis name            → the grid point's value on that axis;
//   * miners | nu | delta | rounds | p | seeds
//                             → the cell's resolved engine/experiment
//                               config (axis overrides already applied);
//   * seeds_used | violations | ci_low | ci_high
//                             → adaptive-run verdicts (runs actually
//                               spent, violating runs, Wilson interval
//                               ends); only resolvable for cells that
//                               came from the adaptive path;
//   * bound | c | multiple    → hardness-derived: bound = neat_bound_c(nu),
//                               c the cell's effective chain-speed ratio,
//                               multiple = c / bound;
//   * "<stat>.<agg>"          → an ExperimentSummary field, e.g.
//                               "violation_depth.mean",
//                               "max_reorg_depth.max";  agg is one of
//                               mean | stderr | stddev | variance | min |
//                               max | count.
//
// Section labels are templates: "nu = {nu:2} (bound {bound:3})" replaces
// each "{name:decimals}" hole with format_fixed(value(name), decimals)
// (decimals defaults to 6, at most 17; "{{" and "}}" escape braces).
#pragma once

#include <string>
#include <vector>

#include "exp/adaptive.hpp"
#include "exp/orchestrator.hpp"
#include "exp/sinks.hpp"
#include "scenario/spec.hpp"

namespace neatbound::scenario {

/// Per-cell value lookup for report columns and section labels.
class CellContext {
 public:
  CellContext(const ScenarioSpec& spec, const exp::SweepCell& cell);
  /// Adaptive variant: additionally resolves seeds_used | violations |
  /// ci_low | ci_high from the adaptive verdict.
  CellContext(const ScenarioSpec& spec, const exp::AdaptiveCell& cell);

  /// Resolves a column/label name; throws std::runtime_error with the
  /// list of resolvable categories when the name is unknown.
  [[nodiscard]] double value(const std::string& name) const;

 private:
  const ScenarioSpec& spec_;
  const exp::SweepCell& cell_;
  const exp::AdaptiveCell* adaptive_ = nullptr;  ///< optional verdict
};

/// Substitutes "{name:decimals}" holes; see file comment.
[[nodiscard]] std::string format_label(const std::string& label_template,
                                       const CellContext& context);

/// Checks a template's syntax and hole precisions without resolving a
/// value, so parse_scenario refuses a bad label before any engine run;
/// returns the hole names in template order.
[[nodiscard]] std::vector<std::string> section_label_holes(
    const std::string& label_template);

/// The columns a report without an explicit "columns" list gets: every
/// axis, then the core consistency/quality statistics.  When the spec
/// has an adaptive block, the adaptive verdict columns (seeds used,
/// ci_low, ci_high) are appended.
[[nodiscard]] std::vector<ColumnSpec> default_columns(
    const ScenarioSpec& spec);

/// Streams all cells into `sink` as sectioned rows.  Does NOT call
/// sink.finish() — the caller owns the sink's lifecycle (it may stamp
/// metadata after rendering).
void render_report(const ScenarioSpec& spec,
                   const std::vector<exp::SweepCell>& cells,
                   exp::ResultSink& sink);

/// Adaptive-run variant: same sectioning/column machinery, with the
/// per-cell adaptive verdicts resolvable as column values.
void render_adaptive_report(const ScenarioSpec& spec,
                            const std::vector<exp::AdaptiveCell>& cells,
                            exp::ResultSink& sink);

}  // namespace neatbound::scenario
