// Executes a parsed scenario through the experiment orchestrator.
//
// The spec's axes become an exp::SweepGrid, each grid point is
// materialized into an sim::ExperimentConfig (axis overrides + hardness
// rule), every (cell × seed) engine run goes through exp::run_sweep on one
// shared work pool with an adversary composed by the registry, and the
// cells render into any exp::ResultSink.  Grid enumeration, config
// arithmetic and aggregation are the exp layer's, so a scenario produces
// exactly the summaries a program calling exp::run_sweep on the same grid
// and adversary would.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/adaptive.hpp"
#include "exp/orchestrator.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/trace.hpp"

namespace neatbound::exp {
class BenchReporter;
}  // namespace neatbound::exp

namespace neatbound::scenario {

/// Command-line overrides applied on top of a scenario file (downsizing a
/// spec for CI smoke runs, sweeping a different seed count, …).  An
/// override replaces the spec's engine default; axes still win per point.
struct SpecOverrides {
  std::optional<std::uint32_t> miners;
  std::optional<double> nu;
  std::optional<std::uint64_t> delta;
  std::optional<std::uint64_t> rounds;
  std::optional<std::uint32_t> seeds;
  std::optional<std::uint64_t> base_seed;
  std::optional<std::uint64_t> violation_t;
};

void apply_overrides(ScenarioSpec& spec, const SpecOverrides& overrides);

/// The spec's axes as a SweepGrid (row-major, last axis fastest).
[[nodiscard]] exp::SweepGrid build_grid(const ScenarioSpec& spec);

/// One grid point's experiment config: engine defaults, axis overrides,
/// then the hardness rule for p.  Throws (via validate_engine_config) on
/// unusable parameter combinations.
[[nodiscard]] sim::ExperimentConfig build_config(const ScenarioSpec& spec,
                                                 const exp::GridPoint& point);

struct ScenarioRunOptions {
  unsigned threads = 0;  ///< sweep pool workers; 0 = hardware concurrency
  /// Checkpoint file for the adaptive path ("" = no checkpointing); see
  /// exp/checkpoint.hpp for the exactness contract.
  std::string checkpoint_path;
  bool resume = false;  ///< resume checkpoint_path if it exists
  /// Interrupt deterministically after N scheduling waves (0 = run to
  /// completion) — the CI/resume-test hook, surfaced by the CLI.
  std::uint32_t stop_after_waves = 0;
  /// Wave-boundary progress callback, forwarded into
  /// exp::AdaptiveOptions::progress (adaptive path only; observation
  /// only, not part of the checkpoint fingerprint).
  std::function<void(const exp::WaveProgress&)> progress;
};

/// The spec's network model × strategy, composed by `registry`, as the
/// one per-run adversary hook every scenario path builds its engines
/// with.  Captures both arguments by reference.
[[nodiscard]] sim::AdversaryFactory spec_adversary_factory(
    const ScenarioSpec& spec, const ScenarioRegistry& registry);

/// Fail-fast validation shared by run/describe: resolves the first grid
/// point's engine config and builds (and discards) one adversary, so
/// unknown components, bad parameters and unusable engine values all
/// throw before any engine run spawns.
void validate_components(const ScenarioSpec& spec,
                         const ScenarioRegistry& registry);

/// Runs the whole grid.  Component names/params are validated against the
/// registry up front (before any engine spawns), then every (cell × seed)
/// job builds its adversary through the registry.
[[nodiscard]] std::vector<exp::SweepCell> run_scenario(
    const ScenarioSpec& spec, const ScenarioRegistry& registry,
    const ScenarioRunOptions& options);

/// The exp::AdaptiveOptions a spec resolves to: the spec's "adaptive"
/// block when present, otherwise the fixed-budget degenerate schedule
/// (min = batch = max = spec.seeds, half_width 0 — bit-identical
/// summaries to run_scenario) so checkpointing works under plain specs
/// too.  Checkpoint/resume/interrupt fields come from `options`.
[[nodiscard]] exp::AdaptiveOptions resolve_adaptive_options(
    const ScenarioSpec& spec, const ScenarioRunOptions& options);

/// Adaptive/checkpointed variant of run_scenario: same grid, configs,
/// registry-built adversaries and validation, executed through
/// exp::run_sweep_adaptive.  result.complete is false when
/// options.stop_after_waves interrupted the sweep (the checkpoint, if
/// any, holds the partial state).
[[nodiscard]] exp::AdaptiveSweepResult run_scenario_adaptive(
    const ScenarioSpec& spec, const ScenarioRegistry& registry,
    const ScenarioRunOptions& options);

/// One dedicated traced engine run: the spec's *first* grid point (the
/// same cell validate_components probes), engine seed = spec.base_seed,
/// adversary and network built through the registry.  Every round is
/// streamed into `sink` as a sim::RoundRecord; the returned RunResult is
/// bit-identical to the same config's untraced run (the tracer is a
/// read-only observer).  Trace runs are deliberately single-run: the
/// multi-seed sweep stays untraced and full-speed.
[[nodiscard]] sim::RunResult run_scenario_trace(
    const ScenarioSpec& spec, const ScenarioRegistry& registry,
    sim::RoundTraceSink& sink);

/// Stamps the standard meta numbers (miners, delta, rounds, seeds — the
/// keys the engine benches stamp) plus the spec's extra meta entries.
void stamp_meta(const ScenarioSpec& spec, exp::BenchReporter& reporter);

}  // namespace neatbound::scenario
