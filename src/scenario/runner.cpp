#include "scenario/runner.hpp"

#include <algorithm>
#include <stdexcept>

#include "bounds/zhao.hpp"
#include "exp/bench_io.hpp"

namespace neatbound::scenario {

void apply_overrides(ScenarioSpec& spec, const SpecOverrides& overrides) {
  if (overrides.miners) spec.miners = *overrides.miners;
  if (overrides.nu) spec.nu = *overrides.nu;
  if (overrides.delta) spec.delta = *overrides.delta;
  if (overrides.rounds) spec.rounds = *overrides.rounds;
  if (overrides.seeds) {
    // The spec reader's rule: zero seeds would report an empty sweep as
    // a perfectly consistent one, and an adaptive budget of zero is a
    // precondition failure.
    if (*overrides.seeds == 0) {
      throw std::runtime_error("scenario: \"seeds\" must be >= 1");
    }
    spec.seeds = *overrides.seeds;
    // Downsizing an adaptive spec must actually cap its budget: --seeds
    // becomes the max, and min/batch are clamped under it.
    if (spec.adaptive) {
      spec.adaptive->max_seeds = *overrides.seeds;
      spec.adaptive->min_seeds =
          std::min(spec.adaptive->min_seeds, spec.adaptive->max_seeds);
      spec.adaptive->batch =
          std::min(spec.adaptive->batch, spec.adaptive->max_seeds);
    }
  }
  if (overrides.base_seed) spec.base_seed = *overrides.base_seed;
  if (overrides.violation_t) spec.violation_t = *overrides.violation_t;
  check_neat_bound_domain(spec);
}

exp::SweepGrid build_grid(const ScenarioSpec& spec) {
  exp::SweepGrid grid;
  for (const AxisSpec& axis : spec.axes) {
    grid.axis(axis.name, axis.values);
  }
  return grid;
}

namespace {

double axis_or(const ScenarioSpec& spec, const exp::GridPoint& point,
               const std::string& axis, double fallback) {
  return spec.has_axis(axis) ? point.value(axis) : fallback;
}

}  // namespace

sim::ExperimentConfig build_config(const ScenarioSpec& spec,
                                   const exp::GridPoint& point) {
  sim::ExperimentConfig config;
  config.engine.miner_count = static_cast<std::uint32_t>(
      axis_or(spec, point, "miners", static_cast<double>(spec.miners)));
  config.engine.adversary_fraction = axis_or(spec, point, "nu", spec.nu);
  config.engine.delta = static_cast<std::uint64_t>(
      axis_or(spec, point, "delta", static_cast<double>(spec.delta)));
  config.engine.rounds = static_cast<std::uint64_t>(
      axis_or(spec, point, "rounds", static_cast<double>(spec.rounds)));
  config.engine.p = axis_or(spec, point, "p", spec.p);

  if (spec.hardness_mode == "neat-bound-multiple") {
    // The Fig. 1 parameterization: c = neat_bound_c(nu) · multiple,
    // p = 1 / (c·n·Δ).
    const double nu = config.engine.adversary_fraction;
    const double multiple =
        axis_or(spec, point, "multiple", spec.hardness_multiple);
    const double c = bounds::neat_bound_c(nu) * multiple;
    config.engine.p =
        1.0 / (c * static_cast<double>(config.engine.miner_count) *
               static_cast<double>(config.engine.delta));
  } else if (spec.hardness_mode == "c") {
    const double c = axis_or(spec, point, "c", spec.hardness_c);
    config.engine.p =
        1.0 / (c * static_cast<double>(config.engine.miner_count) *
               static_cast<double>(config.engine.delta));
  }

  config.seeds = spec.seeds;
  config.base_seed = spec.base_seed;
  sim::validate_engine_config(config.engine);
  return config;
}

sim::AdversaryFactory spec_adversary_factory(
    const ScenarioSpec& spec, const ScenarioRegistry& registry) {
  return [&spec, &registry](const sim::EngineConfig& engine_config) {
    return registry.make_adversary(spec.network.kind, spec.network.params,
                                   spec.adversary.kind,
                                   spec.adversary.params, engine_config);
  };
}

void validate_components(const ScenarioSpec& spec,
                         const ScenarioRegistry& registry) {
  sim::EngineConfig probe =
      build_config(spec, build_grid(spec).point(0)).engine;
  probe.seed = spec.base_seed;
  (void)spec_adversary_factory(spec, registry)(probe);
}

std::vector<exp::SweepCell> run_scenario(const ScenarioSpec& spec,
                                         const ScenarioRegistry& registry,
                                         const ScenarioRunOptions& options) {
  const exp::SweepGrid grid = build_grid(spec);
  validate_components(spec, registry);

  const auto build = [&spec](const exp::GridPoint& point) {
    return build_config(spec, point);
  };
  return exp::run_sweep(
      grid, build,
      {.violation_t = spec.violation_t, .threads = options.threads},
      spec_adversary_factory(spec, registry));
}

exp::AdaptiveOptions resolve_adaptive_options(
    const ScenarioSpec& spec, const ScenarioRunOptions& options) {
  exp::AdaptiveOptions adaptive;
  if (spec.adaptive) {
    adaptive.min_seeds = spec.adaptive->min_seeds;
    adaptive.batch = spec.adaptive->batch;
    adaptive.max_seeds = spec.adaptive->max_seeds;
    adaptive.half_width = spec.adaptive->half_width;
    adaptive.confidence = spec.adaptive->confidence;
  } else {
    // Fixed-budget degenerate schedule: one wave of exactly spec.seeds
    // runs per cell, never stopping early — the summaries are
    // bit-identical to run_scenario, checkpointing comes for free.
    adaptive.min_seeds = spec.seeds;
    adaptive.batch = spec.seeds;
    adaptive.max_seeds = spec.seeds;
    adaptive.half_width = 0.0;
  }
  adaptive.checkpoint_path = options.checkpoint_path;
  adaptive.resume = options.resume;
  adaptive.stop_after_waves = options.stop_after_waves;
  adaptive.progress = options.progress;
  // The automatic fingerprint only sees engine configs; the registry
  // components (and their parameters) decide what those configs *run*,
  // so they are part of the sweep's identity too.
  adaptive.fingerprint_context =
      "adversary:" + spec.adversary.kind + "{" +
      spec.adversary.params.fingerprint_text() + "}network:" +
      spec.network.kind + "{" + spec.network.params.fingerprint_text() + "}";
  return adaptive;
}

exp::AdaptiveSweepResult run_scenario_adaptive(
    const ScenarioSpec& spec, const ScenarioRegistry& registry,
    const ScenarioRunOptions& options) {
  const exp::SweepGrid grid = build_grid(spec);
  validate_components(spec, registry);

  const auto build = [&spec](const exp::GridPoint& point) {
    return build_config(spec, point);
  };
  return exp::run_sweep_adaptive(
      grid, build,
      {.violation_t = spec.violation_t, .threads = options.threads},
      resolve_adaptive_options(spec, options),
      spec_adversary_factory(spec, registry));
}

sim::RunResult run_scenario_trace(const ScenarioSpec& spec,
                                  const ScenarioRegistry& registry,
                                  sim::RoundTraceSink& sink) {
  const exp::SweepGrid grid = build_grid(spec);
  sim::EngineConfig engine_config = build_config(spec, grid.point(0)).engine;
  engine_config.seed = spec.base_seed;
  sim::ExecutionEngine engine(
      engine_config, spec_adversary_factory(spec, registry)(engine_config));
  return engine.run(sim::make_round_tracer(sink));
}

void stamp_meta(const ScenarioSpec& spec, exp::BenchReporter& reporter) {
  // An engine parameter that is swept by an axis has no single value to
  // stamp — its per-point values live in the report rows — so only the
  // parameters that actually hold across the whole run are recorded.
  if (!spec.has_axis("miners")) {
    reporter.set_meta_number("miners", static_cast<double>(spec.miners));
  }
  if (!spec.has_axis("delta")) {
    reporter.set_meta_number("delta", static_cast<double>(spec.delta));
  }
  if (!spec.has_axis("rounds")) {
    reporter.set_meta_number("rounds", static_cast<double>(spec.rounds));
  }
  reporter.set_meta_number("seeds", static_cast<double>(spec.seeds));
  for (const auto& [key, value] : spec.extra_meta) {
    reporter.set_meta_number(key, value);
  }
}

}  // namespace neatbound::scenario
