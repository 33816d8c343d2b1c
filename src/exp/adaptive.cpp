#include "exp/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "exp/checkpoint.hpp"
#include "sim/engine.hpp"
#include "support/contracts.hpp"
#include "support/invariant.hpp"
#include "support/parallel.hpp"

namespace neatbound::exp {

namespace {

/// Mutable per-cell state of the wave loop; becomes an AdaptiveCell.
struct CellState {
  GridPoint point;
  sim::ExperimentConfig config;
  sim::ExperimentSummary summary;
  std::uint32_t seeds_done = 0;
  std::uint64_t violations = 0;
  bool stopped = false;
  bool stopped_early = false;
};

void validate_adaptive(const AdaptiveOptions& adaptive) {
  NEATBOUND_EXPECTS(adaptive.min_seeds >= 1,
                    "adaptive: min_seeds must be >= 1");
  NEATBOUND_EXPECTS(adaptive.batch >= 1, "adaptive: batch must be >= 1");
  NEATBOUND_EXPECTS(adaptive.max_seeds >= adaptive.min_seeds,
                    "adaptive: max_seeds must be >= min_seeds");
  NEATBOUND_EXPECTS(
      adaptive.confidence > 0.0 && adaptive.confidence < 1.0,
      "adaptive: confidence must be in (0,1)");
  NEATBOUND_EXPECTS(adaptive.half_width >= 0.0,
                    "adaptive: half_width must be >= 0");
}

/// Canonical sweep description the checkpoint fingerprint hashes; any
/// change to it makes old checkpoints unresumable (by design).
std::uint64_t sweep_fingerprint(const SweepGrid& grid,
                                const std::vector<CellState>& cells,
                                const SweepOptions& options,
                                const AdaptiveOptions& adaptive) {
  FingerprintBuilder fp;
  fp.text("grid");
  for (std::size_t i = 0; i < grid.axis_count(); ++i) {
    fp.text(grid.axis_name(i));
    for (const double value : grid.axis_values(i)) fp.number(value);
  }
  fp.text("cells");
  for (const CellState& cell : cells) {
    const sim::EngineConfig& engine = cell.config.engine;
    fp.integer(engine.miner_count)
        .number(engine.adversary_fraction)
        .number(engine.p)
        .integer(engine.delta)
        .integer(engine.rounds)
        .integer(static_cast<std::uint64_t>(cell.config.adversary))
        .integer(cell.config.base_seed);
  }
  fp.text("options").integer(options.violation_t);
  fp.text("adaptive")
      .integer(adaptive.min_seeds)
      .integer(adaptive.batch)
      .integer(adaptive.max_seeds)
      .number(adaptive.half_width)
      .number(adaptive.confidence);
  fp.text("context").text(adaptive.fingerprint_context);
  return fp.finish();
}

void restore_cells(std::vector<CellState>& cells,
                   const SweepCheckpoint& checkpoint,
                   const std::string& path) {
  if (checkpoint.cells.size() != cells.size()) {
    throw std::runtime_error(path + ": checkpoint has " +
                             std::to_string(checkpoint.cells.size()) +
                             " cells, sweep has " +
                             std::to_string(cells.size()));
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellCheckpoint& saved = checkpoint.cells[i];
    cells[i].summary = saved.summary;
    cells[i].seeds_done = saved.seeds_done;
    cells[i].violations = saved.violations;
    cells[i].stopped = saved.stopped;
    cells[i].stopped_early = saved.stopped_early;
  }
}

SweepCheckpoint snapshot_cells(const std::vector<CellState>& cells,
                               std::uint64_t fingerprint,
                               std::uint64_t waves_done) {
  SweepCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint;
  checkpoint.waves_done = waves_done;
  checkpoint.cells.reserve(cells.size());
  for (const CellState& cell : cells) {
    checkpoint.cells.push_back({cell.seeds_done, cell.violations,
                                cell.stopped, cell.stopped_early,
                                cell.summary});
  }
  return checkpoint;
}

struct WaveLoopOutcome {
  std::uint64_t waves_total = 0;  ///< including waves restored from disk
  bool complete = true;
};

/// The shared wave loop: schedules seed batches for unstopped cells,
/// runs each wave's (cell × seed) jobs on one pool, folds results in
/// seed order, applies the stopping rule at the wave boundary, and
/// checkpoints.  Both the public adaptive sweep and the frontier
/// midpoint evaluations run through this.
WaveLoopOutcome run_waves(std::vector<CellState>& cells,
                          const SweepOptions& options,
                          const AdaptiveOptions& adaptive,
                          const SweepAdversaryFactory& factory,
                          std::uint64_t fingerprint) {
  const double z = stats::z_for_confidence(adaptive.confidence);
  WaveLoopOutcome outcome;

  if (adaptive.resume && !adaptive.checkpoint_path.empty() &&
      std::filesystem::exists(adaptive.checkpoint_path)) {
    // Fingerprint precondition: a resumable run must hash its own sweep
    // description — resuming with the 0 sentinel would skip the foreign-
    // checkpoint rejection in load_sweep_checkpoint entirely.
    NEATBOUND_INVARIANT(fingerprint != 0,
                        "resume requires a non-zero sweep fingerprint");
    const SweepCheckpoint checkpoint =
        load_sweep_checkpoint(adaptive.checkpoint_path, fingerprint);
    restore_cells(cells, checkpoint, adaptive.checkpoint_path);
    outcome.waves_total = checkpoint.waves_done;
    NEATBOUND_INVARIANT(
        std::all_of(cells.begin(), cells.end(),
                    [&](const CellState& cell) {
                      return cell.seeds_done <= adaptive.max_seeds &&
                             (!cell.stopped_early || cell.stopped);
                    }),
        "restored cell state inconsistent (seed budget or stop flags)");
  }

  std::uint32_t waves_this_process = 0;
  while (true) {
    // Plan the wave: cell-major, seed-ascending — the fold order below.
    struct WaveJob {
      std::size_t cell;
      std::uint32_t seed;
    };
    std::vector<WaveJob> jobs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellState& cell = cells[i];
      if (cell.stopped) continue;
      const std::uint32_t target =
          cell.seeds_done == 0
              ? adaptive.min_seeds
              : std::min(cell.seeds_done + adaptive.batch,
                         adaptive.max_seeds);
      for (std::uint32_t k = cell.seeds_done; k < target; ++k) {
        jobs.push_back({i, k});
      }
    }
    if (jobs.empty()) break;

    // Seed k of cell i always consumes engine seed base_seed + k of that
    // cell's config — independent of which wave scheduled it.
    std::vector<sim::RunResult> results(jobs.size());
    parallel_for_indexed(jobs.size(), options.threads, [&](std::size_t j) {
      const sim::ExperimentConfig& cell_config = cells[jobs[j].cell].config;
      sim::EngineConfig engine_config = cell_config.engine;
      engine_config.seed = cell_config.base_seed + jobs[j].seed;
      sim::ExecutionEngine engine(engine_config,
                                  factory(cell_config, engine_config));
      results[j] = engine.run();
    });

    // Seed-ordered fold (jobs are cell-major, ascending k) — identical
    // to the serial fixed-budget accumulation truncated at seeds_done.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      CellState& cell = cells[jobs[j].cell];
      // The serial≡parallel bit-identity hangs on folding seed k as the
      // cell's k-th accumulation, whatever order the pool ran the jobs.
      NEATBOUND_INVARIANT(cell.seeds_done == jobs[j].seed,
                          "wave fold out of seed order");
      sim::accumulate_run(cell.summary, results[j], options.violation_t);
      if (results[j].violation_depth > options.violation_t) {
        ++cell.violations;
      }
      ++cell.seeds_done;
    }

    // Stopping decisions happen only here, at the wave boundary, from
    // the cell's own completed seeds — deterministic and schedule-free.
    for (CellState& cell : cells) {
      if (cell.stopped || cell.seeds_done == 0) continue;
      if (cell.seeds_done >= adaptive.min_seeds &&
          stats::precision_reached(cell.violations, cell.seeds_done,
                                   adaptive.half_width, z)) {
        cell.stopped = true;
        cell.stopped_early = cell.seeds_done < adaptive.max_seeds;
      } else if (cell.seeds_done >= adaptive.max_seeds) {
        cell.stopped = true;
      }
    }

    ++waves_this_process;
    ++outcome.waves_total;
    if (!adaptive.checkpoint_path.empty()) {
      // Same precondition as resume: never write a checkpoint that a
      // later load could not verify against its sweep.
      NEATBOUND_INVARIANT(fingerprint != 0,
                          "checkpointing requires a non-zero fingerprint");
      save_sweep_checkpoint(
          adaptive.checkpoint_path,
          snapshot_cells(cells, fingerprint, outcome.waves_total));
    }
    if (adaptive.progress) {
      WaveProgress progress;
      progress.wave = outcome.waves_total;
      progress.cells_total = cells.size();
      for (const CellState& cell : cells) {
        if (cell.stopped) ++progress.cells_stopped;
        progress.seeds_spent += cell.seeds_done;
        if (!cell.stopped && cell.seeds_done > 0) {
          progress.widest_half_width = std::max(
              progress.widest_half_width,
              stats::wilson_half_width(cell.violations, cell.seeds_done, z));
        }
      }
      adaptive.progress(progress);
    }
    if (adaptive.stop_after_waves != 0 &&
        waves_this_process >= adaptive.stop_after_waves &&
        std::any_of(cells.begin(), cells.end(),
                    [](const CellState& c) { return !c.stopped; })) {
      outcome.complete = false;
      break;
    }
  }
  return outcome;
}

std::vector<CellState> build_cells(const SweepGrid& grid,
                                   const ConfigBuilder& build) {
  std::vector<CellState> cells;
  cells.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    GridPoint point = grid.point(i);
    sim::ExperimentConfig config = build(point);
    cells.push_back({std::move(point), config, {}, 0, 0, false, false});
  }
  return cells;
}

AdaptiveCell finish_cell(CellState&& cell, double z) {
  AdaptiveCell out;
  out.seeds_used = cell.seeds_done;
  out.violations = cell.violations;
  out.stopped_early = cell.stopped_early;
  if (cell.seeds_done > 0) {
    out.ci = stats::wilson_interval(cell.violations, cell.seeds_done, z);
  }
  // The cell becomes exactly the fixed-budget cell it is bit-identical
  // to: config.seeds reflects the seeds actually folded in.
  cell.config.seeds = cell.seeds_done;
  out.cell = {std::move(cell.point), cell.config, cell.summary};
  return out;
}

}  // namespace

AdaptiveSweepResult run_sweep_adaptive_with(
    const SweepGrid& grid, const ConfigBuilder& build,
    const SweepOptions& options, const AdaptiveOptions& adaptive,
    const SweepAdversaryFactory& factory) {
  validate_adaptive(adaptive);
  std::vector<CellState> cells = build_cells(grid, build);
  const std::uint64_t fingerprint =
      sweep_fingerprint(grid, cells, options, adaptive);
  const WaveLoopOutcome outcome =
      run_waves(cells, options, adaptive, factory, fingerprint);

  AdaptiveSweepResult result;
  result.waves = outcome.waves_total;
  result.complete = outcome.complete;
  const double z = stats::z_for_confidence(adaptive.confidence);
  result.cells.reserve(cells.size());
  for (CellState& cell : cells) {
    result.engine_runs += cell.seeds_done;
    result.cells.push_back(finish_cell(std::move(cell), z));
  }
  return result;
}

AdaptiveSweepResult run_sweep_adaptive(const SweepGrid& grid,
                                       const ConfigBuilder& build,
                                       const SweepOptions& options,
                                       const AdaptiveOptions& adaptive) {
  return run_sweep_adaptive_with(grid, build, options, adaptive,
                                 default_sweep_adversary_factory());
}

namespace {

/// Frontier midpoint evaluation: a one-cell adaptive run (no
/// checkpointing — refinement is cheap relative to the coarse sweep and
/// re-runs deterministically).
struct MidpointEstimate {
  double phat = 0.0;
  std::uint64_t runs = 0;
};

MidpointEstimate evaluate_midpoint(const GridPoint& point,
                                   const ConfigBuilder& build,
                                   const SweepOptions& options,
                                   const AdaptiveOptions& adaptive,
                                   const SweepAdversaryFactory& factory) {
  AdaptiveOptions local = adaptive;
  local.checkpoint_path.clear();
  local.resume = false;
  local.stop_after_waves = 0;
  local.progress = nullptr;  // midpoint waves are internal, not user-visible
  std::vector<CellState> cell;
  cell.push_back({point, build(point), {}, 0, 0, false, false});
  (void)run_waves(cell, options, local, factory, 0);
  MidpointEstimate estimate;
  estimate.runs = cell[0].seeds_done;
  estimate.phat = static_cast<double>(cell[0].violations) /
                  static_cast<double>(cell[0].seeds_done);
  return estimate;
}

GridPoint synthetic_point(const SweepGrid& grid, std::size_t index,
                          const std::vector<double>& values) {
  std::vector<std::string> names;
  names.reserve(grid.axis_count());
  for (std::size_t i = 0; i < grid.axis_count(); ++i) {
    names.push_back(grid.axis_name(i));
  }
  return GridPoint(std::move(names), index, values);
}

}  // namespace

FrontierResult localize_frontier_with(const SweepGrid& grid,
                                      const ConfigBuilder& build,
                                      const SweepOptions& options,
                                      const AdaptiveOptions& adaptive,
                                      const FrontierOptions& frontier,
                                      const SweepAdversaryFactory& factory) {
  bool axis_found = false;
  std::size_t axis_pos = 0;
  for (std::size_t i = 0; i < grid.axis_count(); ++i) {
    if (grid.axis_name(i) == frontier.axis) {
      axis_found = true;
      axis_pos = i;
    }
  }
  if (!axis_found) {
    throw std::invalid_argument("frontier axis \"" + frontier.axis +
                                "\" is not a grid axis");
  }
  if (!(frontier.tolerance > 0.0)) {
    throw std::invalid_argument("frontier tolerance must be positive");
  }

  FrontierResult result;
  result.coarse =
      run_sweep_adaptive_with(grid, build, options, adaptive, factory);
  result.engine_runs = result.coarse.engine_runs;
  if (!result.coarse.complete) return result;  // interrupted coarse phase

  // Group the coarse cells into lines: cells agreeing on every axis but
  // the bisect axis, kept in grid order within and across lines.
  struct Line {
    std::vector<double> key;  ///< the other axes' values
    std::vector<const AdaptiveCell*> cells;
  };
  std::vector<Line> lines;
  for (const AdaptiveCell& adaptive_cell : result.coarse.cells) {
    std::vector<double> key;
    key.reserve(grid.axis_count() - 1);
    for (std::size_t a = 0; a < grid.axis_count(); ++a) {
      if (a != axis_pos) key.push_back(adaptive_cell.cell.point.value(a));
    }
    auto line = std::find_if(lines.begin(), lines.end(),
                             [&](const Line& l) { return l.key == key; });
    if (line == lines.end()) {
      lines.push_back({std::move(key), {}});
      line = std::prev(lines.end());
    }
    line->cells.push_back(&adaptive_cell);
  }

  std::size_t synthetic_index = grid.size();
  for (const Line& line : lines) {
    FrontierRow row{line.cells.front()->cell.point, false, 0, 0, 0, 0, 0};

    // Dense-grid cost of this line at the requested resolution.
    const double first = line.cells.front()->cell.point.value(axis_pos);
    const double last = line.cells.back()->cell.point.value(axis_pos);
    const double span = std::fabs(last - first);
    const std::uint64_t dense_points =
        static_cast<std::uint64_t>(std::floor(span / frontier.tolerance)) + 1;
    result.dense_equivalent_runs +=
        std::max<std::uint64_t>(dense_points, line.cells.size()) *
        adaptive.max_seeds;

    const auto phat_of = [](const AdaptiveCell& c) {
      return static_cast<double>(c.violations) /
             static_cast<double>(c.seeds_used);
    };
    const auto above = [&](double phat) {
      return phat >= frontier.threshold;
    };

    // First adjacent pair straddling the threshold, in declared axis
    // order (benches declare the bisect axis monotone).
    for (std::size_t i = 0; i + 1 < line.cells.size(); ++i) {
      const double p_a = phat_of(*line.cells[i]);
      const double p_b = phat_of(*line.cells[i + 1]);
      if (above(p_a) == above(p_b)) continue;

      row.bracketed = true;
      row.anchor = line.cells[i]->cell.point;
      row.lo = line.cells[i]->cell.point.value(axis_pos);
      row.hi = line.cells[i + 1]->cell.point.value(axis_pos);
      row.estimate_lo = p_a;
      row.estimate_hi = p_b;
      std::uint32_t bisections = 0;
      while (std::fabs(row.hi - row.lo) > frontier.tolerance &&
             bisections < frontier.max_bisections) {
        const double mid = 0.5 * (row.lo + row.hi);
        std::vector<double> values;
        values.reserve(grid.axis_count());
        std::size_t key_slot = 0;
        for (std::size_t a = 0; a < grid.axis_count(); ++a) {
          values.push_back(a == axis_pos ? mid : line.key[key_slot++]);
        }
        const MidpointEstimate estimate = evaluate_midpoint(
            synthetic_point(grid, synthetic_index++, values), build,
            options, adaptive, factory);
        row.refine_runs += estimate.runs;
        if (above(estimate.phat) == above(row.estimate_lo)) {
          row.lo = mid;
          row.estimate_lo = estimate.phat;
        } else {
          row.hi = mid;
          row.estimate_hi = estimate.phat;
        }
        ++bisections;
      }
      break;
    }
    result.engine_runs += row.refine_runs;
    result.rows.push_back(std::move(row));
  }
  return result;
}

FrontierResult localize_frontier(const SweepGrid& grid,
                                 const ConfigBuilder& build,
                                 const SweepOptions& options,
                                 const AdaptiveOptions& adaptive,
                                 const FrontierOptions& frontier) {
  return localize_frontier_with(grid, build, options, adaptive, frontier,
                                default_sweep_adversary_factory());
}

}  // namespace neatbound::exp
