#include "exp/orchestrator.hpp"

#include <utility>

#include "sim/engine.hpp"
#include "support/parallel.hpp"

namespace neatbound::exp {

std::vector<SweepCell> run_sweep(const SweepGrid& grid,
                                 const ConfigBuilder& build,
                                 const SweepOptions& options,
                                 const sim::AdversaryFactory& factory) {
  const std::size_t cells = grid.size();

  // Materialize every cell's config up front (single-threaded: builders
  // may capture mutable bench state) and lay the (cell × seed) jobs out
  // flat: job j covers cell job_cell[j], seed j - first_job[cell].
  std::vector<SweepCell> out;
  out.reserve(cells);
  std::vector<std::size_t> first_job(cells + 1, 0);
  for (std::size_t i = 0; i < cells; ++i) {
    GridPoint point = grid.point(i);
    sim::ExperimentConfig config = build(point);
    first_job[i + 1] = first_job[i] + config.seeds;
    out.push_back({std::move(point), config, {}});
  }
  const std::size_t total_jobs = first_job[cells];
  std::vector<std::size_t> job_cell(total_jobs);
  for (std::size_t i = 0; i < cells; ++i) {
    for (std::size_t j = first_job[i]; j < first_job[i + 1]; ++j) {
      job_cell[j] = i;
    }
  }

  std::vector<sim::RunResult> results(total_jobs);
  parallel_for_indexed(total_jobs, options.threads, [&](std::size_t j) {
    const SweepCell& cell = out[job_cell[j]];
    const std::size_t k = j - first_job[job_cell[j]];
    sim::EngineConfig engine_config = cell.config.engine;
    engine_config.seed = cell.config.base_seed + k;
    sim::ExecutionEngine engine(engine_config, factory(engine_config));
    results[j] = engine.run();
  });

  // Seed-ordered aggregation per cell, via the runner's accumulator —
  // bit-identical to the serial per-cell path.
  for (std::size_t i = 0; i < cells; ++i) {
    for (std::size_t j = first_job[i]; j < first_job[i + 1]; ++j) {
      sim::accumulate_run(out[i].summary, results[j], options.violation_t);
    }
  }
  return out;
}

}  // namespace neatbound::exp
