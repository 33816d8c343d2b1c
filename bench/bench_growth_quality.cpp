// Chain growth and chain quality (the §II properties the paper defers to
// future work), measured by the execution engine and compared with the
// standard heuristics g ≈ α/(1+Δα) and q ≈ 1 − ν/μ, plus the selfish-
// mining degradation of quality.
//
// Orchestrated: the growth sweep and each strategy's quality sweep run
// their (grid × seed) engine jobs on one work pool; the block-DAG section
// parallelizes its single-seed engine runs over grid cells (--threads).
#include <cmath>
#include <iostream>
#include <memory>

#include "bounds/growth_quality.hpp"
#include "exp/bench_io.hpp"
#include "exp/orchestrator.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const auto miners = static_cast<std::uint32_t>(args.get_uint("miners", 40));
  const std::uint64_t rounds = args.get_uint("rounds", 30000);
  const auto seeds = static_cast<std::uint32_t>(args.get_uint("seeds", 5));
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  exp::BenchReporter report("bench_growth_quality", io);
  report.set_meta_number("miners", miners);
  report.set_meta_number("rounds", static_cast<double>(rounds));
  report.set_meta_number("seeds", seeds);

  std::cout << "# Chain growth / quality / block-DAG shape "
               "(n=" << miners << ", T=" << rounds << ", seeds=" << seeds
            << ")\n";
  {
    exp::SweepGrid grid;
    grid.axis("delta", {1, 2, 4, 8});
    grid.axis("p", {0.001, 0.004});
    const auto build = [&](const exp::GridPoint& point) {
      sim::ExperimentConfig config;
      config.engine.miner_count = miners;
      config.engine.adversary_fraction = 0.0;
      config.engine.delta = static_cast<std::uint64_t>(point.value("delta"));
      config.engine.p = point.value("p");
      config.engine.rounds = rounds;
      config.seeds = seeds;
      return config;
    };
    const auto cells = exp::run_sweep(
        grid, build, {.violation_t = 8, .threads = io.threads},
        [](const sim::EngineConfig& engine) {
          return std::make_unique<sim::MaxDelayAdversary>(engine.delta);
        });
    report.begin_section(
        "growth — max-delay delivery vs g ~ alpha/(1+delta*alpha)",
        {"delta", "p", "alpha", "g heuristic", "g simulated", "ratio"});
    for (const exp::SweepCell& cell : cells) {
      const auto delta = static_cast<std::uint64_t>(cell.point.value("delta"));
      const double p = cell.point.value("p");
      const double alpha =
          1.0 - std::pow(1.0 - p, static_cast<double>(miners));
      const double heuristic =
          alpha / (1.0 + static_cast<double>(delta) * alpha);
      report.add_row({std::to_string(delta), format_general(p, 3),
                      format_fixed(alpha, 4), format_fixed(heuristic, 5),
                      format_fixed(cell.summary.chain_growth.mean(), 5),
                      format_fixed(cell.summary.chain_growth.mean() / heuristic,
                                   3)});
    }
  }

  {
    report.begin_section(
        "quality — vs adversary strategy (q heuristic: 1 - nu/mu under "
        "honest-ish behaviour)",
        {"strategy", "nu", "q heuristic", "q simulated",
         "adv blocks in chain"});
    exp::SweepGrid grid;
    grid.axis("nu", {0.1, 0.25, 0.4});
    const auto build = [&](const exp::GridPoint& point) {
      sim::ExperimentConfig config;
      config.engine.miner_count = miners;
      config.engine.adversary_fraction = point.value("nu");
      config.engine.delta = 2;
      config.engine.p = 0.002;
      config.engine.rounds = rounds;
      config.seeds = seeds;
      return config;
    };
    const scenario::ScenarioRegistry& registry =
        scenario::ScenarioRegistry::builtin();
    for (const std::string strategy : {"private-withhold", "selfish-mining"}) {
      const auto cells = exp::run_sweep(
          grid, build, {.violation_t = 8, .threads = io.threads},
          [&](const sim::EngineConfig& engine) {
            return registry.make_adversary("strategy", {}, strategy, {},
                                           engine);
          });
      for (const exp::SweepCell& cell : cells) {
        const double nu = cell.point.value("nu");
        const double heuristic = 1.0 - nu / (1.0 - nu);
        report.add_row(
            {strategy, format_fixed(nu, 2), format_fixed(heuristic, 3),
             format_fixed(cell.summary.chain_quality.mean(), 3),
             format_fixed(cell.summary.chain_quality.count() > 0
                              ? (1.0 - cell.summary.chain_quality.mean())
                              : 0.0,
                          3)});
      }
    }
  }

  {
    exp::SweepGrid grid;
    grid.axis("delta", {1, 4, 8});
    grid.axis("p", {0.001, 0.004});
    const auto points = grid.points();
    std::vector<std::vector<std::string>> rows(points.size());
    parallel_for_indexed(points.size(), io.threads, [&](std::size_t i) {
      const auto delta = static_cast<std::uint64_t>(points[i].value("delta"));
      const double p = points[i].value("p");
      sim::EngineConfig config;
      config.miner_count = miners;
      config.adversary_fraction = 0.0;
      config.delta = delta;
      config.p = p;
      config.rounds = rounds;
      config.seed = 99;
      sim::ExecutionEngine engine(
          config, std::make_unique<sim::MaxDelayAdversary>(delta));
      const auto result = engine.run();
      const auto metrics =
          sim::measure_dag(engine.store(), engine.best_honest_tip());
      const double blocks_per_round =
          static_cast<double>(result.honest_blocks_total) /
          static_cast<double>(rounds);
      const double predicted =
          1.0 - result.chain.growth_per_round / blocks_per_round;
      rows[i] = {std::to_string(delta), format_general(p, 3),
                 format_fixed(metrics.orphan_rate, 4),
                 format_fixed(predicted, 4),
                 std::to_string(metrics.fork_heights),
                 std::to_string(metrics.max_width)};
    });
    report.begin_section(
        "block-dag — honest work wasted on forks vs the 1 - g/(blocks per "
        "round) identity",
        {"delta", "p", "orphan rate", "predicted", "fork heights",
         "max width"});
    for (const auto& row : rows) report.add_row(row);
  }

  report.finish();
  std::cout << "\nreading: selfish mining pushes quality toward (and below) "
               "the 1 - nu/mu line, the classical chain-quality attack "
               "bound; withholding costs less quality because failed forks "
               "stay private.\n";
  return 0;
}
