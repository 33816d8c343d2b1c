// Adaptive reproduction of the Fig. 1 boundary: localize the empirical
// consistency-violation frontier in the (ν, c/bound) plane and compare
// it against the analytic frontiers in bounds/frontier.
//
// Instead of burning a fixed seed budget on a dense multiple-axis grid,
// the run (1) sweeps a coarse grid with confidence-interval-driven seed
// allocation (cells whose P[violation depth > T] estimate is already
// tight stop early), then (2) bisects each ν-line's bracketing pair of
// coarse points — evaluating midpoints with the same sequential-stopping
// rule — until the crossing multiple is pinned to --tolerance.  The JSON
// meta reports both the engine runs actually spent (engine_runs) and the
// cost of the uniform dense grid reaching the same resolution
// (dense_equivalent_runs); the saving is typically an order of
// magnitude.
#include <cmath>
#include <iostream>
#include <memory>

#include "bounds/frontier.hpp"
#include "bounds/zhao.hpp"
#include "exp/adaptive.hpp"
#include "exp/bench_io.hpp"
#include "sim/strategies.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const auto miners = static_cast<std::uint32_t>(args.get_uint("miners", 40));
  const std::uint64_t delta = args.get_uint("delta", 3);
  const std::uint64_t rounds = args.get_uint("rounds", 12000);
  const std::uint64_t violation_t = args.get_uint("violation-t", 8);
  exp::AdaptiveOptions adaptive;
  adaptive.min_seeds = static_cast<std::uint32_t>(
      args.get_uint("min-seeds", 4, "wave-0 seed budget per cell"));
  adaptive.batch = static_cast<std::uint32_t>(
      args.get_uint("batch", 4, "seeds added per refill wave"));
  adaptive.max_seeds = static_cast<std::uint32_t>(
      args.get_uint("max-seeds", 48, "hard per-cell seed cap"));
  adaptive.half_width = args.get_double(
      "half-width", 0.08, "Wilson half-width target on P[depth > T]");
  adaptive.confidence =
      args.get_double("confidence", 0.95, "stopping interval level");
  exp::FrontierOptions frontier;
  frontier.axis = "multiple";
  frontier.threshold = args.get_double(
      "threshold", 0.5, "P[depth > T] level that defines the frontier");
  frontier.tolerance = args.get_double(
      "tolerance", 0.05, "bracket width to localize the crossing to");
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Frontier localization — empirical violation frontier vs "
               "the analytic bounds (n=" << miners << ", delta=" << delta
            << ", T=" << rounds << ", threshold=" << frontier.threshold
            << ", tolerance=" << frontier.tolerance << ")\n";

  exp::BenchReporter report("bench_frontier_localization", io);
  report.set_meta_number("miners", miners);
  report.set_meta_number("delta", static_cast<double>(delta));
  report.set_meta_number("rounds", static_cast<double>(rounds));
  report.set_meta_number("threshold", frontier.threshold);
  report.set_meta_number("tolerance", frontier.tolerance);
  report.set_meta_number("max_seeds", adaptive.max_seeds);

  exp::SweepGrid grid;
  grid.axis("nu", {0.15, 0.3, 0.4});
  grid.axis("multiple", {0.4, 0.7, 1.0, 1.5, 2.5});

  const auto build = [&](const exp::GridPoint& point) {
    const double nu = point.value("nu");
    const double c = bounds::neat_bound_c(nu) * point.value("multiple");
    sim::ExperimentConfig config;
    config.engine.miner_count = miners;
    config.engine.adversary_fraction = nu;
    config.engine.delta = delta;
    config.engine.p = 1.0 / (c * static_cast<double>(miners) *
                             static_cast<double>(delta));
    config.engine.rounds = rounds;
    config.seeds = adaptive.max_seeds;
    return config;
  };

  const exp::FrontierResult result = exp::localize_frontier(
      grid, build, {.violation_t = violation_t, .threads = io.threads},
      adaptive, frontier, [](const sim::EngineConfig&) {
        return std::make_unique<sim::PrivateWithholdAdversary>();
      });

  report.begin_section(
      "coarse sweep (adaptive seed allocation)",
      {"nu", "multiple", "c", "P[depth > " + std::to_string(violation_t) +
                                  "]",
       "ci low", "ci high", "seeds used", "stopped early"});
  for (const exp::AdaptiveCell& cell : result.coarse.cells) {
    const double nu = cell.cell.point.value("nu");
    const double multiple = cell.cell.point.value("multiple");
    const double phat = static_cast<double>(cell.violations) /
                        static_cast<double>(cell.seeds_used);
    report.add_row({format_fixed(nu, 2), format_fixed(multiple, 2),
                    format_fixed(bounds::neat_bound_c(nu) * multiple, 3),
                    format_fixed(phat, 3), format_fixed(cell.ci.lo, 3),
                    format_fixed(cell.ci.hi, 3),
                    format_fixed(static_cast<double>(cell.seeds_used), 0),
                    cell.stopped_early ? "yes" : "no"});
  }

  report.begin_section(
      "localized frontier (crossing multiple per nu)",
      {"nu", "bracket lo", "bracket hi", "multiple*", "empirical c*",
       "neat bound c", "PSS c_min", "refine runs"});
  for (const exp::FrontierRow& row : result.rows) {
    const double nu = row.anchor.value("nu");
    const double bound = bounds::neat_bound_c(nu);
    if (!row.bracketed) {
      report.add_row({format_fixed(nu, 2), "-", "-", "-", "-",
                      format_fixed(bound, 3),
                      format_fixed(bounds::c_min(
                                       bounds::BoundKind::kPssConsistency, nu,
                                       miners, static_cast<double>(delta)),
                                   3),
                      "0"});
      continue;
    }
    const double mid = 0.5 * (row.lo + row.hi);
    report.add_row(
        {format_fixed(nu, 2), format_fixed(row.lo, 3),
         format_fixed(row.hi, 3), format_fixed(mid, 3),
         format_fixed(bound * mid, 3), format_fixed(bound, 3),
         format_fixed(bounds::c_min(bounds::BoundKind::kPssConsistency, nu,
                                    miners, static_cast<double>(delta)),
                      3),
         format_fixed(static_cast<double>(row.refine_runs), 0)});
  }

  report.set_meta_number("engine_runs",
                         static_cast<double>(result.engine_runs));
  report.set_meta_number("dense_equivalent_runs",
                         static_cast<double>(result.dense_equivalent_runs));
  report.finish();

  const double saving =
      result.engine_runs == 0
          ? 0.0
          : static_cast<double>(result.dense_equivalent_runs) /
                static_cast<double>(result.engine_runs);
  std::cout << "\nreading: each nu line's crossing multiple* is where the "
               "empirical violation probability passes "
            << frontier.threshold << "; the neat bound predicts the "
               "frontier at multiple = 1 asymptotically, and the engine-"
               "scale crossing sits near it from below (finite n and "
               "Delta soften the transition — see docs/reproducing.md).  "
               "Cost: "
            << result.engine_runs << " engine runs vs "
            << result.dense_equivalent_runs
            << " for the dense grid at the same resolution ("
            << format_fixed(saving, 1) << "x fewer).\n";
  return 0;
}
