// End-to-end consistency sweep: empirical violation depth versus c as c
// crosses the neat bound 2μ/ln(μ/ν), under the private-withholding
// adversary with worst-case Δ delays (execution engine, multi-seed).
//
// Expected shape: for c comfortably above the bound the violation depth
// stays shallow and flat in T; as c approaches/crosses the bound the
// adversary's private forks overtake often and the depth blows up.
//
// Orchestrated: all (ν, c-multiple, seed) engine runs share one work pool
// (--threads); summaries are bit-identical to the serial path.
#include <iostream>

#include "bounds/zhao.hpp"
#include "exp/bench_io.hpp"
#include "exp/orchestrator.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const auto miners = static_cast<std::uint32_t>(args.get_uint("miners", 40));
  const std::uint64_t delta = args.get_uint("delta", 3);
  const std::uint64_t rounds = args.get_uint("rounds", 30000);
  const auto seeds = static_cast<std::uint32_t>(args.get_uint("seeds", 6));
  const std::uint64_t violation_t = args.get_uint("violation-t", 8);
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Consistency sweep — violation depth vs c under "
               "private-withholding (n=" << miners << ", delta=" << delta
            << ", T=" << rounds << ", seeds=" << seeds << ")\n";

  exp::BenchReporter report("bench_consistency_sweep", io);
  report.set_meta_number("miners", miners);
  report.set_meta_number("delta", static_cast<double>(delta));
  report.set_meta_number("rounds", static_cast<double>(rounds));
  report.set_meta_number("seeds", seeds);

  exp::SweepGrid grid;
  grid.axis("nu", {0.15, 0.3, 0.4});
  grid.axis("multiple", {0.4, 0.7, 1.0, 1.5, 2.5, 5.0, 10.0});

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
    config.adversary = sim::AdversaryKind::kPrivateWithhold;
    config.seeds = seeds;
    return config;
  };
  const auto cells = exp::run_sweep(
      grid, build, {.violation_t = violation_t, .threads = io.threads});
  telemetry::TelemetryAccumulator total;
  for (const exp::SweepCell& cell : cells) total.merge(cell.summary.telemetry);
  report.set_telemetry_meta(total);

  const std::vector<std::string> headers = {
      "nu", "c", "c/bound", "mean violation depth", "max reorg",
      "max divergence", "P[depth > " + std::to_string(violation_t) + "]",
      "chain quality"};
  double section_nu = -1.0;
  for (const exp::SweepCell& cell : cells) {
    const double nu = cell.point.value("nu");
    const double multiple = cell.point.value("multiple");
    const double bound = bounds::neat_bound_c(nu);
    if (nu != section_nu) {
      section_nu = nu;
      report.begin_section("nu = " + format_fixed(nu, 2) +
                               "   (neat bound: c > " +
                               format_fixed(bound, 3) + ")",
                           headers);
    }
    const sim::ExperimentSummary& summary = cell.summary;
    report.add_row({format_fixed(nu, 2), format_fixed(bound * multiple, 3),
                    format_fixed(multiple, 2),
                    format_fixed(summary.violation_depth.mean(), 1),
                    format_fixed(summary.max_reorg_depth.max(), 0),
                    format_fixed(summary.max_divergence.max(), 0),
                    format_fixed(summary.violation_exceeds_t.mean(), 2),
                    format_fixed(summary.chain_quality.mean(), 3)});
  }
  report.finish();
  std::cout
      << "\nreading: the observed violation depth falls monotonically as c "
         "clears the bound.  Above the bound the residual depth is the "
         "ln(T)/ln(mu/nu) random-walk fluctuation Definition 1 tolerates "
         "(consistency holds for any T above it, with the paper's "
         "exponential decay); below the bound the depth and the P[depth>T] "
         "column blow up because convergence opportunities become scarcer "
         "than adversary blocks — condition (10) flips sign.  The linear-"
         "divergence (true inconsistency) regime is driven by the delay-"
         "based attack instead; see bench_attack_region.\n";
  return 0;
}
