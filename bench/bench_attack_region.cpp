// PSS Remark 8.5 attack region (Figure 1's red line), validated end to
// end: the balance-attack adversary splits the honest miners and keeps
// two chains level; the attack sustains divergence exactly when
// 1/c > 1/ν − 1/μ.  We scan ν at fixed c and report the divergence the
// attack sustains, alongside the red-line threshold.
//
// Orchestrated: all (c, ν, seed) engine runs share one work pool
// (--threads); summaries are bit-identical to the serial path.
#include <iostream>
#include <memory>

#include "bounds/pss.hpp"
#include "exp/bench_io.hpp"
#include "exp/orchestrator.hpp"
#include "sim/strategies.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const auto miners = static_cast<std::uint32_t>(args.get_uint("miners", 40));
  const std::uint64_t delta = args.get_uint("delta", 4);
  const std::uint64_t rounds = args.get_uint("rounds", 8000);
  const auto seeds = static_cast<std::uint32_t>(args.get_uint("seeds", 5));
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# PSS attack region — balance attack vs the red line "
               "(n=" << miners << ", delta=" << delta << ", T=" << rounds
            << ", seeds=" << seeds << ")\n";

  exp::BenchReporter report("bench_attack_region", io);
  report.set_meta_number("miners", miners);
  report.set_meta_number("delta", static_cast<double>(delta));
  report.set_meta_number("rounds", static_cast<double>(rounds));
  report.set_meta_number("seeds", seeds);

  exp::SweepGrid grid;
  grid.axis("c", {0.6, 1.0, 2.0});
  grid.axis("nu", {0.10, 0.20, 0.30, 0.40, 0.48});

  const auto build = [&](const exp::GridPoint& point) {
    sim::ExperimentConfig config;
    config.engine.miner_count = miners;
    config.engine.adversary_fraction = point.value("nu");
    config.engine.delta = delta;
    config.engine.p = 1.0 / (point.value("c") * static_cast<double>(miners) *
                             static_cast<double>(delta));
    config.engine.rounds = rounds;
    config.seeds = seeds;
    return config;
  };
  const auto cells = exp::run_sweep(
      grid, build, {.violation_t = 8, .threads = io.threads},
      [](const sim::EngineConfig& engine) {
        return std::make_unique<sim::BalanceAttackAdversary>(
            sim::honest_miner_count(engine), engine.delta);
      });

  const std::vector<std::string> headers = {"nu", "predicted",
                                            "mean max divergence",
                                            "divergence/rounds x1e3",
                                            "disagreement frac"};
  double section_c = -1.0;
  for (const exp::SweepCell& cell : cells) {
    const double c = cell.point.value("c");
    const double nu = cell.point.value("nu");
    if (c != section_c) {
      section_c = c;
      const double threshold = bounds::pss_attack_nu_threshold(c);
      report.begin_section("c = " + format_fixed(c, 2) +
                               "   (red line: attack predicted for nu > " +
                               format_fixed(threshold, 3) + ")",
                           headers);
    }
    const sim::ExperimentSummary& summary = cell.summary;
    const bool predicted = bounds::pss_attack_applies(nu, c);
    report.add_row(
        {format_fixed(nu, 2), predicted ? "attack" : "safe",
         format_fixed(summary.max_divergence.mean(), 1),
         format_fixed(summary.max_divergence.mean() /
                          static_cast<double>(rounds) * 1000.0,
                      2),
         format_fixed(summary.disagreement_rounds.mean() /
                          static_cast<double>(rounds),
                      3)});
  }
  report.finish();
  std::cout << "\nreading: sustained (rounds-proportional) divergence "
               "appears above the red-line threshold and vanishes below "
               "it.\n";
  return 0;
}
