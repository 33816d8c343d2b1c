// Attack explorer: pit every built-in adversary strategy against one
// parameter point and compare what each attack actually damages —
// consistency depth, chain quality, or agreement.
//
//   ./attack_explorer --miners=40 --nu=0.3 --delta=4 --c=2 --rounds=20000
#include <iostream>

#include "bounds/pss.hpp"
#include "bounds/zhao.hpp"
#include "scenario/registry.hpp"
#include "sim/runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const auto miners = static_cast<std::uint32_t>(args.get_uint("miners", 40));
  const double nu = args.get_double("nu", 0.3);
  const std::uint64_t delta = args.get_uint("delta", 4);
  const double c = args.get_double("c", 2.0);
  const std::uint64_t rounds = args.get_uint("rounds", 20000);
  const auto seeds = static_cast<std::uint32_t>(args.get_uint("seeds", 4));
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "Attack explorer: n=" << miners << " nu=" << nu
            << " delta=" << delta << " c=" << c << " T=" << rounds
            << " seeds=" << seeds << "\n"
            << "analytic context: neat bound needs c > "
            << format_fixed(bounds::neat_bound_c(nu), 3)
            << "; PSS attack regime is nu > "
            << format_fixed(bounds::pss_attack_nu_threshold(c), 3)
            << " at this c\n\n";

  TablePrinter table({"strategy", "violation depth", "max reorg",
                      "max divergence", "disagree frac", "quality",
                      "growth/round", "conv opps", "adv blocks"});
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::builtin();
  for (const auto& strategy : registry.adversary_strategies()) {
    sim::ExperimentConfig config;
    config.engine.miner_count = miners;
    config.engine.adversary_fraction = nu;
    config.engine.delta = delta;
    config.engine.p = 1.0 / (c * static_cast<double>(miners) *
                             static_cast<double>(delta));
    config.engine.rounds = rounds;
    config.seeds = seeds;
    const auto s = sim::run_experiment(
        config, 8, [&](const sim::EngineConfig& engine) {
          return registry.make_adversary("strategy", {}, strategy.name, {},
                                         engine);
        });
    table.add_row(
        {strategy.name,
         format_fixed(s.violation_depth.mean(), 1),
         format_fixed(s.max_reorg_depth.mean(), 1),
         format_fixed(s.max_divergence.mean(), 1),
         format_fixed(s.disagreement_rounds.mean() /
                          static_cast<double>(rounds),
                      3),
         format_fixed(s.chain_quality.mean(), 3),
         format_fixed(s.chain_growth.mean(), 5),
         format_fixed(s.convergence_opportunities.mean(), 0),
         format_fixed(s.adversary_blocks.mean(), 0)});
  }
  table.print(std::cout);
  std::cout << "\nhow to read: private-withhold and delay-saturate target "
               "consistency (reorg depth), balance-attack and fork-balancer "
               "target agreement (divergence), selfish-mining targets chain "
               "quality; null/max-delay are the benign baselines bracketing "
               "honest behaviour.\n";
  return 0;
}
