// Execution-engine walkthrough: runs the protocol of Section III at laptop
// scale with a withholding adversary, then dissects the result — final
// chain validation against the random oracle, ext() message extraction,
// per-round block-count histogram, and the convergence-opportunity count
// compared with Eq. (26).
//
//   ./simulation_demo --miners=30 --nu=0.2 --delta=3 --c=4 --rounds=20000
#include <cmath>
#include <iostream>
#include <memory>

#include "bounds/params.hpp"
#include "chains/convergence.hpp"
#include "protocol/validation.hpp"
#include "sim/engine.hpp"
#include "sim/strategies.hpp"
#include "stats/histogram.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const auto miners = static_cast<std::uint32_t>(args.get_uint("miners", 30));
  const double nu = args.get_double("nu", 0.2);
  const std::uint64_t delta = args.get_uint("delta", 3);
  const double c = args.get_double("c", 4.0);
  const std::uint64_t rounds = args.get_uint("rounds", 20000);
  const std::uint64_t seed = args.get_uint("seed", 2024);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  sim::EngineConfig config;
  config.miner_count = miners;
  config.adversary_fraction = nu;
  config.delta = delta;
  config.p = 1.0 / (c * static_cast<double>(miners) *
                    static_cast<double>(delta));
  config.rounds = rounds;
  config.seed = seed;

  std::cout << "Running " << rounds << " rounds: n=" << miners
            << ", nu=" << nu << ", delta=" << delta << ", c=" << c
            << ", p=" << format_sci(config.p, 3) << ", seed=" << seed
            << "\n\n";

  sim::ExecutionEngine engine(config,
                              std::make_unique<sim::PrivateWithholdAdversary>());
  const sim::RunResult result = engine.run();

  std::cout << "Blocks\n"
            << "  honest mined        : " << result.honest_blocks_total << '\n'
            << "  adversary mined     : " << result.adversary_blocks_total
            << '\n'
            << "  best chain height   : " << result.chain.best_height << '\n'
            << "  growth per round    : "
            << format_fixed(result.chain.growth_per_round, 5) << '\n'
            << "  chain quality       : "
            << format_fixed(result.chain.quality, 4) << "  ("
            << result.chain.adversary_blocks_in_chain
            << " adversary blocks in the winning chain)\n\n";

  std::cout << "Consistency\n"
            << "  max reorg depth     : " << result.max_reorg_depth << '\n'
            << "  max view divergence : " << result.max_divergence << '\n'
            << "  disagreement rounds : " << result.disagreement_rounds
            << " / " << rounds << '\n'
            << "  => consistency held for every T > "
            << result.violation_depth << "\n\n";

  // Convergence opportunities: measured vs Eq. (26).
  const auto params = bounds::ProtocolParams::from_c(
      static_cast<double>(miners), static_cast<double>(delta), nu, c);
  const double expected =
      chains::expected_convergence_opportunities(
          params.alpha_bar(), params.alpha1(), delta,
          static_cast<double>(rounds))
          .linear();
  std::cout << "Convergence opportunities (pattern H N^{>=delta} H1 "
               "N^{delta})\n"
            << "  measured            : " << result.convergence_opportunities
            << '\n'
            << "  Eq. (26) expectation: " << format_fixed(expected, 1)
            << "  (ratio "
            << format_fixed(static_cast<double>(
                                result.convergence_opportunities) /
                                expected,
                            3)
            << ")\n\n";

  // Validate the winning chain against the oracle (linkage + H.ver).
  const auto report = protocol::validate_chain(
      engine.store(), engine.best_honest_tip(), engine.oracle());
  std::cout << "Winning-chain validation (linkage + H.ver): "
            << (report.valid ? "VALID" : ("INVALID - " + report.failure))
            << "\n\n";

  // Distribution of per-round honest block counts (the H_h detailed states).
  stats::Histogram hist(0.0, 5.0, 5);
  for (const auto count : result.honest_counts) hist.add(count);
  std::cout << "Per-round honest block count distribution:\n"
            << hist.render(40) << '\n';
  std::cout << "ext(): the winning chain carries "
            << engine.store().extract_messages(engine.best_honest_tip()).size()
            << " environment messages (payloads are digests in simulation "
               "runs).\n";
  return 0;
}
