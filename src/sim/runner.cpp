#include "sim/runner.hpp"

namespace neatbound::sim {

void accumulate_run(ExperimentSummary& summary, const RunResult& result,
                    std::uint64_t violation_t) {
  summary.convergence_opportunities.add(
      static_cast<double>(result.convergence_opportunities));
  summary.adversary_blocks.add(
      static_cast<double>(result.adversary_blocks_total));
  summary.honest_blocks.add(static_cast<double>(result.honest_blocks_total));
  summary.violation_depth.add(static_cast<double>(result.violation_depth));
  summary.max_reorg_depth.add(static_cast<double>(result.max_reorg_depth));
  summary.max_divergence.add(static_cast<double>(result.max_divergence));
  summary.disagreement_rounds.add(
      static_cast<double>(result.disagreement_rounds));
  summary.chain_growth.add(result.chain.growth_per_round);
  summary.chain_quality.add(result.chain.quality);
  summary.best_height.add(static_cast<double>(result.chain.best_height));
  summary.violation_exceeds_t.add(
      result.violation_depth > violation_t ? 1.0 : 0.0);
  summary.telemetry.add(result.telemetry);
}

ExperimentSummary run_experiment(const ExperimentConfig& config,
                                 std::uint64_t violation_t,
                                 const AdversaryFactory& factory) {
  ExperimentSummary summary;
  for (std::uint32_t k = 0; k < config.seeds; ++k) {
    EngineConfig engine_config = config.engine;
    engine_config.seed = config.base_seed + k;
    ExecutionEngine engine(engine_config, factory(engine_config));
    accumulate_run(summary, engine.run(), violation_t);
  }
  return summary;
}

}  // namespace neatbound::sim
