#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>

#include "exp/grid.hpp"
#include "exp/orchestrator.hpp"
#include "scenario/registry.hpp"
#include "sim/runner.hpp"
#include "sim/strategies.hpp"
#include "stats/summary.hpp"

namespace neatbound::exp {
namespace {

sim::ExperimentConfig cell_config(double nu, double p) {
  sim::ExperimentConfig config;
  config.engine.miner_count = 12;
  config.engine.adversary_fraction = nu;
  config.engine.p = p;
  config.engine.delta = 2;
  config.engine.rounds = 800;
  config.seeds = 3;
  config.base_seed = 9000;
  return config;
}

std::unique_ptr<sim::Adversary> max_delay(const sim::EngineConfig& engine) {
  return std::make_unique<sim::MaxDelayAdversary>(engine.delta);
}

void expect_identical(const sim::ExperimentSummary& a,
                      const sim::ExperimentSummary& b) {
  EXPECT_EQ(a.violation_depth.count(), b.violation_depth.count());
  EXPECT_DOUBLE_EQ(a.convergence_opportunities.mean(),
                   b.convergence_opportunities.mean());
  EXPECT_DOUBLE_EQ(a.adversary_blocks.mean(), b.adversary_blocks.mean());
  EXPECT_DOUBLE_EQ(a.honest_blocks.variance(), b.honest_blocks.variance());
  EXPECT_DOUBLE_EQ(a.violation_depth.max(), b.violation_depth.max());
  EXPECT_DOUBLE_EQ(a.max_reorg_depth.mean(), b.max_reorg_depth.mean());
  EXPECT_DOUBLE_EQ(a.max_divergence.mean(), b.max_divergence.mean());
  EXPECT_DOUBLE_EQ(a.disagreement_rounds.mean(),
                   b.disagreement_rounds.mean());
  EXPECT_DOUBLE_EQ(a.chain_growth.mean(), b.chain_growth.mean());
  EXPECT_DOUBLE_EQ(a.chain_quality.mean(), b.chain_quality.mean());
  EXPECT_DOUBLE_EQ(a.best_height.mean(), b.best_height.mean());
  EXPECT_DOUBLE_EQ(a.violation_exceeds_t.mean(),
                   b.violation_exceeds_t.mean());
}

/// The tentpole guarantee: the pooled grid×seed sweep produces, for every
/// built-in strategy, summaries bit-identical to running each cell through
/// the serial single-cell runner.
TEST(Orchestrator, GridParallelBitIdenticalToSerialForEveryStrategy) {
  const scenario::ScenarioRegistry& registry =
      scenario::ScenarioRegistry::builtin();
  SweepGrid grid;
  grid.axis("nu", {0.2, 0.35});
  const auto build = [](const GridPoint& point) {
    return cell_config(point.value("nu"), 0.01);
  };

  for (const auto& strategy : registry.adversary_strategies()) {
    SCOPED_TRACE(strategy.name);
    const sim::AdversaryFactory factory =
        [&](const sim::EngineConfig& engine_config) {
          return registry.make_adversary("strategy", {}, strategy.name, {},
                                         engine_config);
        };
    const auto parallel_cells =
        run_sweep(grid, build, {.violation_t = 5, .threads = 4}, factory);
    ASSERT_EQ(parallel_cells.size(), grid.size());
    for (const SweepCell& cell : parallel_cells) {
      expect_identical(sim::run_experiment(cell.config, 5, factory),
                       cell.summary);
    }
  }
}

// Any worker count — hardware concurrency (0), one, fewer workers than
// the 9 jobs, or more — returns the cells in grid order with the serial
// runner's summaries.
TEST(Orchestrator, CellsComeBackInGridOrder) {
  SweepGrid grid;
  grid.axis("nu", {0.1, 0.2, 0.3});
  const auto build = [](const GridPoint& point) {
    return cell_config(point.value("nu"), 0.02);
  };
  for (const unsigned threads : {0u, 1u, 3u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto cells = run_sweep(
        grid, build, {.violation_t = 5, .threads = threads}, max_delay);
    ASSERT_EQ(cells.size(), 3u);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(cells[i].point.index(), i);
      EXPECT_DOUBLE_EQ(cells[i].point.value("nu"),
                       0.1 + 0.1 * static_cast<double>(i));
      EXPECT_EQ(cells[i].summary.honest_blocks.count(),
                cells[i].config.seeds);
      expect_identical(sim::run_experiment(cells[i].config, 5, max_delay),
                       cells[i].summary);
    }
  }
}

TEST(Orchestrator, CustomFactoryIsUsedAndSeedsVary) {
  SweepGrid grid;
  grid.axis("nu", {0.25});
  const auto build = [](const GridPoint& point) {
    return cell_config(point.value("nu"), 0.01);
  };
  std::atomic<int> factory_calls{0};
  const auto cells = run_sweep(
      grid, build, {.violation_t = 5, .threads = 2},
      [&](const sim::EngineConfig& engine_config) {
        ++factory_calls;
        EXPECT_GE(engine_config.seed, 9000u);
        EXPECT_LT(engine_config.seed, 9000u + 3u);
        return max_delay(engine_config);
      });
  EXPECT_EQ(factory_calls.load(), 3);
  expect_identical(sim::run_experiment(cells[0].config, 5, max_delay),
                   cells[0].summary);
}

TEST(Orchestrator, WorkerExceptionPropagatesToCaller) {
  SweepGrid grid;
  grid.axis("nu", {0.1, 0.2});
  const auto build = [](const GridPoint& point) {
    return cell_config(point.value("nu"), 0.01);
  };
  try {
    (void)run_sweep(grid, build, {.violation_t = 5, .threads = 4},
                    [](const sim::EngineConfig&)
                        -> std::unique_ptr<sim::Adversary> {
                      throw std::runtime_error("factory boom");
                    });
    FAIL() << "expected run_sweep to throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "factory boom");
  }
}

/// Parallel-reduction property: merging chunked accumulators matches one
/// accumulator fed the same stream, for any split — count exactly,
/// moments to floating-point accuracy.
TEST(RunningStatsMerge, MatchesSingleAccumulatorOnAnySplit) {
  std::mt19937_64 gen(20260727);
  std::normal_distribution<double> normal(3.0, 2.5);
  const std::size_t samples = 4096;
  std::vector<double> stream(samples);
  for (double& x : stream) x = normal(gen);

  stats::RunningStats whole;
  for (const double x : stream) whole.add(x);

  for (const std::size_t chunks : {1u, 2u, 3u, 7u, 16u, 101u}) {
    std::vector<stats::RunningStats> parts(chunks);
    for (std::size_t i = 0; i < samples; ++i) {
      parts[i % chunks].add(stream[i]);
    }
    stats::RunningStats merged;
    for (const auto& part : parts) merged.merge(part);

    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12 * std::fabs(whole.mean()));
    EXPECT_NEAR(merged.variance(), whole.variance(),
                1e-10 * whole.variance());
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  }
}

TEST(RunningStatsMerge, MergingEmptyIsIdentity) {
  stats::RunningStats a;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(stats::RunningStats{});
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), mean);

  stats::RunningStats empty;
  stats::RunningStats b;
  b.add(5.0);
  empty.merge(b);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
  EXPECT_DOUBLE_EQ(empty.min(), 5.0);
  EXPECT_DOUBLE_EQ(empty.max(), 5.0);
}

}  // namespace
}  // namespace neatbound::exp
