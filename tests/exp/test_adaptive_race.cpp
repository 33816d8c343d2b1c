// TSan-targeted race test for the adaptive wave loop: many cells, many
// waves, an aggressively threaded pool — and the serial run as the oracle.
// Under NEATBOUND_SANITIZE=thread this is the suite that drags every
// wave's (cell × seed) fan-out, result-slot writes and wave-boundary fold
// across enough schedules for TSan to observe a conflict; in a plain
// build it doubles as a bit-identity regression at a larger scale than
// tests/exp/test_adaptive.cpp covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "exp/adaptive.hpp"
#include "exp/grid.hpp"
#include "sim/runner.hpp"
#include "sim/strategies.hpp"

namespace neatbound::exp {
namespace {

ConfigBuilder race_builder() {
  return [](const GridPoint& point) {
    sim::ExperimentConfig config;
    config.engine.miner_count = 10;
    config.engine.adversary_fraction = point.value("nu");
    config.engine.p = point.value("p");
    config.engine.delta = 2;
    config.engine.rounds = 300;
    config.seeds = 8;
    config.base_seed = 4100;
    return config;
  };
}

std::unique_ptr<sim::Adversary> withhold(const sim::EngineConfig&) {
  return std::make_unique<sim::PrivateWithholdAdversary>();
}

void expect_identical(const sim::ExperimentSummary& a,
                      const sim::ExperimentSummary& b) {
  EXPECT_EQ(a.violation_depth.count(), b.violation_depth.count());
  EXPECT_DOUBLE_EQ(a.violation_depth.mean(), b.violation_depth.mean());
  EXPECT_DOUBLE_EQ(a.honest_blocks.variance(), b.honest_blocks.variance());
  EXPECT_DOUBLE_EQ(a.adversary_blocks.mean(), b.adversary_blocks.mean());
  EXPECT_DOUBLE_EQ(a.chain_growth.mean(), b.chain_growth.mean());
  EXPECT_DOUBLE_EQ(a.chain_quality.mean(), b.chain_quality.mean());
}

TEST(AdaptiveRace, ManyWavesManyThreadsMatchSerialBitForBit) {
  SweepGrid grid;
  grid.axis("nu", {0.15, 0.25, 0.35, 0.45});
  grid.axis("p", {0.005, 0.02, 0.05});

  AdaptiveOptions adaptive;
  adaptive.min_seeds = 2;
  adaptive.batch = 2;      // small batches force several waves per cell
  adaptive.max_seeds = 8;
  adaptive.half_width = 0.0;  // unreachable target: every cell runs to max

  const auto serial = run_sweep_adaptive(
      grid, race_builder(), {.violation_t = 4, .threads = 1}, adaptive,
      withhold);
  const auto threaded = run_sweep_adaptive(
      grid, race_builder(), {.violation_t = 4, .threads = 8}, adaptive,
      withhold);

  ASSERT_EQ(threaded.cells.size(), serial.cells.size());
  EXPECT_EQ(threaded.waves, serial.waves);
  EXPECT_EQ(threaded.engine_runs, serial.engine_runs);
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(threaded.cells[i].seeds_used, serial.cells[i].seeds_used);
    EXPECT_EQ(threaded.cells[i].violations, serial.cells[i].violations);
    expect_identical(threaded.cells[i].cell.summary,
                     serial.cells[i].cell.summary);
  }
}

TEST(AdaptiveRace, RepeatedThreadedRunsAreStable) {
  // Same sweep, several threaded executions: any schedule-dependent fold
  // would eventually disagree with the first run.
  SweepGrid grid;
  grid.axis("nu", {0.2, 0.4});
  grid.axis("p", {0.01, 0.04});

  AdaptiveOptions adaptive;
  adaptive.min_seeds = 2;
  adaptive.batch = 3;
  adaptive.max_seeds = 8;
  adaptive.half_width = 0.0;

  const auto reference = run_sweep_adaptive(
      grid, race_builder(), {.violation_t = 4, .threads = 6}, adaptive,
      withhold);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto rerun = run_sweep_adaptive(
        grid, race_builder(), {.violation_t = 4, .threads = 6}, adaptive,
        withhold);
    ASSERT_EQ(rerun.cells.size(), reference.cells.size());
    for (std::size_t i = 0; i < reference.cells.size(); ++i) {
      EXPECT_EQ(rerun.cells[i].violations, reference.cells[i].violations);
      expect_identical(rerun.cells[i].cell.summary,
                       reference.cells[i].cell.summary);
    }
  }
}

}  // namespace
}  // namespace neatbound::exp
