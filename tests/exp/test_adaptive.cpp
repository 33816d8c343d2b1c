#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exp/adaptive.hpp"
#include "exp/grid.hpp"
#include "sim/runner.hpp"
#include "sim/strategies.hpp"

namespace neatbound::exp {
namespace {

sim::ExperimentConfig cell_config(double nu, double p, std::uint32_t seeds) {
  sim::ExperimentConfig config;
  config.engine.miner_count = 12;
  config.engine.adversary_fraction = nu;
  config.engine.p = p;
  config.engine.delta = 2;
  config.engine.rounds = 700;
  config.seeds = seeds;
  config.base_seed = 9000;
  return config;
}

std::unique_ptr<sim::Adversary> withhold(const sim::EngineConfig&) {
  return std::make_unique<sim::PrivateWithholdAdversary>();
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
  EXPECT_DOUBLE_EQ(a.chain_growth.mean(), b.chain_growth.mean());
  EXPECT_DOUBLE_EQ(a.chain_quality.mean(), b.chain_quality.mean());
  EXPECT_DOUBLE_EQ(a.violation_exceeds_t.mean(),
                   b.violation_exceeds_t.mean());
}

SweepGrid two_by_two() {
  SweepGrid grid;
  grid.axis("nu", {0.2, 0.35});
  grid.axis("p", {0.01, 0.03});
  return grid;
}

ConfigBuilder builder(std::uint32_t seeds) {
  return [seeds](const GridPoint& point) {
    return cell_config(point.value("nu"), point.value("p"), seeds);
  };
}

/// The degenerate schedule (min = batch = max, no early stopping) is the
/// plain fixed-budget sweep, bit for bit — the property that lets the
/// checkpoint path host non-adaptive runs.
TEST(AdaptiveSweep, FixedBudgetDegenerateMatchesPlainSweep) {
  const SweepGrid grid = two_by_two();
  AdaptiveOptions adaptive;
  adaptive.min_seeds = adaptive.batch = adaptive.max_seeds = 3;
  adaptive.half_width = 0.0;

  const auto plain =
      run_sweep(grid, builder(3), {.violation_t = 5, .threads = 2}, withhold);
  const auto result = run_sweep_adaptive(
      grid, builder(3), {.violation_t = 5, .threads = 2}, adaptive, withhold);

  ASSERT_EQ(result.cells.size(), plain.size());
  EXPECT_EQ(result.waves, 1u);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.engine_runs, 4u * 3u);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(result.cells[i].seeds_used, 3u);
    EXPECT_FALSE(result.cells[i].stopped_early);
    expect_identical(result.cells[i].cell.summary, plain[i].summary);
  }
}

/// The truncation identity: a cell that stopped after m seeds carries
/// exactly the summary a fixed budget of m seeds produces.  (The result
/// cell's config.seeds is rewritten to m, so run_experiment on it IS the
/// fixed-budget run.)
TEST(AdaptiveSweep, StoppedCellBitIdenticalToTruncatedFixedBudget) {
  const SweepGrid grid = two_by_two();
  AdaptiveOptions adaptive;
  adaptive.min_seeds = 2;
  adaptive.batch = 2;
  adaptive.max_seeds = 10;
  adaptive.half_width = 0.35;  // loose target: some cells stop early

  const auto result = run_sweep_adaptive(
      grid, builder(10), {.violation_t = 5, .threads = 4}, adaptive, withhold);

  bool some_stopped_early = false;
  for (const AdaptiveCell& cell : result.cells) {
    ASSERT_GE(cell.seeds_used, adaptive.min_seeds);
    ASSERT_LE(cell.seeds_used, adaptive.max_seeds);
    some_stopped_early |= cell.stopped_early;
    EXPECT_EQ(cell.cell.config.seeds, cell.seeds_used);
    expect_identical(sim::run_experiment(cell.cell.config, 5, withhold),
                     cell.cell.summary);
    // The Wilson interval matches the recorded violation count.
    const auto ci =
        stats::wilson_interval(cell.violations, cell.seeds_used,
                               stats::z_for_confidence(0.95));
    EXPECT_DOUBLE_EQ(cell.ci.lo, ci.lo);
    EXPECT_DOUBLE_EQ(cell.ci.hi, ci.hi);
  }
  EXPECT_TRUE(some_stopped_early);
}

TEST(AdaptiveSweep, SerialAndParallelBitIdentical) {
  const SweepGrid grid = two_by_two();
  AdaptiveOptions adaptive;
  adaptive.min_seeds = 2;
  adaptive.batch = 3;
  adaptive.max_seeds = 8;
  adaptive.half_width = 0.3;

  const auto serial = run_sweep_adaptive(
      grid, builder(8), {.violation_t = 5, .threads = 1}, adaptive, withhold);
  const auto pooled = run_sweep_adaptive(
      grid, builder(8), {.violation_t = 5, .threads = 4}, adaptive, withhold);

  ASSERT_EQ(serial.cells.size(), pooled.cells.size());
  EXPECT_EQ(serial.engine_runs, pooled.engine_runs);
  EXPECT_EQ(serial.waves, pooled.waves);
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].seeds_used, pooled.cells[i].seeds_used);
    EXPECT_EQ(serial.cells[i].violations, pooled.cells[i].violations);
    EXPECT_EQ(serial.cells[i].stopped_early, pooled.cells[i].stopped_early);
    expect_identical(serial.cells[i].cell.summary,
                     pooled.cells[i].cell.summary);
  }
}

/// Tightening the half-width target never schedules fewer seeds: the
/// stopping decision is monotone in the target.
TEST(AdaptiveSweep, SeedsUsedMonotoneInHalfWidthTarget) {
  SweepGrid grid;
  grid.axis("nu", {0.35});
  grid.axis("p", {0.03});
  std::uint32_t previous = 0;
  for (const double target : {0.5, 0.35, 0.2, 0.1, 0.0}) {
    AdaptiveOptions adaptive;
    adaptive.min_seeds = 2;
    adaptive.batch = 2;
    adaptive.max_seeds = 12;
    adaptive.half_width = target;  // 0.0 = never stop early → max budget
    const auto result =
        run_sweep_adaptive(grid, builder(12), {.violation_t = 5, .threads = 2},
                           adaptive, withhold);
    ASSERT_EQ(result.cells.size(), 1u);
    EXPECT_GE(result.cells[0].seeds_used, previous);
    previous = result.cells[0].seeds_used;
  }
  EXPECT_EQ(previous, 12u);  // target 0 ran the whole budget
}

TEST(AdaptiveSweep, RejectsBadOptions) {
  SweepGrid grid;
  grid.axis("nu", {0.2});
  AdaptiveOptions bad;
  bad.min_seeds = 5;
  bad.max_seeds = 3;
  EXPECT_ANY_THROW((void)run_sweep_adaptive(
      grid, builder(3), {.violation_t = 5, .threads = 1}, bad, withhold));
  bad = {};
  bad.batch = 0;
  EXPECT_ANY_THROW((void)run_sweep_adaptive(
      grid, builder(3), {.violation_t = 5, .threads = 1}, bad, withhold));
  bad = {};
  bad.confidence = 1.0;
  EXPECT_ANY_THROW((void)run_sweep_adaptive(
      grid, builder(3), {.violation_t = 5, .threads = 1}, bad, withhold));
}

SweepGrid frontier_grid() {
  SweepGrid grid;
  grid.axis("nu", {0.35});
  grid.axis("p", {0.002, 0.06});  // quiet → violent violation estimates
  return grid;
}

TEST(Frontier, LocalizesACrossingToTolerance) {
  AdaptiveOptions adaptive;
  adaptive.min_seeds = 3;
  adaptive.batch = 3;
  adaptive.max_seeds = 6;
  adaptive.half_width = 0.0;
  FrontierOptions frontier;
  frontier.axis = "p";
  frontier.threshold = 0.5;
  frontier.tolerance = 0.01;

  const FrontierResult result = localize_frontier(
      frontier_grid(), builder(6), {.violation_t = 4, .threads = 4},
      adaptive, frontier, withhold);

  ASSERT_EQ(result.rows.size(), 1u);
  const FrontierRow& row = result.rows[0];
  ASSERT_TRUE(row.bracketed);
  EXPECT_GE(row.lo, 0.002);
  EXPECT_LE(row.hi, 0.06);
  EXPECT_LE(row.hi - row.lo, frontier.tolerance);
  // The bracket ends still classify to opposite sides of the threshold.
  EXPECT_NE(row.estimate_lo >= frontier.threshold,
            row.estimate_hi >= frontier.threshold);
  EXPECT_GT(row.refine_runs, 0u);
  EXPECT_EQ(result.engine_runs,
            result.coarse.engine_runs + row.refine_runs);
  // The whole point: cheaper than the dense grid at the same resolution.
  EXPECT_LT(result.engine_runs, result.dense_equivalent_runs);
}

TEST(Frontier, DeterministicAcrossThreadCounts) {
  AdaptiveOptions adaptive;
  adaptive.min_seeds = 3;
  adaptive.batch = 3;
  adaptive.max_seeds = 3;
  adaptive.half_width = 0.0;
  FrontierOptions frontier;
  frontier.axis = "p";
  frontier.threshold = 0.5;
  frontier.tolerance = 0.02;

  const FrontierResult serial = localize_frontier(
      frontier_grid(), builder(3), {.violation_t = 4, .threads = 1},
      adaptive, frontier, withhold);
  const FrontierResult pooled = localize_frontier(
      frontier_grid(), builder(3), {.violation_t = 4, .threads = 4},
      adaptive, frontier, withhold);
  ASSERT_EQ(serial.rows.size(), pooled.rows.size());
  EXPECT_EQ(serial.engine_runs, pooled.engine_runs);
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.rows[i].lo, pooled.rows[i].lo);
    EXPECT_DOUBLE_EQ(serial.rows[i].hi, pooled.rows[i].hi);
    EXPECT_DOUBLE_EQ(serial.rows[i].estimate_lo, pooled.rows[i].estimate_lo);
    EXPECT_DOUBLE_EQ(serial.rows[i].estimate_hi, pooled.rows[i].estimate_hi);
  }
}

TEST(Frontier, NoCrossingReportsUnbracketedRow) {
  AdaptiveOptions adaptive;
  adaptive.min_seeds = 2;
  adaptive.batch = 2;
  adaptive.max_seeds = 2;
  adaptive.half_width = 0.0;
  FrontierOptions frontier;
  frontier.axis = "p";
  frontier.threshold = 1.5;  // phat can never reach it
  frontier.tolerance = 0.02;

  const FrontierResult result = localize_frontier(
      frontier_grid(), builder(2), {.violation_t = 4, .threads = 2},
      adaptive, frontier, withhold);
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_FALSE(result.rows[0].bracketed);
  EXPECT_EQ(result.rows[0].refine_runs, 0u);
  EXPECT_EQ(result.engine_runs, result.coarse.engine_runs);
}

TEST(Frontier, RejectsUnknownAxisAndBadTolerance) {
  AdaptiveOptions adaptive;
  adaptive.min_seeds = adaptive.batch = adaptive.max_seeds = 2;
  adaptive.half_width = 0.0;
  FrontierOptions frontier;
  frontier.axis = "missing";
  EXPECT_THROW((void)localize_frontier(frontier_grid(), builder(2),
                                       {.violation_t = 4, .threads = 1},
                                       adaptive, frontier, withhold),
               std::invalid_argument);
  // std::string move-assign sidesteps a GCC 12 -Wrestrict false positive
  // on const char* reassignment (same workaround as markov/chain.cpp).
  frontier.axis = std::string("p");
  frontier.tolerance = 0.0;
  EXPECT_THROW((void)localize_frontier(frontier_grid(), builder(2),
                                       {.violation_t = 4, .threads = 1},
                                       adaptive, frontier, withhold),
               std::invalid_argument);
}

}  // namespace
}  // namespace neatbound::exp
