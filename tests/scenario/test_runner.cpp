#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bounds/zhao.hpp"
#include "scenario/report.hpp"
#include "sim/strategies.hpp"
#include "support/contracts.hpp"
#include "support/table.hpp"

namespace neatbound::scenario {
namespace {

/// Captures the section/row stream for assertions.
class RecordingSink final : public exp::ResultSink {
 public:
  struct Section {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  void begin_section(const std::string& name,
                     const std::vector<std::string>& headers) override {
    sections.push_back({name, headers, {}});
  }
  void add_row(const std::vector<std::string>& cells) override {
    sections.back().rows.push_back(cells);
  }
  void finish() override { finished = true; }

  std::vector<Section> sections;
  bool finished = false;
};

constexpr const char* kMiniSweep = R"json({
  "name": "mini_sweep",
  "engine": {"miners": 16, "delta": 2, "rounds": 400},
  "axes": [
    {"name": "nu", "values": [0.15, 0.3]},
    {"name": "multiple", "values": [0.5, 2.0]}
  ],
  "hardness": {"mode": "neat-bound-multiple"},
  "seeds": 2,
  "violation_t": 8,
  "adversary": {"strategy": "private-withhold"},
  "network": {"model": "strategy"},
  "report": {
    "section_by": "nu",
    "section_label": "nu = {nu:2}   (neat bound: c > {bound:3})",
    "columns": [
      {"header": "nu", "value": "nu", "decimals": 2},
      {"header": "c", "value": "c", "decimals": 3},
      {"header": "c/bound", "value": "multiple", "decimals": 2},
      {"header": "mean violation depth", "value": "violation_depth.mean",
       "decimals": 1},
      {"header": "chain quality", "value": "chain_quality.mean",
       "decimals": 3}
    ]
  }
})json";

ScenarioRunOptions with_threads(unsigned threads) {
  ScenarioRunOptions options;
  options.threads = threads;
  return options;
}

void expect_stats_equal(const stats::RunningStats& a,
                        const stats::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(ScenarioRunner, BitIdenticalToHandWrittenSweep) {
  // The scenario pipeline against a sweep written out by hand: same
  // grid, same config arithmetic, the strategy constructed directly
  // rather than through the registry — every aggregate and every folded
  // work counter must match bit for bit (single-threaded both sides).
  const ScenarioSpec spec = parse_scenario(kMiniSweep);
  const std::vector<exp::SweepCell> scenario_cells =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(1));

  exp::SweepGrid grid;
  grid.axis("nu", {0.15, 0.3});
  grid.axis("multiple", {0.5, 2.0});
  const auto build = [](const exp::GridPoint& point) {
    const double nu = point.value("nu");
    const double c = bounds::neat_bound_c(nu) * point.value("multiple");
    sim::ExperimentConfig config;
    config.engine.miner_count = 16;
    config.engine.adversary_fraction = nu;
    config.engine.delta = 2;
    config.engine.p = 1.0 / (c * 16.0 * 2.0);
    config.engine.rounds = 400;
    config.seeds = 2;
    return config;
  };
  const std::vector<exp::SweepCell> hand_cells = exp::run_sweep(
      grid, build, {.violation_t = 8, .threads = 1},
      [](const sim::EngineConfig&) {
        return std::make_unique<sim::PrivateWithholdAdversary>();
      });

  ASSERT_EQ(scenario_cells.size(), hand_cells.size());
  for (std::size_t i = 0; i < hand_cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(scenario_cells[i].config.engine.p,
              hand_cells[i].config.engine.p);
    const sim::ExperimentSummary& a = scenario_cells[i].summary;
    const sim::ExperimentSummary& b = hand_cells[i].summary;
    expect_stats_equal(a.convergence_opportunities,
                       b.convergence_opportunities);
    expect_stats_equal(a.adversary_blocks, b.adversary_blocks);
    expect_stats_equal(a.honest_blocks, b.honest_blocks);
    expect_stats_equal(a.violation_depth, b.violation_depth);
    expect_stats_equal(a.max_reorg_depth, b.max_reorg_depth);
    expect_stats_equal(a.max_divergence, b.max_divergence);
    expect_stats_equal(a.disagreement_rounds, b.disagreement_rounds);
    expect_stats_equal(a.chain_growth, b.chain_growth);
    expect_stats_equal(a.chain_quality, b.chain_quality);
    expect_stats_equal(a.best_height, b.best_height);
    expect_stats_equal(a.violation_exceeds_t, b.violation_exceeds_t);
    EXPECT_EQ(a.telemetry.counters, b.telemetry.counters);
    EXPECT_EQ(a.telemetry.runs, b.telemetry.runs);
  }
}

TEST(ScenarioRunner, ParallelMatchesSerial) {
  const ScenarioSpec spec = parse_scenario(kMiniSweep);
  const auto serial =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(1));
  const auto parallel =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(4));
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_stats_equal(serial[i].summary.violation_depth,
                       parallel[i].summary.violation_depth);
    expect_stats_equal(serial[i].summary.chain_quality,
                       parallel[i].summary.chain_quality);
  }
}

TEST(ScenarioRunner, AdaptivePathWithoutBlockMatchesPlainRun) {
  // No "adaptive" block: the adaptive path resolves to the fixed-budget
  // degenerate schedule and must reproduce run_scenario bit for bit —
  // what makes --checkpoint safe on any spec.
  const ScenarioSpec spec = parse_scenario(kMiniSweep);
  const exp::AdaptiveOptions resolved = resolve_adaptive_options(spec, {});
  EXPECT_EQ(resolved.min_seeds, spec.seeds);
  EXPECT_EQ(resolved.batch, spec.seeds);
  EXPECT_EQ(resolved.max_seeds, spec.seeds);
  EXPECT_DOUBLE_EQ(resolved.half_width, 0.0);

  const auto plain =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(2));
  const auto adaptive = run_scenario_adaptive(
      spec, ScenarioRegistry::builtin(), with_threads(2));
  ASSERT_TRUE(adaptive.complete);
  EXPECT_EQ(adaptive.waves, 1u);
  ASSERT_EQ(adaptive.cells.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(adaptive.cells[i].seeds_used, spec.seeds);
    EXPECT_FALSE(adaptive.cells[i].stopped_early);
    expect_stats_equal(adaptive.cells[i].cell.summary.violation_depth,
                       plain[i].summary.violation_depth);
    expect_stats_equal(adaptive.cells[i].cell.summary.chain_quality,
                       plain[i].summary.chain_quality);
    expect_stats_equal(adaptive.cells[i].cell.summary.violation_exceeds_t,
                       plain[i].summary.violation_exceeds_t);
  }
}

TEST(ScenarioRunner, AdaptiveBlockDrivesSeedAllocation) {
  ScenarioSpec spec = parse_scenario(kMiniSweep);
  spec.adaptive = AdaptiveSpec{.min_seeds = 2,
                               .batch = 2,
                               .max_seeds = 8,
                               .half_width = 0.4,
                               .confidence = 0.95};
  const auto result = run_scenario_adaptive(
      spec, ScenarioRegistry::builtin(), with_threads(4));
  ASSERT_TRUE(result.complete);
  std::uint64_t total = 0;
  for (const exp::AdaptiveCell& cell : result.cells) {
    EXPECT_GE(cell.seeds_used, 2u);
    EXPECT_LE(cell.seeds_used, 8u);
    EXPECT_LE(cell.ci.lo, cell.ci.hi);
    total += cell.seeds_used;
  }
  EXPECT_EQ(total, result.engine_runs);
}

TEST(ScenarioRunner, SeedsOverrideCapsAdaptiveBudget) {
  ScenarioSpec spec = parse_scenario(kMiniSweep);
  spec.adaptive = AdaptiveSpec{.min_seeds = 4,
                               .batch = 4,
                               .max_seeds = 64,
                               .half_width = 0.05,
                               .confidence = 0.95};
  SpecOverrides overrides;
  overrides.seeds = 3;
  apply_overrides(spec, overrides);
  EXPECT_EQ(spec.adaptive->max_seeds, 3u);
  EXPECT_EQ(spec.adaptive->min_seeds, 3u);
  EXPECT_EQ(spec.adaptive->batch, 3u);

  // A zero budget is the spec reader's error, fixed or adaptive.
  overrides.seeds = 0;
  EXPECT_THROW(apply_overrides(spec, overrides), std::runtime_error);
  ScenarioSpec fixed = parse_scenario(kMiniSweep);
  EXPECT_THROW(apply_overrides(fixed, overrides), std::runtime_error);
}

TEST(ScenarioRunner, ResumeRejectsCheckpointFromDifferentComponents) {
  // The engine configs of two specs can be identical while the registry
  // wires entirely different adversaries/networks — the component
  // identity must be part of the checkpoint fingerprint.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       "neatbound_component_fingerprint.json").string();
  std::filesystem::remove(path);

  ScenarioSpec spec = parse_scenario(kMiniSweep);
  ScenarioRunOptions options = with_threads(2);
  options.checkpoint_path = path;
  (void)run_scenario_adaptive(spec, ScenarioRegistry::builtin(), options);

  ScenarioSpec other = parse_scenario(kMiniSweep);
  other.adversary.kind = "max-delay";  // same engine configs, other attacker
  options.resume = true;
  EXPECT_THROW((void)run_scenario_adaptive(
                   other, ScenarioRegistry::builtin(), options),
               std::runtime_error);

  // The unchanged spec still resumes.
  EXPECT_NO_THROW((void)run_scenario_adaptive(
      spec, ScenarioRegistry::builtin(), options));
  std::filesystem::remove(path);
}

TEST(ScenarioRunner, AdaptiveReportAppendsVerdictColumns) {
  ScenarioSpec spec = parse_scenario(kMiniSweep);
  spec.adaptive = AdaptiveSpec{.min_seeds = 2,
                               .batch = 2,
                               .max_seeds = 4,
                               .half_width = 0.0,
                               .confidence = 0.95};
  spec.report.columns.clear();  // default columns gain the verdict trio
  spec.report.section_by.clear();
  spec.report.section_label.clear();
  const auto result = run_scenario_adaptive(
      spec, ScenarioRegistry::builtin(), with_threads(2));
  RecordingSink sink;
  render_adaptive_report(spec, result.cells, sink);
  ASSERT_EQ(sink.sections.size(), 1u);
  const auto& headers = sink.sections[0].headers;
  ASSERT_GE(headers.size(), 3u);
  EXPECT_EQ(headers[headers.size() - 3], "seeds used");
  EXPECT_EQ(headers[headers.size() - 2], "ci low");
  EXPECT_EQ(headers[headers.size() - 1], "ci high");
  for (const auto& row : sink.sections[0].rows) {
    EXPECT_EQ(row[row.size() - 3], "4");  // half_width 0 → full budget
  }
  // The verdict names only resolve for adaptive cells.
  const auto plain =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(2));
  const CellContext context(spec, plain[0]);
  EXPECT_THROW((void)context.value("seeds_used"), std::runtime_error);
}

TEST(ScenarioRunner, RendersBenchStyleSections) {
  const ScenarioSpec spec = parse_scenario(kMiniSweep);
  const auto cells =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(0));
  RecordingSink sink;
  render_report(spec, cells, sink);

  ASSERT_EQ(sink.sections.size(), 2u);  // one per nu value
  const double bound_015 = bounds::neat_bound_c(0.15);
  EXPECT_EQ(sink.sections[0].name,
            "nu = 0.15   (neat bound: c > " + format_fixed(bound_015, 3) +
                ")");
  ASSERT_EQ(sink.sections[0].rows.size(), 2u);  // one per multiple
  ASSERT_EQ(sink.sections[0].headers.size(), 5u);
  // Row cells reproduce the bench's formatting calls exactly.
  EXPECT_EQ(sink.sections[0].rows[0][0], "0.15");
  EXPECT_EQ(sink.sections[0].rows[0][1],
            format_fixed(bound_015 * 0.5, 3));
  EXPECT_EQ(sink.sections[0].rows[0][2], "0.50");
  EXPECT_EQ(sink.sections[1].rows[1][2], "2.00");
  EXPECT_FALSE(sink.finished);  // render_report leaves finish to the caller
}

TEST(ScenarioRunner, DefaultColumnsCoverAxesAndCoreStats) {
  const ScenarioSpec spec = parse_scenario(
      R"({"name": "d", "engine": {"miners": 8, "nu": 0.25, "delta": 2,
          "rounds": 120, "p": 0.02},
          "axes": [{"name": "delta", "values": [1, 2]}], "seeds": 1,
          "adversary": {"strategy": "max-delay"}})");
  const auto cells =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(1));
  RecordingSink sink;
  render_report(spec, cells, sink);
  ASSERT_EQ(sink.sections.size(), 1u);
  EXPECT_EQ(sink.sections[0].name, "");  // unsectioned
  EXPECT_EQ(sink.sections[0].rows.size(), 2u);
  // First column is the axis.
  EXPECT_EQ(sink.sections[0].headers[0], "delta");
  EXPECT_EQ(sink.sections[0].rows[0][0], "1.0000");
  EXPECT_EQ(sink.sections[0].rows[1][0], "2.0000");
}

TEST(ScenarioRunner, OverridesReplaceEngineDefaults) {
  ScenarioSpec spec = parse_scenario(kMiniSweep);
  SpecOverrides overrides;
  overrides.miners = 12;
  overrides.rounds = 100;
  overrides.seeds = 1;
  overrides.base_seed = 777;
  apply_overrides(spec, overrides);
  EXPECT_EQ(spec.miners, 12u);
  EXPECT_EQ(spec.rounds, 100u);
  EXPECT_EQ(spec.seeds, 1u);
  EXPECT_EQ(spec.base_seed, 777u);

  const exp::SweepGrid grid = build_grid(spec);
  const sim::ExperimentConfig config = build_config(spec, grid.point(0));
  EXPECT_EQ(config.engine.miner_count, 12u);
  EXPECT_EQ(config.engine.rounds, 100u);
  EXPECT_EQ(config.seeds, 1u);
  EXPECT_EQ(config.base_seed, 777u);
  // The nu axis still wins over any default.
  EXPECT_DOUBLE_EQ(config.engine.adversary_fraction, 0.15);
}

TEST(ScenarioRunner, HardnessModeCMatchesFormula) {
  const ScenarioSpec spec = parse_scenario(
      R"({"name": "c-mode", "engine": {"miners": 20, "nu": 0.2, "delta": 4,
          "rounds": 200},
          "axes": [{"name": "c", "values": [0.5, 2.0]}],
          "hardness": {"mode": "c"}, "seeds": 1})");
  const exp::SweepGrid grid = build_grid(spec);
  const sim::ExperimentConfig config = build_config(spec, grid.point(1));
  EXPECT_EQ(config.engine.p, 1.0 / (2.0 * 20.0 * 4.0));
}

TEST(ScenarioRunner, InvalidEngineParametersFailFast) {
  // ν ≥ 1/2 (covers ν ≥ 1) rejected by validate_engine_config before any
  // engine run spawns.
  const ScenarioSpec bad_nu = parse_scenario(
      R"({"name": "bad", "engine": {"miners": 8, "nu": 0.8, "delta": 2,
          "rounds": 100, "p": 0.01}, "seeds": 1})");
  EXPECT_THROW(
      (void)run_scenario(bad_nu, ScenarioRegistry::builtin(), with_threads(1)),
      ContractViolation);

  const ScenarioSpec bad_p = parse_scenario(
      R"({"name": "bad", "engine": {"miners": 8, "nu": 0.2, "delta": 2,
          "rounds": 100, "p": 1.5}, "seeds": 1})");
  EXPECT_THROW(
      (void)run_scenario(bad_p, ScenarioRegistry::builtin(), with_threads(1)),
      ContractViolation);

  // Δ = 0 makes the derived p = 1/(c·n·Δ) infinite; the error must blame
  // delta, which the user set, not p, which they never did.
  const ScenarioSpec bad_delta = parse_scenario(
      R"({"name": "bad", "engine": {"miners": 8, "nu": 0.2, "delta": 0,
          "rounds": 100}, "hardness": {"mode": "neat-bound-multiple"},
          "seeds": 1})");
  try {
    (void)run_scenario(bad_delta, ScenarioRegistry::builtin(),
                       with_threads(1));
    ADD_FAILURE() << "delta = 0 accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("delta must be >= 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioRunner, HardnessColumnCRendersAtNuZero) {
  // "c" needs no neat bound under fixed or c hardness, so nu = 0 renders.
  // At p = 1e-300, c = 1/(p·n·Δ) ≈ 2.5e299 prints all of its 300
  // integer digits.
  const ScenarioSpec fixed = parse_scenario(
      R"({"name": "x", "engine": {"miners": 4, "nu": 0, "delta": 1,
          "rounds": 10, "p": 1e-300}, "seeds": 1,
          "report": {"columns": [{"value": "c", "decimals": 2}]}})");
  RecordingSink sink;
  render_report(
      fixed, run_scenario(fixed, ScenarioRegistry::builtin(), with_threads(1)),
      sink);
  const std::string cell = sink.sections.at(0).rows.at(0).at(0);
  EXPECT_EQ(cell.size(), 303u) << cell;
  EXPECT_EQ(cell.rfind("2499999", 0), 0u) << cell;
  EXPECT_EQ(cell.substr(300), ".00");

  const ScenarioSpec c_mode = parse_scenario(
      R"({"name": "x", "engine": {"miners": 4, "nu": 0, "delta": 1,
          "rounds": 10}, "hardness": {"mode": "c", "c": 2}, "seeds": 1,
          "report": {"columns": [{"value": "c", "decimals": 1}]}})");
  RecordingSink c_sink;
  render_report(
      c_mode,
      run_scenario(c_mode, ScenarioRegistry::builtin(), with_threads(1)),
      c_sink);
  EXPECT_EQ(c_sink.sections.at(0).rows.at(0).at(0), "2.0");
}

TEST(ScenarioRunner, NuOverrideMeetsTheNeatBoundCheck) {
  ScenarioSpec spec = parse_scenario(kMiniSweep);
  spec.axes.erase(spec.axes.begin());  // drop the nu axis
  SpecOverrides overrides;
  overrides.nu = 0.0;
  try {
    apply_overrides(spec, overrides);
    ADD_FAILURE() << "nu = 0 accepted under neat-bound-multiple";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("hardness: ", 0), 0u) << e.what();
  }
}

TEST(ScenarioRunner, UnknownComponentFailsBeforeRunning) {
  const ScenarioSpec spec = parse_scenario(
      R"({"name": "x", "engine": {"miners": 8, "nu": 0.2, "delta": 2,
          "rounds": 100, "p": 0.01}, "seeds": 1,
          "adversary": {"strategy": "nonexistent"}})");
  EXPECT_THROW(
      (void)run_scenario(spec, ScenarioRegistry::builtin(), with_threads(1)),
      std::runtime_error);
}

TEST(ScenarioRunner, UnknownReportValueNamesTheCategories) {
  const ScenarioSpec spec = parse_scenario(
      R"({"name": "x", "engine": {"miners": 8, "nu": 0.2, "delta": 2,
          "rounds": 100, "p": 0.02}, "seeds": 1,
          "report": {"columns": [{"value": "wat"}]}})");
  const auto cells =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(1));
  RecordingSink sink;
  EXPECT_THROW(render_report(spec, cells, sink), std::runtime_error);
}

TEST(ScenarioRunner, LabelTemplateEscapesAndPrecision) {
  const ScenarioSpec spec = parse_scenario(
      R"({"name": "x", "engine": {"miners": 8, "nu": 0.25, "delta": 2,
          "rounds": 100, "p": 0.02}, "seeds": 1})");
  const auto cells =
      run_scenario(spec, ScenarioRegistry::builtin(), with_threads(1));
  const CellContext context(spec, cells[0]);
  EXPECT_EQ(format_label("nu={nu:2} {{braces}}", context),
            "nu=0.25 {braces}");
  EXPECT_EQ(format_label("p6={nu}", context), "p6=0.250000");
  EXPECT_THROW((void)format_label("broken {nu", context),
               std::runtime_error);
  EXPECT_THROW((void)format_label("{nu:x}", context), std::runtime_error);
}

}  // namespace
}  // namespace neatbound::scenario
