#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace neatbound::scenario {
namespace {

constexpr const char* kFullSpec = R"({
  "name": "demo",
  "title": "a demo",
  "engine": {"miners": 24, "nu": 0.2, "delta": 4, "rounds": 5000, "p": 0.003},
  "axes": [
    {"name": "nu", "values": [0.1, 0.3]},
    {"name": "multiple", "values": [0.5, 1.0, 2.0]}
  ],
  "hardness": {"mode": "neat-bound-multiple"},
  "seeds": 3,
  "base_seed": 99,
  "violation_t": 6,
  "adversary": {"strategy": "private-withhold", "min_fork_depth": 3},
  "network": {"model": "bursty", "period": 10},
  "report": {
    "section_by": "nu",
    "section_label": "nu = {nu:2}",
    "columns": [{"header": "nu", "value": "nu", "decimals": 2},
                {"value": "violation_depth.mean"}]
  },
  "meta": {"extra": 7}
})";

TEST(Spec, ParsesEveryField) {
  const ScenarioSpec spec = parse_scenario(kFullSpec);
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.title, "a demo");
  EXPECT_EQ(spec.miners, 24u);
  EXPECT_DOUBLE_EQ(spec.nu, 0.2);
  EXPECT_EQ(spec.delta, 4u);
  EXPECT_EQ(spec.rounds, 5000u);
  EXPECT_DOUBLE_EQ(spec.p, 0.003);
  EXPECT_EQ(spec.hardness_mode, "neat-bound-multiple");
  EXPECT_EQ(spec.seeds, 3u);
  EXPECT_EQ(spec.base_seed, 99u);
  EXPECT_EQ(spec.violation_t, 6u);
  EXPECT_EQ(spec.adversary.kind, "private-withhold");
  EXPECT_EQ(spec.adversary.params.get_uint("min_fork_depth", 0), 3u);
  EXPECT_EQ(spec.network.kind, "bursty");
  EXPECT_EQ(spec.network.params.get_uint("period", 0), 10u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].name, "nu");
  EXPECT_EQ(spec.axes[1].values.size(), 3u);
  EXPECT_EQ(spec.grid_size(), 6u);
  EXPECT_TRUE(spec.has_axis("multiple"));
  EXPECT_FALSE(spec.has_axis("delta"));
  EXPECT_EQ(spec.report.section_by, "nu");
  ASSERT_EQ(spec.report.columns.size(), 2u);
  EXPECT_EQ(spec.report.columns[0].decimals, 2);
  // header defaults to the value expression; decimals default to 3.
  EXPECT_EQ(spec.report.columns[1].header, "violation_depth.mean");
  EXPECT_EQ(spec.report.columns[1].decimals, 3);
  ASSERT_EQ(spec.extra_meta.size(), 1u);
  EXPECT_EQ(spec.extra_meta[0].first, "extra");
}

TEST(Spec, MinimalSpecGetsDefaults) {
  const ScenarioSpec spec = parse_scenario(R"({"name": "tiny"})");
  EXPECT_EQ(spec.name, "tiny");
  EXPECT_EQ(spec.adversary.kind, "max-delay");
  EXPECT_EQ(spec.network.kind, "strategy");
  EXPECT_EQ(spec.hardness_mode, "fixed");
  EXPECT_EQ(spec.grid_size(), 1u);
  EXPECT_TRUE(spec.report.columns.empty());
}

TEST(Spec, RejectsUnknownKeysEverywhere) {
  EXPECT_THROW((void)parse_scenario(R"({"name": "x", "typo": 1})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario(R"({"name": "x", "engine": {"minres": 8}})"),
      std::runtime_error);
  // The retired RNG switch is an unknown key like any other.
  EXPECT_THROW(
      (void)parse_scenario(R"({"name": "x", "engine": {"rng": "legacy"}})"),
      std::runtime_error);
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "report": {"sectionby": "nu"}})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario(
          R"({"name": "x", "axes": [{"name": "a", "values": [1], "step": 2}]})"),
      std::runtime_error);
}

TEST(Spec, RejectsStructuralMistakes) {
  // name is required and non-empty
  EXPECT_THROW((void)parse_scenario(R"({})"), std::runtime_error);
  EXPECT_THROW((void)parse_scenario(R"({"name": ""})"), std::runtime_error);
  // empty axis values
  EXPECT_THROW(
      (void)parse_scenario(
          R"({"name": "x", "axes": [{"name": "a", "values": []}]})"),
      std::runtime_error);
  // duplicate axis
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "axes": [
                       {"name": "a", "values": [1]},
                       {"name": "a", "values": [2]}]})"),
               std::runtime_error);
  // zero seeds
  EXPECT_THROW((void)parse_scenario(R"({"name": "x", "seeds": 0})"),
               std::runtime_error);
  // 32-bit counts past 2^32, which a bare cast would truncate to valid
  // values (16 miners, 1 seed, adaptive 2 / 5 / 40), and count axes
  // whose values are not integers in range
  for (const char* text :
       {R"({"name": "x", "engine": {"miners": 4294967312}})",
        R"({"name": "x", "seeds": 4294967297})",
        R"({"name": "x", "adaptive": {"min_seeds": 4294967298}})",
        R"({"name": "x", "adaptive": {"batch": 4294967301}})",
        R"({"name": "x", "adaptive": {"max_seeds": 4294967336}})",
        R"({"name": "x", "axes": [{"name": "miners",
            "values": [4, 4294967312]}]})",
        R"({"name": "x", "axes": [{"name": "miners", "values": [2.5]}]})",
        R"({"name": "x", "axes": [{"name": "delta", "values": [-1]}]})",
        R"({"name": "x", "axes": [{"name": "rounds", "values": [1e300]}]})"}) {
    EXPECT_THROW((void)parse_scenario(text), std::runtime_error) << text;
  }
  // unknown hardness mode
  EXPECT_THROW(
      (void)parse_scenario(R"({"name": "x", "hardness": {"mode": "??"}})"),
      std::runtime_error);
  // hardness mode "c" without a source for c
  EXPECT_THROW(
      (void)parse_scenario(R"({"name": "x", "hardness": {"mode": "c"}})"),
      std::runtime_error);
  // section_by must be an axis and needs a label
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "report": {"section_by": "nu",
                       "section_label": "nu = {nu}"}})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario(
          R"({"name": "x", "axes": [{"name": "nu", "values": [0.1]}],
              "report": {"section_by": "nu"}})"),
      std::runtime_error);
}

TEST(Spec, ParsesAdaptiveBlock) {
  const ScenarioSpec spec = parse_scenario(R"({
    "name": "x",
    "adaptive": {"min_seeds": 2, "batch": 5, "max_seeds": 40,
                 "half_width": 0.02, "confidence": 0.99}
  })");
  ASSERT_TRUE(spec.adaptive.has_value());
  EXPECT_EQ(spec.adaptive->min_seeds, 2u);
  EXPECT_EQ(spec.adaptive->batch, 5u);
  EXPECT_EQ(spec.adaptive->max_seeds, 40u);
  EXPECT_DOUBLE_EQ(spec.adaptive->half_width, 0.02);
  EXPECT_DOUBLE_EQ(spec.adaptive->confidence, 0.99);

  // Defaults apply per key; absence of the block means no adaptivity.
  const ScenarioSpec defaults =
      parse_scenario(R"({"name": "x", "adaptive": {}})");
  ASSERT_TRUE(defaults.adaptive.has_value());
  EXPECT_EQ(defaults.adaptive->min_seeds, 4u);
  EXPECT_EQ(defaults.adaptive->max_seeds, 64u);
  EXPECT_DOUBLE_EQ(defaults.adaptive->half_width, 0.05);
  EXPECT_FALSE(parse_scenario(R"({"name": "x"})").adaptive.has_value());
}

TEST(Spec, RejectsBadAdaptiveBlocks) {
  // unknown key
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "adaptive": {"min_seed": 2}})"),
               std::runtime_error);
  // zero min_seeds / batch
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "adaptive": {"min_seeds": 0}})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario(R"({"name": "x", "adaptive": {"batch": 0}})"),
      std::runtime_error);
  // max below min
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x",
                       "adaptive": {"min_seeds": 8, "max_seeds": 4}})"),
               std::runtime_error);
  // negative half-width, confidence outside (0,1)
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "adaptive": {"half_width": -0.1}})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "adaptive": {"confidence": 1.0}})"),
               std::runtime_error);
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "adaptive": {"confidence": 0.0}})"),
               std::runtime_error);
}

TEST(Spec, ParsesOracleBlock) {
  const ScenarioSpec spec = parse_scenario(R"({
    "name": "x",
    "oracle": {
      "invariants": ["common-prefix", "chain-quality"],
      "common_prefix_t": 5,
      "quality_window": 32,
      "quality_min_ratio": 0.25,
      "slice_rounds": 16,
      "max_runs": 100
    }
  })");
  ASSERT_TRUE(spec.oracle.has_value());
  EXPECT_EQ(spec.oracle->invariants,
            (std::vector<std::string>{"common-prefix", "chain-quality"}));
  ASSERT_TRUE(spec.oracle->common_prefix_t.has_value());
  EXPECT_EQ(*spec.oracle->common_prefix_t, 5u);
  EXPECT_EQ(spec.oracle->quality_window, 32u);
  EXPECT_DOUBLE_EQ(spec.oracle->quality_min_ratio, 0.25);
  EXPECT_EQ(spec.oracle->slice_rounds, 16u);
  EXPECT_EQ(spec.oracle->max_runs, 100u);

  // Absent block: no oracle configured, T defaults happen downstream.
  EXPECT_FALSE(parse_scenario(R"({"name": "x"})").oracle.has_value());
  const ScenarioSpec defaults =
      parse_scenario(R"({"name": "x", "oracle": {}})");
  ASSERT_TRUE(defaults.oracle.has_value());
  EXPECT_EQ(defaults.oracle->invariants,
            (std::vector<std::string>{"common-prefix"}));
  EXPECT_FALSE(defaults.oracle->common_prefix_t.has_value());
}

TEST(Spec, RejectsBadOracleBlocks) {
  // Unknown invariant name, duplicates, empty list.
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "oracle": {"invariants": ["nope"]}})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario(R"({"name": "x", "oracle":
          {"invariants": ["common-prefix", "common-prefix"]}})"),
      std::runtime_error);
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "oracle": {"invariants": []}})"),
               std::runtime_error);
  // Unknown key inside the block.
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "oracle": {"slices": 4}})"),
               std::runtime_error);
  // Out-of-range window/ratio/slice parameters.
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "oracle": {"growth_window": 0}})"),
               std::runtime_error);
  EXPECT_THROW(
      (void)parse_scenario(
          R"({"name": "x", "oracle": {"quality_min_ratio": 1.5}})"),
      std::runtime_error);
  EXPECT_THROW((void)parse_scenario(
                   R"({"name": "x", "oracle": {"slice_rounds": 0}})"),
               std::runtime_error);
}

TEST(Spec, BundledScenariosParseAndValidate) {
  for (const char* file :
       {"adaptive_consistency.json", "balance_vs_forkbalancer.json",
        "bursty_partition.json", "consistency_sweep.json",
        "eclipse_targeting.json", "oracle_falsify.json",
        "uniform_jitter.json"}) {
    const std::string path =
        std::string(NEATBOUND_SCENARIO_DIR) + "/" + file;
    const ScenarioSpec spec = load_scenario_file(path);
    EXPECT_FALSE(spec.name.empty()) << file;
    EXPECT_GE(spec.grid_size(), 1u) << file;
  }
}

TEST(Spec, MirrorSpecMatchesBenchGrid) {
  const ScenarioSpec spec = load_scenario_file(
      std::string(NEATBOUND_SCENARIO_DIR) + "/consistency_sweep.json");
  // The values bench_consistency_sweep hard-codes.
  EXPECT_EQ(spec.name, "bench_consistency_sweep");
  EXPECT_EQ(spec.miners, 40u);
  EXPECT_EQ(spec.delta, 3u);
  EXPECT_EQ(spec.rounds, 30000u);
  EXPECT_EQ(spec.seeds, 6u);
  EXPECT_EQ(spec.base_seed, 12345u);
  EXPECT_EQ(spec.violation_t, 8u);
  ASSERT_EQ(spec.axes.size(), 2u);
  EXPECT_EQ(spec.axes[0].values,
            (std::vector<double>{0.15, 0.3, 0.4}));
  EXPECT_EQ(spec.axes[1].values,
            (std::vector<double>{0.4, 0.7, 1.0, 1.5, 2.5, 5.0, 10.0}));
}

}  // namespace
}  // namespace neatbound::scenario
