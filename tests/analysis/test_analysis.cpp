#include <cmath>
#include <gtest/gtest.h>

#include "analysis/figure1.hpp"
#include "analysis/tables.hpp"
#include "analysis/validation.hpp"

namespace neatbound::analysis {
namespace {

TEST(Figure1, GridContainsPaperTicks) {
  const auto grid = figure1_c_grid();
  for (const double tick : {0.1, 0.3, 1.0, 2.0, 3.0, 10.0, 30.0, 100.0}) {
    bool found = false;
    for (const double c : grid) {
      if (std::fabs(c - tick) < 1e-9 * tick) found = true;
    }
    EXPECT_TRUE(found) << "missing tick " << tick;
  }
  // Sorted, deduplicated.
  for (std::size_t i = 1; i < grid.size(); ++i) {
    EXPECT_GT(grid[i], grid[i - 1]);
  }
}

TEST(Figure1, SeriesReproducesPaperOrdering) {
  const std::vector<double> cs = {0.1, 0.3, 1.0, 2.0, 3.0, 10.0, 30.0, 100.0};
  const auto rows = figure1_series(cs);
  ASSERT_EQ(rows.size(), cs.size());
  for (const auto& row : rows) {
    // Magenta strictly above blue (the paper's key claim)…
    EXPECT_GT(row.nu_zhao_neat, row.nu_pss) << "c=" << row.c;
    // …and strictly below the attack frontier (no contradiction).
    EXPECT_LT(row.nu_zhao_neat, row.nu_attack) << "c=" << row.c;
    // Theorem 1 exact ≥ the neat bound derived from it.
    EXPECT_GE(row.nu_zhao_theorem1, row.nu_zhao_theorem2 * (1.0 - 1e-6))
        << "c=" << row.c;
    // All values in [0, ½).
    EXPECT_GE(row.nu_zhao_neat, 0.0);
    EXPECT_LT(row.nu_attack, 0.5);
  }
}

TEST(Figure1, KnownPointsAtC2AndC3) {
  // Checkable by hand from the closed forms: at c = 3 the blue line is
  // (2−3+√3)/2 ≈ 0.366; the red line is (7−√37)/2 ≈ 0.4586.
  const std::vector<double> cs = {3.0};
  const auto rows = figure1_series(cs);
  EXPECT_NEAR(rows[0].nu_pss, (std::sqrt(3.0) - 1.0) / 2.0, 1e-9);
  EXPECT_NEAR(rows[0].nu_attack, (7.0 - std::sqrt(37.0)) / 2.0, 1e-9);
  // Magenta at c = 3: solve 2(1−ν)/ln((1−ν)/ν) = 3 → ν ≈ 0.4016 (between
  // blue 0.366 and red 0.459); spot check: 2·0.6/ln(0.6/0.4) ≈ 2.96 ≈ 3.
  EXPECT_NEAR(rows[0].nu_zhao_neat, 0.4016, 2e-3);
}

TEST(Figure1, PssExactTracksClosedForm) {
  const std::vector<double> cs = {3.0, 10.0, 50.0};
  const auto rows = figure1_series(cs);
  for (const auto& row : rows) {
    EXPECT_NEAR(row.nu_pss_exact, row.nu_pss,
                std::max(0.002, row.nu_pss * 0.02))
        << "c=" << row.c;
  }
}

TEST(DerivedQuantities, RowReflectsParams) {
  const auto params = bounds::ProtocolParams::from_c(1e5, 1e13, 0.25, 2.0);
  const DerivedQuantitiesRow row = derived_quantities(params);
  EXPECT_NEAR(row.c, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(row.mu, 0.75);
  EXPECT_LT(row.log_alpha_bar, 0.0);
  EXPECT_TRUE(std::isfinite(row.theorem1_log_margin));
  // At ν = 0.25, c = 2: neat bound ≈ 1.365 < 2 → Theorem 1 and 2 hold;
  // PSS needs c > 2.25 → fails.
  EXPECT_TRUE(row.theorem1_ok);
  EXPECT_TRUE(row.theorem2_ok);
  EXPECT_FALSE(row.pss_ok);
}

TEST(DerivedQuantities, RepresentativePointsNonEmpty) {
  const auto points = representative_points();
  EXPECT_GE(points.size(), 4u);
  for (const auto& p : points) {
    const auto row = derived_quantities(p);
    EXPECT_GT(row.c, 0.0);
  }
}

TEST(Remark1Rows, PaperPairsPresent) {
  const auto rows = remark1_rows();
  ASSERT_GE(rows.size(), 2u);
  EXPECT_NEAR(rows[0].d1, 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(rows[0].d2, 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(rows[1].d1, 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(rows[1].d2, 2.0 / 3.0, 1e-12);
  for (const auto& row : rows) {
    EXPECT_GT(row.c_threshold, row.c_neat);
    EXPECT_LT((row.c_threshold - row.c_neat) / row.c_neat, 0.01);
  }
}

TEST(Validation, ConvergenceRateExactMeanWithinEdge) {
  const ConvergenceRateRow row = validate_convergence_rate(
      /*n=*/200, /*delta=*/4, /*c=*/4.0, /*nu=*/0.25, /*rounds=*/20000);
  EXPECT_GT(row.analytic_rate, 0.0);
  EXPECT_TRUE(row.within_edge)
      << row.exact_mean << " vs " << row.expected_count;
  EXPECT_NEAR(row.ratio, 1.0, 1e-3);
  // An opportunity's quiet gaps exclude H₁ rounds next to it, so C is
  // less dispersed than a Poisson count of the same mean.
  EXPECT_GT(row.exact_sd, 0.5 * std::sqrt(row.exact_mean));
  EXPECT_LT(row.exact_sd, std::sqrt(row.exact_mean));
}

TEST(Validation, StationaryComparisonAllMethodsAgree) {
  const StationaryComparisonRow row = compare_stationary(4, 0.2);
  EXPECT_TRUE(row.ergodic);
  EXPECT_NEAR(row.closed_form_sum, 1.0, 1e-12);
  EXPECT_LT(row.max_abs_err_power, 1e-9);
  EXPECT_LT(row.max_abs_err_fixed, 1e-9);
  EXPECT_LT(row.max_abs_err_walk, 0.01);
}

}  // namespace
}  // namespace neatbound::analysis
