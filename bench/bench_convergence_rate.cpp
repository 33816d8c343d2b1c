// Eq. (26)/(44) validation: E[C(t₀, t₀+T−1)] = T·ᾱ^{2Δ}·α₁.
//
// The exact law of C over T rounds from genesis (a dynamic program over
// the convergence-opportunity automaton, chains/convergence.hpp) gives
// E[C] and sd[C]; the mean must match the analytic expectation up to the
// window's edge effect, |E[C] − T·ᾱ^{2Δ}α₁| ≤ Δ·α₁.  Swept over (Δ, c, ν).
//
// Orchestrated: each (Δ, c, ν) cell runs as one job on the shared pool
// (--threads); rows are emitted in grid order.
#include <iostream>

#include "analysis/validation.hpp"
#include "exp/bench_io.hpp"
#include "exp/grid.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const double n = args.get_double("n", 200);
  const std::uint64_t rounds = args.get_uint("rounds", 20000);
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Eq. (26)/(44) — convergence-opportunity count: exact law "
               "of C vs T*alpha_bar^(2*delta)*alpha1\n"
            << "# n=" << n << " rounds=" << rounds << '\n';

  exp::BenchReporter report("bench_convergence_rate", io);
  report.set_meta_number("n", n);
  report.set_meta_number("rounds", static_cast<double>(rounds));

  exp::SweepGrid grid;
  grid.axis("delta", {2.0, 4.0, 8.0});
  grid.axis("c", {2.0, 4.0, 8.0});
  grid.axis("nu", {0.1, 0.3});
  const auto points = grid.points();

  std::vector<analysis::ConvergenceRateRow> rows(points.size());
  parallel_for_indexed(points.size(), io.threads, [&](std::size_t i) {
    rows[i] = analysis::validate_convergence_rate(
        n, points[i].value("delta"), points[i].value("c"),
        points[i].value("nu"), rounds);
  });

  report.begin_section("", {"delta", "c", "nu", "analytic rate",
                            "expected count", "exact mean", "exact sd",
                            "ratio", "within edge"});
  bool all_within = true;
  for (const auto& row : rows) {
    all_within &= row.within_edge;
    report.add_row({format_fixed(row.delta, 0), format_fixed(row.c, 0),
                    format_fixed(row.nu, 2), format_sci(row.analytic_rate, 3),
                    format_fixed(row.expected_count, 2),
                    format_fixed(row.exact_mean, 2),
                    format_fixed(row.exact_sd, 2), format_fixed(row.ratio, 5),
                    row.within_edge ? "yes" : "NO"});
  }
  report.set_meta("all_within_edge", all_within ? "yes" : "no");
  report.finish();
  std::cout << "\ncheck: exact mean within delta*alpha1 of the analytic "
               "expectation on every row: "
            << (all_within ? "yes" : "NO") << '\n';
  return all_within ? 0 : 1;
}
