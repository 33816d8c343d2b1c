// Eq. (37) validation: the closed-form stationary distribution of the
// suffix chain C_F versus (i) power iteration, (ii) damped fixed-point
// iteration, and (iii) empirical visit frequencies of a long random walk,
// swept over Δ and α.  Also verifies the paper's ergodicity assertion and
// that Σπ = 1 (Eq. 36e).
//
// Each (Δ, α) row runs as one job on the shared pool (--threads); rows
// are emitted in grid order.
#include <iostream>
#include <vector>

#include "analysis/validation.hpp"
#include "exp/bench_io.hpp"
#include "support/cli.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const std::uint64_t walk_steps = args.get_uint("walk-steps", 400000);
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Eq. (37) — stationary distribution of C_F: closed form vs "
               "numeric vs random walk\n";

  exp::BenchReporter report("bench_stationary_distribution", io);
  report.set_meta_number("walk_steps", static_cast<double>(walk_steps));

  struct Cell {
    std::uint64_t delta;
    double alpha;
  };
  std::vector<Cell> cells;
  for (const std::uint64_t delta : {1ULL, 2ULL, 3ULL, 4ULL, 8ULL, 16ULL,
                                    32ULL, 64ULL}) {
    for (const double alpha : {0.02, 0.1, 0.3, 0.6}) {
      cells.push_back({delta, alpha});
    }
  }
  std::vector<analysis::StationaryComparisonRow> rows(cells.size());
  parallel_for_indexed(cells.size(), io.threads, [&](std::size_t i) {
    rows[i] = analysis::compare_stationary(cells[i].delta, cells[i].alpha,
                                           walk_steps);
  });

  report.begin_section("", {"delta", "alpha", "states", "ergodic",
                            "sum(pi)-1", "max|err| power", "max|err| fixed",
                            "max|err| walk"});
  bool all_good = true;
  for (const auto& row : rows) {
    report.add_row({std::to_string(row.delta), format_fixed(row.alpha, 2),
                    std::to_string(2 * row.delta + 1),
                    row.ergodic ? "yes" : "NO",
                    format_sci(row.closed_form_sum - 1.0, 1),
                    format_sci(row.max_abs_err_power, 1),
                    format_sci(row.max_abs_err_fixed, 1),
                    format_sci(row.max_abs_err_walk, 1)});
    all_good &= row.ergodic && row.max_abs_err_power < 1e-8 &&
                row.max_abs_err_fixed < 1e-8;
  }
  report.set_meta("all_good", all_good ? "yes" : "no");
  report.finish();
  std::cout << "\ncheck: closed form matches both solvers to <1e-8 on every "
               "row: "
            << (all_good ? "yes" : "NO") << '\n';
  return all_good ? 0 : 1;
}
