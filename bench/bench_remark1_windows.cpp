// Remark 1 reproduction: the ν-windows (Inequality 12) and bound factors
// (Inequality 13) for Δ = 10¹³, including the paper's two exponent pairs
//   (δ₁, δ₂) = (1/6, 1/2): ν ∈ [~1e-63, 1/2 − ~1e-7], factor ≈ 1 + 5e-5,
//   (δ₁, δ₂) = (1/8, 2/3): ν ∈ [~1e-18, 1/2 − ~1e-9], factor ≈ 1 + 2e-3,
// plus a sweep over further pairs showing the window/factor trade-off.
#include <cmath>
#include <iostream>

#include "analysis/tables.hpp"
#include "exp/bench_io.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const double delta = args.get_double("delta", 1e13);
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Remark 1 — nu windows and c-threshold factors at delta="
            << format_general(delta) << "\n"
            << "# paper values: row 1 -> [1e-63, 0.5-1e-7], 1+5e-5;"
               " row 2 -> [1e-18, 0.5-1e-9], 1+2e-3\n";

  exp::BenchReporter report("bench_remark1_windows", io);
  report.set_meta_number("delta", delta);
  report.begin_section("", {"delta1", "delta2", "log10(nu_lo)",
                            "0.5 - nu_hi", "factor - 1", "c_thresh(nu=1/4)",
                            "2mu/ln(mu/nu)", "overhead"});
  for (const auto& row : analysis::remark1_rows(delta)) {
    report.add_row({format_fixed(row.d1, 4), format_fixed(row.d2, 4),
                    format_fixed(row.window.log10_nu_lo, 2),
                    format_sci(row.window.half_minus_hi, 2),
                    format_sci(row.window.factor_minus_one, 2),
                    format_fixed(row.c_threshold, 9),
                    format_fixed(row.c_neat, 9),
                    format_sci(row.c_threshold / row.c_neat - 1.0, 2)});
  }
  report.finish();
  std::cout << "\nreading: over each window, consistency needs c only "
               "(factor-1) above the neat bound 2mu/ln(mu/nu).\n";
  return 0;
}
