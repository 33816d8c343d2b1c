// Table I rendering: every symbol the paper defines (p, n, Δ, c, μ, ν, α,
// ᾱ, α₁), evaluated at representative parameter points — paper scale
// (n = 10⁵, Δ = 10¹³) and the laptop scale the simulator runs at — plus
// which bounds certify consistency there.
#include <iostream>

#include "analysis/tables.hpp"
#include "exp/bench_io.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Table I — derived per-round quantities at representative "
               "parameter points\n"
            << "# alpha = P[some honest block], alpha_bar = P[none], "
               "alpha1 = P[exactly one]  (Eqs. 7-9)\n";

  exp::BenchReporter report("bench_table1_derived_quantities", io);
  report.begin_section("", {"n", "delta", "nu", "c", "p", "ln(alpha)",
                            "ln(alpha_bar)", "ln(alpha1)", "p*nu*n",
                            "thm1 ln-margin", "thm1", "thm2", "pss"});
  for (const auto& params : analysis::representative_points()) {
    const auto row = analysis::derived_quantities(params);
    report.add_row({format_general(row.n, 4), format_general(row.delta, 4),
                    format_fixed(row.nu, 2), format_general(row.c, 4),
                    format_sci(row.p, 2), format_sci(row.log_alpha, 4),
                    format_sci(row.log_alpha_bar, 4),
                    format_sci(row.log_alpha1, 4),
                    format_sci(row.adversary_rate, 2),
                    format_general(row.theorem1_log_margin, 4),
                    row.theorem1_ok ? "ok" : "fail",
                    row.theorem2_ok ? "ok" : "fail",
                    row.pss_ok ? "ok" : "fail"});
  }
  report.finish();
  std::cout << "\nnote: ln(alpha_bar) is reported in log space because at "
               "paper scale alpha_bar = 1 - O(1e-14)\n"
               "and alpha underflows linear doubles only in the printout, "
               "never in the computation.\n";
  return 0;
}
