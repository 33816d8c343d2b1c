// Lemma 7 verification: 2/ln(μ/ν) ≤ 1/(Δ(1−(ν/μ)^{1/(2Δ)})) ≤ 2/ln(μ/ν)+1/Δ
// (Inequality 82), swept over ν and Δ up to the paper's 10¹³, with the
// relative slack of each side tabulated.
#include <iostream>

#include "bounds/zhao.hpp"
#include "exp/bench_io.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace neatbound;
  CliArgs args(argc, argv);
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Lemma 7 — the sandwich that yields the neat bound\n";
  exp::BenchReporter report("bench_lemma7_sandwich", io);
  report.begin_section("", {"nu", "delta", "lower 2/ln", "middle", "upper",
                            "holds", "(mid-lo)/lo", "(up-mid)/mid"});
  bool all_hold = true;
  for (const double nu : {1e-12, 1e-4, 0.1, 0.25, 0.4, 0.49}) {
    for (const double delta : {1.0, 8.0, 1e3, 1e8, 1e13}) {
      const auto s = bounds::lemma7_sandwich(nu, delta);
      all_hold &= s.holds();
      report.add_row({format_general(nu, 3), format_general(delta, 3),
                      format_general(s.lower, 6), format_general(s.middle, 6),
                      format_general(s.upper, 6), s.holds() ? "yes" : "NO",
                      format_sci((s.middle - s.lower) / s.lower, 2),
                      format_sci((s.upper - s.middle) / s.middle, 2)});
    }
  }
  report.set_meta("all_hold", all_hold ? "yes" : "no");
  report.finish();
  std::cout << "\ncheck: sandwich holds on every row: "
            << (all_hold ? "yes" : "NO") << '\n'
            << "reading: as delta grows the middle term collapses onto "
               "2/ln(mu/nu) — this is where the neat bound comes from.\n";
  return all_hold ? 0 : 1;
}
