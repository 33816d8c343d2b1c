// Engine throughput baseline: wall-clock rounds/sec and blocks/sec of the
// round-based execution engine across a small n × Δ × p grid, under the
// private-withholding adversary (the paper's consistency attacker, which
// exercises every hot path: delivery, reorgs, ancestry queries, and the
// adversary's per-query best-tip reads).
//
// Unlike the sweep benches this driver is deliberately SERIAL — each cell
// is timed on the calling thread so rounds/sec measures the single-core
// hot path, the quantity the perf trajectory tracks.  A `--threads` flag
// is still accepted (uniform bench surface) but ignored for the timing
// loop.
//
// The JSON summary (via the shared JsonSink) is what scripts/perf_baseline
// writes to BENCH_engine.json at the repo root; its meta carries the
// aggregate `rounds_per_sec` that CI's perf_baseline job compares against
// the checked-in baseline (scripts/check_perf_regression.py).
#include <chrono>
#include <iostream>
#include <string>

#include "bounds/zhao.hpp"
#include "exp/bench_io.hpp"
#include "sim/runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

// Stamped by bench/CMakeLists.txt; fall back loudly for ad-hoc compiles.
#ifndef NEATBOUND_BUILD_TYPE
#define NEATBOUND_BUILD_TYPE "unknown"
#endif
#ifndef NEATBOUND_SANITIZE_FLAGS
#define NEATBOUND_SANITIZE_FLAGS "unknown"
#endif

int main(int argc, char** argv) {
  using namespace neatbound;
  using Clock = std::chrono::steady_clock;

  CliArgs args(argc, argv);
  const std::uint64_t rounds = args.get_uint("rounds", 8000);
  const auto seeds = static_cast<std::uint32_t>(args.get_uint("seeds", 2));
  const double nu = args.get_double("nu", 0.25);
  const std::uint64_t violation_t = args.get_uint("violation-t", 8);
  // --samecell-seeds W > 0 appends the adaptive same-cell section (one
  // sparse cell, W seeds) timed under both RNG disciplines.  0 skips it;
  // the grid above is unaffected, so rounds_per_sec keeps its historical
  // meaning.
  const auto samecell_seeds =
      static_cast<std::uint32_t>(args.get_uint("samecell-seeds", 0));
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  std::cout << "# Engine throughput — rounds/sec and blocks/sec over an "
               "n x delta x p grid (private-withholding, nu="
            << format_fixed(nu, 2) << ", T=" << rounds
            << ", seeds=" << seeds << ", serial timing)\n";

  exp::BenchReporter report("bench_engine_throughput", io);
  report.set_meta_number("rounds", static_cast<double>(rounds));
  report.set_meta_number("seeds", seeds);
  report.set_meta_number("nu", nu);
  // Build provenance: scripts/perf_baseline reads these to refuse
  // appending an instrumented (sanitized or non-Release) run to the
  // BENCH_history.jsonl perf trajectory.
  report.set_meta("build_type", NEATBOUND_BUILD_TYPE);
  report.set_meta("sanitize", NEATBOUND_SANITIZE_FLAGS);
  // Telemetry provenance: the perf trajectory only accepts telemetry-OFF
  // throughput (the timers cost a few clock reads per round); ON runs are
  // harvested separately for the per-phase breakdown (scripts/perf_baseline).
  report.set_meta("telemetry", telemetry::enabled() ? "ON" : "OFF");

  const std::uint32_t miners_axis[] = {16, 64, 160};
  const std::uint64_t delta_axis[] = {1, 4};
  const double p_axis[] = {0.001, 0.01};

  report.begin_section(
      "", {"n", "delta", "p", "blocks", "elapsed s", "rounds/s", "blocks/s",
           "violation depth"});

  double total_rounds = 0.0;
  double total_blocks = 0.0;
  double total_seconds = 0.0;
  telemetry::TelemetryAccumulator telemetry_total;
  for (const std::uint32_t miners : miners_axis) {
    for (const std::uint64_t delta : delta_axis) {
      for (const double p : p_axis) {
        sim::ExperimentConfig config;
        config.engine.miner_count = miners;
        config.engine.adversary_fraction = nu;
        config.engine.delta = delta;
        config.engine.p = p;
        config.engine.rounds = rounds;
        config.adversary = sim::AdversaryKind::kPrivateWithhold;
        config.seeds = seeds;

        const auto start = Clock::now();
        const sim::ExperimentSummary summary =
            sim::run_experiment(config, violation_t);
        const double seconds =
            std::chrono::duration<double>(Clock::now() - start).count();

        const double cell_rounds =
            static_cast<double>(rounds) * static_cast<double>(seeds);
        const auto sum_of = [](const stats::RunningStats& s) {
          return s.mean() * static_cast<double>(s.count());
        };
        const double cell_blocks =
            sum_of(summary.honest_blocks) + sum_of(summary.adversary_blocks);
        total_rounds += cell_rounds;
        total_blocks += cell_blocks;
        total_seconds += seconds;
        telemetry_total.merge(summary.telemetry);

        report.add_row({std::to_string(miners), std::to_string(delta),
                        format_fixed(p, 4), format_fixed(cell_blocks, 0),
                        format_fixed(seconds, 3),
                        format_fixed(cell_rounds / seconds, 0),
                        format_fixed(cell_blocks / seconds, 0),
                        format_fixed(summary.violation_depth.mean(), 1)});
      }
    }
  }

  const double rounds_per_sec =
      total_seconds > 0.0 ? total_rounds / total_seconds : 0.0;
  const double blocks_per_sec =
      total_seconds > 0.0 ? total_blocks / total_seconds : 0.0;
  report.set_meta_number("rounds_per_sec", rounds_per_sec);
  report.set_meta_number("blocks_per_sec", blocks_per_sec);
  report.set_meta_number("total_engine_seconds", total_seconds);
  if (telemetry::enabled()) {
    // Per-phase breakdown for the perf dashboard.  Only stamped when the
    // timers exist; the regression gate reads rounds_per_sec alone and
    // ignores unknown meta keys, so this is additive.
    report.set_meta_number("telemetry_runs",
                           static_cast<double>(telemetry_total.runs));
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
      report.set_meta_number(
          std::string("tel_") +
              telemetry::counter_name(static_cast<telemetry::Counter>(c)),
          static_cast<double>(telemetry_total.counters[c]));
    }
    for (std::size_t ph = 0; ph < telemetry::kPhaseCount; ++ph) {
      report.set_meta_number(
          std::string("tel_phase_") +
              telemetry::phase_name(static_cast<telemetry::Phase>(ph)) +
              "_seconds",
          static_cast<double>(telemetry_total.phase_nanos[ph]) * 1e-9);
    }
  }
  if (samecell_seeds > 0) {
    // The adaptive same-cell workload: one sparse cell of the adaptive
    // consistency sweep (scenarios/adaptive_consistency.json — miners
    // 40, Δ 3, private-withholding, hardness a safe multiple of the neat
    // bound), where one wave = samecell_seeds seeds of one config.  Most
    // rounds here are provably quiet, and the engine commits whole runs of
    // them in O(1).
    constexpr double kHardnessMultiple = 2.5;
    sim::ExperimentConfig cell;
    cell.engine.miner_count = 40;
    cell.engine.adversary_fraction = nu;
    cell.engine.delta = 3;
    cell.engine.p =
        1.0 / (bounds::neat_bound_c(nu) * kHardnessMultiple *
               static_cast<double>(cell.engine.miner_count) *
               static_cast<double>(cell.engine.delta));
    cell.engine.rounds = rounds;
    cell.adversary = sim::AdversaryKind::kPrivateWithhold;
    cell.seeds = samecell_seeds;
    const double cell_rounds = static_cast<double>(rounds) *
                               static_cast<double>(samecell_seeds);
    const auto start = Clock::now();
    (void)sim::run_experiment(cell, violation_t);
    const double serial_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    const double serial_rps =
        serial_seconds > 0.0 ? cell_rounds / serial_seconds : 0.0;
    report.begin_section(
        "adaptive same-cell workload (n=40, delta=3, p at " +
            format_fixed(kHardnessMultiple, 1) + "x the neat bound, " +
            std::to_string(samecell_seeds) + " seeds)",
        {"elapsed s", "rounds/s"});
    report.add_row(
        {format_fixed(serial_seconds, 3), format_fixed(serial_rps, 0)});
    report.set_meta_number("samecell_seeds", samecell_seeds);
    report.set_meta_number("samecell_serial_rounds_per_sec", serial_rps);
  }

  report.finish();

  std::cout << "\naggregate: " << format_fixed(rounds_per_sec, 0)
            << " rounds/s, " << format_fixed(blocks_per_sec, 0)
            << " blocks/s over " << format_fixed(total_seconds, 2)
            << " s of engine time\n";
  return 0;
}
