// neatbound_cli — the unified scenario driver.
//
//   neatbound_cli run <scenario.json> [--threads N] [--csv P] [--json P]
//                  [--miners N] [--nu X] [--delta N] [--rounds N]
//                  [--seeds N] [--base-seed N] [--violation-t N]
//                  [--checkpoint P] [--resume] [--stop-after-waves N]
//                  [--trace P] [--trace-rounds A:B] [--chrome-trace P]
//                  [--progress] [--telemetry-meta]
//                  [--oracle] [--oracle-dump P] [--oracle-max-runs N]
//       loads a scenario file, builds the sweep grid and executes every
//       (cell × seed) engine run on one work pool, reporting through the
//       same stdout/CSV/JSON sink stack the benches use.  The override
//       flags replace the spec's engine defaults (axes still win per
//       point) — the CI smoke job uses them to downsize bundled specs.
//       Specs with an "adaptive" block (and any run given --checkpoint /
//       --resume) execute through the adaptive sequential-stopping
//       sweep: --checkpoint snapshots every cell's accumulators after
//       each scheduling wave, --resume picks a matching snapshot back up
//       without recomputation, and --stop-after-waves N interrupts
//       deterministically after N waves (exit status 3) — the hook CI's
//       kill-and-resume round trip uses.  A resumed run's summary is
//       bit-identical to an uninterrupted one.
//
//       Observability (docs/observability.md): --trace P streams one
//       dedicated run (first grid point, base seed) as per-round JSONL;
//       --trace-rounds A:B restricts the window (inclusive, 1-based);
//       --chrome-trace P writes that run's phase timeline for
//       chrome://tracing / Perfetto (phase events need a build with
//       -DNEATBOUND_TELEMETRY=ON); --progress prints per-wave adaptive
//       progress to stderr; --telemetry-meta stamps the sweep's folded
//       telemetry counters into the report meta.  None of these change
//       summary values: the traced run is read-only and extra.
//
//       Falsification (docs/observability.md): --oracle re-runs the grid
//       serially after the report with the invariant oracle armed
//       (invariants from the spec's "oracle" block; common-prefix at
//       T = violation_t by default) and reports the first violation;
//       --oracle-dump P additionally writes it as a replayable artifact;
//       --oracle-max-runs N caps the scan.  Oracle runs are read-only
//       observers too — sweep summaries never change.
//
//   neatbound_cli replay <artifact.json>
//       re-executes a violation artifact deterministically to its
//       violating round and re-asserts the oracle verdict bit-for-bit:
//       exit 0 when the violation, every honest view and every trace
//       record reproduce exactly; exit 1 with the divergences otherwise;
//       exit 2 when the artifact itself is truncated or tampered (the
//       strict reader names the offence).
//
//   neatbound_cli list [--scenarios DIR]
//       prints every registered network model and adversary strategy
//       (with accepted parameters), plus the *.json files in DIR when
//       given.
//
//   neatbound_cli describe <scenario.json>
//       parses and validates a scenario file and prints the resolved
//       configuration: engine defaults, axes and grid size, hardness
//       rule, components, report columns.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/bench_io.hpp"
#include "scenario/artifact.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/trace.hpp"
#include "support/cli.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace neatbound;

int usage(std::ostream& os, int code) {
  os << "usage: neatbound_cli <command> ...\n"
        "\n"
        "commands:\n"
        "  run <scenario.json> [flags]   execute a scenario (--help for "
        "flags)\n"
        "  replay <artifact.json>        re-execute a violation artifact "
        "and re-assert the verdict\n"
        "  list [--scenarios DIR]        registered network models and "
        "adversary strategies\n"
        "  describe <scenario.json>      parsed + validated scenario "
        "summary\n";
  return code;
}

void print_entries(
    const char* heading,
    const std::vector<scenario::ScenarioRegistry::EntryInfo>& entries) {
  std::cout << heading << "\n";
  for (const auto& entry : entries) {
    std::cout << "  " << entry.name << " — " << entry.summary << "\n";
    for (const auto& param : entry.params) {
      std::cout << "      param: " << param.key << " (" << param.describe
                << ")\n";
    }
  }
}

/// Stamps a sweep's folded telemetry totals as report meta numbers.
/// Opt-in (--telemetry-meta): the keys are additive extras that perf
/// tooling must ignore when unknown (scripts/check_perf_regression.py
/// compares only its known metric keys).
void stamp_telemetry_meta(exp::BenchReporter& report,
                          const telemetry::TelemetryAccumulator& total) {
  report.set_meta_number("telemetry_enabled",
                         telemetry::enabled() ? 1.0 : 0.0);
  report.set_meta_number("telemetry_runs", static_cast<double>(total.runs));
  for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
    report.set_meta_number(
        std::string("tel_") +
            telemetry::counter_name(static_cast<telemetry::Counter>(c)),
        static_cast<double>(total.counters[c]));
  }
  for (std::size_t ph = 0; ph < telemetry::kPhaseCount; ++ph) {
    report.set_meta_number(
        std::string("tel_phase_") +
            telemetry::phase_name(static_cast<telemetry::Phase>(ph)) +
            "_seconds",
        static_cast<double>(total.phase_nanos[ph]) * 1e-9);
  }
}

/// Count flags feed 32-bit fields: a wider value is an error, never a
/// silent truncation.
std::uint32_t flag_uint32(const std::string& name, std::uint64_t value) {
  if (value > 0xffffffffULL) {
    throw std::runtime_error("flag --" + name + " must fit in 32 bits, have " +
                             std::to_string(value));
  }
  return static_cast<std::uint32_t>(value);
}

/// Swallows records: --chrome-trace without --trace still needs a traced
/// run, just not its JSONL.
class DiscardTraceSink final : public sim::RoundTraceSink {
 public:
  void on_round(const sim::RoundRecord&) override {}
};

int run_command(int argc, char** argv) {
  // `run <path> [flags]`; `run --help` (no path) still prints the flags.
  const bool has_path =
      argc >= 3 && std::string(argv[2]).rfind("--", 0) != 0;
  const std::string path = has_path ? argv[2] : "";
  // The slot before the first flag acts as the "program name" CliArgs
  // skips: the path when present, the subcommand itself otherwise.
  CliArgs args(has_path ? argc - 2 : argc - 1,
               has_path ? argv + 2 : argv + 1);

  scenario::SpecOverrides overrides;
  if (const auto v = args.get_opt_uint(
          "miners", "override engine miner count (spec value otherwise)")) {
    overrides.miners = flag_uint32("miners", *v);
  }
  overrides.nu = args.get_opt_double(
      "nu", "override adversary fraction (spec value otherwise)");
  overrides.delta = args.get_opt_uint(
      "delta", "override max message delay (spec value otherwise)");
  overrides.rounds = args.get_opt_uint(
      "rounds", "override rounds per run (spec value otherwise)");
  if (const auto v = args.get_opt_uint(
          "seeds", "override seeds per cell (spec value otherwise)")) {
    overrides.seeds = flag_uint32("seeds", *v);
  }
  overrides.base_seed = args.get_opt_uint(
      "base-seed", "override base seed (spec value otherwise)");
  overrides.violation_t = args.get_opt_uint(
      "violation-t", "override consistency depth T (spec value otherwise)");
  scenario::ScenarioRunOptions run_options;
  run_options.checkpoint_path = args.get_string(
      "checkpoint", "", "snapshot accumulators here after every wave");
  if (run_options.checkpoint_path == "true") {
    std::cerr << "neatbound_cli run: --checkpoint expects a path\n";
    return 2;
  }
  run_options.resume = args.get_bool(
      "resume", false, "resume the --checkpoint file if it exists");
  run_options.stop_after_waves = flag_uint32(
      "stop-after-waves",
      args.get_uint(
          "stop-after-waves", 0,
          "interrupt after N scheduling waves, exit 3 (0 = run to the end)"));
  const std::string trace_path = args.get_string(
      "trace", "", "write a per-round JSONL trace of one dedicated run");
  const std::string trace_rounds_text = args.get_string(
      "trace-rounds", "",
      "restrict --trace to rounds A:B (inclusive, 1-based)");
  const std::string chrome_path = args.get_string(
      "chrome-trace", "",
      "write the traced run's phase timeline for chrome://tracing");
  const bool progress = args.get_bool(
      "progress", false, "print per-wave scheduling progress to stderr");
  const bool telemetry_meta = args.get_bool(
      "telemetry-meta", false,
      "stamp folded telemetry counters into the report meta");
  bool oracle_armed = args.get_bool(
      "oracle", false,
      "scan the grid serially with the invariant oracle armed, report the "
      "first violation");
  const std::string oracle_dump = args.get_string(
      "oracle-dump", "",
      "write the first violation as a replayable artifact (implies "
      "--oracle)");
  const std::uint64_t oracle_max_runs_flag = args.get_uint(
      "oracle-max-runs", 0,
      "cap the oracle scan at N engine runs (0 = spec value / unlimited)");
  const exp::BenchOptions io = exp::parse_bench_options(args);
  if (args.handle_help(std::cout)) return 0;
  if (!has_path) {
    std::cerr << "neatbound_cli run: expected a scenario file path\n";
    return usage(std::cerr, 2);
  }
  args.reject_unconsumed();
  run_options.threads = io.threads;
  if (run_options.resume && run_options.checkpoint_path.empty()) {
    std::cerr << "neatbound_cli run: --resume needs --checkpoint PATH\n";
    return 2;
  }
  if (run_options.stop_after_waves != 0 &&
      run_options.checkpoint_path.empty()) {
    // Interrupting without a snapshot would just discard the work.
    std::cerr
        << "neatbound_cli run: --stop-after-waves needs --checkpoint PATH\n";
    return 2;
  }
  if (trace_path == "true") {
    std::cerr << "neatbound_cli run: --trace expects a path\n";
    return 2;
  }
  if (chrome_path == "true") {
    std::cerr << "neatbound_cli run: --chrome-trace expects a path\n";
    return 2;
  }
  if (oracle_dump == "true") {
    std::cerr << "neatbound_cli run: --oracle-dump expects a path\n";
    return 2;
  }
  if (!oracle_dump.empty() || oracle_max_runs_flag != 0) {
    oracle_armed = true;
  }
  sim::TraceBounds trace_bounds;
  if (!trace_rounds_text.empty()) {
    if (trace_path.empty()) {
      std::cerr << "neatbound_cli run: --trace-rounds needs --trace PATH\n";
      return 2;
    }
    try {
      trace_bounds = sim::parse_trace_rounds(trace_rounds_text);
    } catch (const std::invalid_argument& e) {
      std::cerr << "neatbound_cli run: --trace-rounds: " << e.what() << "\n";
      return 2;
    }
  }
  if (progress) {
    // Wave boundaries only exist on the adaptive path; the printer below
    // is why plain specs with --progress run their fixed budget there
    // (bit-identical summaries, see resolve_adaptive_options).
    run_options.progress = [](const exp::WaveProgress& p) {
      std::cerr << "# wave " << p.wave << ": " << p.cells_stopped << "/"
                << p.cells_total << " cells stopped, " << p.seeds_spent
                << " seeds spent";
      if (p.cells_stopped < p.cells_total) {
        std::cerr << ", widest half-width " << p.widest_half_width;
      }
      std::cerr << "\n";
    };
  }

  scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  scenario::apply_overrides(spec, overrides);

  std::cout << "# scenario: " << spec.name;
  if (!spec.title.empty()) std::cout << " — " << spec.title;
  std::cout << "\n# adversary: " << spec.adversary.kind
            << ", network: " << spec.network.kind << ", grid "
            << spec.grid_size() << " cells x ";
  if (spec.adaptive) {
    std::cout << spec.adaptive->min_seeds << ".." << spec.adaptive->max_seeds
              << " seeds (adaptive, half-width "
              << spec.adaptive->half_width << ")\n";
  } else {
    std::cout << spec.seeds << " seeds\n";
  }

  // Any checkpoint/resume/interrupt request routes through the adaptive
  // sweep; a spec without an "adaptive" block runs its fixed budget
  // there (bit-identical summaries), so checkpointing is universal.
  const bool adaptive_path = spec.adaptive.has_value() ||
                             !run_options.checkpoint_path.empty() ||
                             run_options.stop_after_waves != 0 || progress;

  exp::BenchReporter report(spec.name, io);
  scenario::stamp_meta(spec, report);
  const auto& registry = scenario::ScenarioRegistry::builtin();

  // One dedicated traced run (first grid point, base seed) after the
  // sweep: the sweep itself stays untraced and full-speed, and the
  // traced run's summary is bit-identical anyway (read-only observer).
  const auto write_traces = [&]() {
    if (trace_path.empty() && chrome_path.empty()) return;
    std::optional<std::ofstream> trace_os;
    std::optional<sim::BoundedTraceWriter> writer;
    DiscardTraceSink discard;
    sim::RoundTraceSink* sink = &discard;
    if (!trace_path.empty()) {
      trace_os.emplace(trace_path, std::ios::trunc);
      if (!*trace_os) {
        throw std::runtime_error("cannot open " + trace_path +
                                 " for writing");
      }
      writer.emplace(*trace_os, trace_bounds);
      sink = &*writer;
    }
    (void)scenario::run_scenario_trace(spec, registry, *sink);
    if (writer) {
      std::cout << "# trace: " << writer->records_written()
                << " round(s) -> " << trace_path
                << (writer->truncated() ? " (truncated at record cap)" : "")
                << "\n";
    }
    if (!chrome_path.empty()) {
      std::ofstream os(chrome_path, std::ios::trunc);
      if (!os) {
        throw std::runtime_error("cannot open " + chrome_path +
                                 " for writing");
      }
      // The traced run executed on this thread, so the thread-local
      // phase registry holds exactly its timeline.
      telemetry::write_chrome_trace(os, telemetry::phase_events(),
                                    telemetry::snapshot());
      std::cout << "# chrome-trace: -> " << chrome_path;
      if (!telemetry::enabled()) {
        std::cout << " (telemetry compiled out — no phase events; rebuild "
                     "with -DNEATBOUND_TELEMETRY=ON)";
      }
      std::cout << "\n";
    }
  };

  // The falsification scan (--oracle) also runs after the sweep, one
  // serial armed run per (cell × seed) in grid order, stopping at the
  // first violation — like the traced run, pure observation on top of an
  // unchanged report.
  const auto run_oracle_scan = [&]() {
    if (!oracle_armed) return;
    const std::uint64_t max_runs =
        oracle_max_runs_flag != 0
            ? oracle_max_runs_flag
            : (spec.oracle ? spec.oracle->max_runs : 0);
    const scenario::OracleScanResult scan =
        scenario::run_scenario_oracle(spec, registry, max_runs);
    if (!scan.artifact) {
      std::cout << "# oracle: no violation in " << scan.runs_scanned
                << " run(s) scanned\n";
      if (!oracle_dump.empty()) {
        std::cout << "# oracle-artifact: nothing to write (no violation)\n";
      }
      return;
    }
    const sim::OracleViolation& violation = scan.artifact->violation;
    std::cout << "# oracle: " << sim::invariant_name(violation.kind)
              << " violation at round " << violation.round << " (measured "
              << violation.measured << ", bound " << violation.bound
              << ", seed " << scan.artifact->engine.seed << ", cell "
              << scan.cell_index << ", run " << scan.runs_scanned << " of the "
              << "scan)\n";
    if (!oracle_dump.empty()) {
      scenario::write_artifact_file(oracle_dump, *scan.artifact);
      std::cout << "# oracle-artifact: -> " << oracle_dump
                << " (replay with: neatbound_cli replay " << oracle_dump
                << ")\n";
    }
  };

  if (!adaptive_path) {
    const std::vector<exp::SweepCell> cells =
        scenario::run_scenario(spec, registry, run_options);
    if (telemetry_meta) {
      telemetry::TelemetryAccumulator total;
      for (const exp::SweepCell& cell : cells) {
        total.merge(cell.summary.telemetry);
      }
      stamp_telemetry_meta(report, total);
    }
    scenario::render_report(spec, cells, report);
    report.finish();
    write_traces();
    run_oracle_scan();
    return 0;
  }

  const exp::AdaptiveSweepResult result =
      scenario::run_scenario_adaptive(spec, registry, run_options);
  report.set_meta_number("engine_runs",
                         static_cast<double>(result.engine_runs));
  report.set_meta_number("waves", static_cast<double>(result.waves));
  if (telemetry_meta) {
    telemetry::TelemetryAccumulator total;
    for (const exp::AdaptiveCell& cell : result.cells) {
      total.merge(cell.cell.summary.telemetry);
    }
    stamp_telemetry_meta(report, total);
  }
  if (!result.complete) {
    // Interrupted by --stop-after-waves: the checkpoint (if any) holds
    // the partial state; no report rows — the resumed run renders them.
    report.set_meta_number("interrupted", 1.0);
    report.finish();
    std::cout << "# interrupted after " << result.waves
              << " wave(s); resume with --checkpoint "
              << run_options.checkpoint_path << " --resume\n";
    if (!trace_path.empty() || !chrome_path.empty()) {
      // The dedicated traced run only executes after a completed sweep;
      // say so rather than leaving the flags silently ignored (and any
      // pre-existing file at those paths stale).
      std::cout << "# trace output skipped: run interrupted by "
                   "--stop-after-waves, no trace files written\n";
    }
    if (oracle_armed) {
      std::cout << "# oracle scan skipped: run interrupted by "
                   "--stop-after-waves\n";
    }
    return 3;
  }
  scenario::render_adaptive_report(spec, result.cells, report);
  report.finish();
  write_traces();
  run_oracle_scan();
  return 0;
}

int replay_command(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[2]) == "--help") {
    std::cout << "usage: neatbound_cli replay <artifact.json>\n"
                 "  re-executes the artifact's run to its violating round "
                 "and re-asserts the oracle verdict.\n"
                 "  exit 0: reproduced bit-for-bit; exit 1: replay "
                 "diverged; exit 2: unreadable/tampered artifact.\n";
    return 0;
  }
  if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
    std::cerr << "neatbound_cli replay: expected an artifact file path\n";
    return usage(std::cerr, 2);
  }
  const std::string path = argv[2];
  CliArgs args(argc - 2, argv + 2);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  scenario::ViolationArtifact artifact;
  try {
    artifact = scenario::load_artifact_file(path);
  } catch (const std::exception& e) {
    std::cerr << "neatbound_cli replay: " << e.what() << "\n";
    return 2;
  }
  std::cout << "# artifact: " << sim::invariant_name(artifact.violation.kind)
            << " violation at round " << artifact.violation.round
            << " (measured " << artifact.violation.measured << ", bound "
            << artifact.violation.bound << ")\n";
  std::cout << "# engine: miners=" << artifact.engine.miner_count
            << " nu=" << artifact.engine.adversary_fraction
            << " delta=" << artifact.engine.delta
            << " p=" << artifact.engine.p
            << " seed=" << artifact.engine.seed << ", adversary "
            << artifact.adversary.kind << ", network " << artifact.network.kind
            << "\n";
  const scenario::ReplayResult result = scenario::replay_artifact(
      artifact, scenario::ScenarioRegistry::builtin());
  if (result.reproduced) {
    std::cout << "# replay: reproduced — same violation, "
              << artifact.views.size() << " view(s) and "
              << artifact.slice.size()
              << " trace record(s) all bit-identical\n";
    return 0;
  }
  std::cerr << "# replay: FAILED to reproduce (" << result.mismatches.size()
            << " divergence(s)):\n";
  for (const std::string& mismatch : result.mismatches) {
    std::cerr << "#   " << mismatch << "\n";
  }
  return 1;
}

int list_command(int argc, char** argv) {
  CliArgs args(argc - 1, argv + 1);
  const std::string dir = args.get_string(
      "scenarios", "", "directory whose *.json specs to list");
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  const auto& registry = scenario::ScenarioRegistry::builtin();
  print_entries("network models:", registry.network_models());
  std::cout << "\n";
  print_entries("adversary strategies:", registry.adversary_strategies());

  if (!dir.empty()) {
    std::cout << "\nscenarios in " << dir << ":\n";
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".json") {
        paths.push_back(entry.path().string());
      }
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string& spec_path : paths) {
      try {
        const scenario::ScenarioSpec spec =
            scenario::load_scenario_file(spec_path);
        std::cout << "  " << spec_path << " — " << spec.name << " ("
                  << spec.grid_size() << " cells, adversary "
                  << spec.adversary.kind << ", network " << spec.network.kind
                  << ")\n";
      } catch (const std::exception& e) {
        std::cout << "  " << spec_path << " — INVALID: " << e.what() << "\n";
      }
    }
  }
  return 0;
}

int describe_command(int argc, char** argv) {
  if (argc >= 3 && std::string(argv[2]) == "--help") {
    std::cout << "usage: neatbound_cli describe <scenario.json>\n";
    return 0;
  }
  if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
    std::cerr << "neatbound_cli describe: expected a scenario file path\n";
    return usage(std::cerr, 2);
  }
  const std::string path = argv[2];
  CliArgs args(argc - 2, argv + 2);
  if (args.handle_help(std::cout)) return 0;
  args.reject_unconsumed();

  const scenario::ScenarioSpec spec = scenario::load_scenario_file(path);
  // Resolve the first grid point so component/param errors surface here.
  const exp::SweepGrid grid = scenario::build_grid(spec);
  const sim::ExperimentConfig first =
      scenario::build_config(spec, grid.point(0));
  scenario::validate_components(spec, scenario::ScenarioRegistry::builtin());

  std::cout << "scenario:    " << spec.name << "\n";
  if (!spec.title.empty()) std::cout << "title:       " << spec.title << "\n";
  if (!spec.description.empty()) {
    std::cout << "description: " << spec.description << "\n";
  }
  std::cout << "engine:      miners=" << spec.miners << " nu=" << spec.nu
            << " delta=" << spec.delta << " rounds=" << spec.rounds
            << " p=" << spec.p << "\n";
  std::cout << "hardness:    " << spec.hardness_mode << "\n";
  std::cout << "experiment:  seeds=" << spec.seeds
            << " base_seed=" << spec.base_seed
            << " violation_t=" << spec.violation_t << "\n";
  if (spec.adaptive) {
    std::cout << "adaptive:    min_seeds=" << spec.adaptive->min_seeds
              << " batch=" << spec.adaptive->batch
              << " max_seeds=" << spec.adaptive->max_seeds
              << " half_width=" << spec.adaptive->half_width
              << " confidence=" << spec.adaptive->confidence << "\n";
  }
  std::cout << "adversary:   " << spec.adversary.kind << "\n";
  std::cout << "network:     " << spec.network.kind << "\n";
  std::cout << "axes:        " << spec.axes.size() << " (grid "
            << spec.grid_size() << " cells, ";
  if (spec.adaptive) {
    std::cout << spec.grid_size() * spec.adaptive->min_seeds << ".."
              << spec.grid_size() * spec.adaptive->max_seeds
              << " engine runs, adaptive)\n";
  } else {
    std::cout << spec.grid_size() * spec.seeds << " engine runs)\n";
  }
  for (const scenario::AxisSpec& axis : spec.axes) {
    std::cout << "  " << axis.name << ": [";
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      std::cout << (i > 0 ? ", " : "") << axis.values[i];
    }
    std::cout << "]\n";
  }
  std::cout << "first point: p=" << first.engine.p << "\n";
  const std::vector<scenario::ColumnSpec> columns =
      spec.report.columns.empty() ? scenario::default_columns(spec)
                                  : spec.report.columns;
  std::cout << "report:      " << columns.size() << " columns";
  if (!spec.report.section_by.empty()) {
    std::cout << ", sectioned by " << spec.report.section_by;
  }
  std::cout << "\n";
  for (const scenario::ColumnSpec& column : columns) {
    std::cout << "  " << column.header << " <- " << column.value << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string command = argv[1];
    if (command == "run") return run_command(argc, argv);
    if (command == "replay") return replay_command(argc, argv);
    if (command == "list") return list_command(argc, argv);
    if (command == "describe") return describe_command(argc, argv);
    if (command == "--help" || command == "help") {
      return usage(std::cout, 0);
    }
    std::cerr << "neatbound_cli: unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "neatbound_cli: " << e.what() << "\n";
    return 1;
  }
}
