// Uniform bench-harness I/O: every engine bench accepts the same three
// orchestration flags and reports through the same sink stack.
//
//   --threads N   workers for the sweep pool (0 = hardware concurrency)
//   --csv PATH    mirror every table into one CSV file
//   --json PATH   write the machine-readable summary document
//
// The stdout table sink is always attached, so default behaviour matches
// the pre-orchestrator output; the JSON document additionally records the
// requested thread count and wall-clock seconds.  (`threads_requested` is
// the raw flag value: each pool clamps its actual worker count to its job
// count, so the number of threads that really ran can be smaller and can
// differ between a bench's sections.)
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "exp/sinks.hpp"
#include "support/cli.hpp"
#include "support/telemetry.hpp"

namespace neatbound::exp {

struct BenchOptions {
  unsigned threads = 0;  ///< 0 = hardware concurrency
  std::string csv_path;
  std::string json_path;
};

/// Consumes --threads/--csv/--json from `args` (call before
/// reject_unconsumed); a bare --csv/--json or --threads above 4096 fails
/// through CliArgs::fail.
[[nodiscard]] BenchOptions parse_bench_options(CliArgs& args);

/// The ResultSink a bench holds: stdout table + optional CSV + optional
/// JSON, with wall-clock timing from construction to finish().
class BenchReporter final : public ResultSink {
 public:
  /// Throws std::runtime_error if an output file cannot be opened.
  BenchReporter(const std::string& bench_name, const BenchOptions& options);

  void begin_section(const std::string& name,
                     const std::vector<std::string>& headers) override;
  void add_row(const std::vector<std::string>& cells) override;
  /// Flushes tables/files; stamps threads_requested + elapsed_seconds
  /// into the JSON meta.  Must be called before process exit for file
  /// sinks to be complete.
  void finish() override;

  /// Extra JSON metadata (no-ops without --json).
  void set_meta(const std::string& key, const std::string& value);
  void set_meta_number(const std::string& key, double value);
  /// A sweep's folded counters: `telemetry_runs` plus one `tel_<counter>`
  /// number per counter.  Counters are deterministic, so these keys are
  /// identical across thread counts and resumes; wall-clock phase times
  /// never enter the summary.
  void set_telemetry_meta(const telemetry::TelemetryAccumulator& total);

 private:
  SinkSet sinks_;
  JsonSink* json_ = nullptr;  ///< borrowed from sinks_
  unsigned threads_;          ///< as requested (0 = auto), not as clamped
  // neatbound-analyze: allow(raw-steady-clock) — elapsed_seconds metadata.
  std::chrono::steady_clock::time_point start_;
};

}  // namespace neatbound::exp
