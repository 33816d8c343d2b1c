#include "exp/bench_io.hpp"

#include <iostream>
#include <memory>

namespace neatbound::exp {

namespace {
/// Bare "--csv" (no value) parses as the string "true"; writing a file
/// literally named "true" is never what the user meant.
std::string path_flag(CliArgs& args, const std::string& name) {
  std::string path = args.get_string(name, "");
  if (path == "true") {
    args.fail("flag --" + name + " expects a path");
  }
  return path;
}
}  // namespace

BenchOptions parse_bench_options(CliArgs& args) {
  BenchOptions options;
  const std::uint64_t threads = args.get_uint("threads", options.threads);
  // Cap far above any real machine so a fat-fingered value errors instead
  // of wrapping through the unsigned cast (2^32 would become 0 = "auto").
  if (threads > 4096) args.fail("flag --threads out of range (max 4096)");
  options.threads = static_cast<unsigned>(threads);
  options.csv_path = path_flag(args, "csv");
  options.json_path = path_flag(args, "json");
  return options;
}

BenchReporter::BenchReporter(const std::string& bench_name,
                             const BenchOptions& options)
    : threads_(options.threads),
      // neatbound-analyze: allow(raw-steady-clock) — elapsed_seconds
      // metadata only; parity tests normalize it out.
      start_(std::chrono::steady_clock::now()) {
  sinks_.add(std::make_unique<TableSink>(std::cout));
  if (!options.csv_path.empty()) {
    sinks_.add(std::make_unique<CsvSink>(options.csv_path));
  }
  if (!options.json_path.empty()) {
    auto json = std::make_unique<JsonSink>(options.json_path, bench_name);
    json_ = json.get();
    sinks_.add(std::move(json));
  }
}

void BenchReporter::begin_section(const std::string& name,
                                  const std::vector<std::string>& headers) {
  sinks_.begin_section(name, headers);
}

void BenchReporter::add_row(const std::vector<std::string>& cells) {
  sinks_.add_row(cells);
}

void BenchReporter::set_meta(const std::string& key, const std::string& value) {
  if (json_ != nullptr) json_->set_meta(key, value);
}

void BenchReporter::set_meta_number(const std::string& key, double value) {
  if (json_ != nullptr) json_->set_meta_number(key, value);
}

// neatbound-analyze: allow(contract-coverage) — thin delegation: one
// set_meta_number per folded counter, no state of its own.
void BenchReporter::set_telemetry_meta(
    const telemetry::TelemetryAccumulator& total) {
  set_meta_number("telemetry_runs", static_cast<double>(total.runs));
  for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
    set_meta_number(
        std::string("tel_") +
            telemetry::counter_name(static_cast<telemetry::Counter>(c)),
        static_cast<double>(total.counters[c]));
  }
}

// neatbound-analyze: allow(contract-coverage) — thin delegation: stamps
// two metadata numbers and forwards to SinkSet::finish; the sinks check
// their own write postconditions.
void BenchReporter::finish() {
  if (json_ != nullptr) {
    const auto elapsed = std::chrono::duration_cast<std::chrono::duration<double>>(
        // neatbound-analyze: allow(raw-steady-clock) — see constructor.
        std::chrono::steady_clock::now() - start_);
    json_->set_meta_number("threads_requested", static_cast<double>(threads_));
    json_->set_meta_number("elapsed_seconds", elapsed.count());
  }
  sinks_.finish();
}

}  // namespace neatbound::exp
