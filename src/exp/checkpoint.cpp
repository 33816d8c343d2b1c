#include "exp/checkpoint.hpp"

#include <array>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace neatbound::exp {

namespace {

using support::exact_double_repr;
using support::json_path;
using support::JsonValue;
using support::read_element;
using support::read_field;
using support::reject_unknown_keys;

constexpr const char* kFormatTag = "neatbound-sweep-checkpoint-v1";

/// The ExperimentSummary fields, in the fixed serialization order.  Names
/// are written into the document so a hand-inspected checkpoint reads
/// like the report columns do.
struct SummaryField {
  const char* name;
  stats::RunningStats sim::ExperimentSummary::* member;
};

constexpr SummaryField kSummaryFields[] = {
    {"convergence_opportunities",
     &sim::ExperimentSummary::convergence_opportunities},
    {"adversary_blocks", &sim::ExperimentSummary::adversary_blocks},
    {"honest_blocks", &sim::ExperimentSummary::honest_blocks},
    {"violation_depth", &sim::ExperimentSummary::violation_depth},
    {"max_reorg_depth", &sim::ExperimentSummary::max_reorg_depth},
    {"max_divergence", &sim::ExperimentSummary::max_divergence},
    {"disagreement_rounds", &sim::ExperimentSummary::disagreement_rounds},
    {"chain_growth", &sim::ExperimentSummary::chain_growth},
    {"chain_quality", &sim::ExperimentSummary::chain_quality},
    {"best_height", &sim::ExperimentSummary::best_height},
    {"violation_exceeds_t", &sim::ExperimentSummary::violation_exceeds_t},
};

/// Every summary field name, for the strict reader's key check.
constexpr auto kSummaryNames = [] {
  std::array<std::string_view, std::size(kSummaryFields)> names{};
  for (std::size_t i = 0; i < names.size(); ++i) {
    names[i] = kSummaryFields[i].name;
  }
  return names;
}();

void write_stats(std::ostream& os, const stats::RunningStats& stats) {
  const stats::RunningStatsState state = stats.state();
  os << '[' << state.count << ',' << exact_double_repr(state.mean) << ','
     << exact_double_repr(state.m2) << ',' << exact_double_repr(state.min)
     << ',' << exact_double_repr(state.max) << ']';
}

void write_checkpoint(std::ostream& os, const SweepCheckpoint& checkpoint) {
  os << "{\n  \"format\": \"" << kFormatTag << "\",\n  \"fingerprint\": \""
     << support::format_hash(checkpoint.fingerprint)
     << "\",\n  \"waves_done\": " << checkpoint.waves_done
     << ",\n  \"cells\": [";
  for (std::size_t i = 0; i < checkpoint.cells.size(); ++i) {
    const CellCheckpoint& cell = checkpoint.cells[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"seeds_done\": "
       << cell.seeds_done << ", \"violations\": " << cell.violations
       << ", \"stopped\": " << (cell.stopped ? "true" : "false")
       << ", \"stopped_early\": " << (cell.stopped_early ? "true" : "false")
       << ",\n     \"summary\": {";
    bool first = true;
    for (const SummaryField& field : kSummaryFields) {
      os << (first ? "\n" : ",\n") << "       \"" << field.name << "\": ";
      write_stats(os, cell.summary.*field.member);
      first = false;
    }
    // Counters only: phase wall times are nondeterministic and must not
    // enter the resume state.
    os << "},\n     \"telemetry\": {\"runs\": "
       << cell.summary.telemetry.runs << ", \"counters\": [";
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
      os << (c == 0 ? "" : ", ") << cell.summary.telemetry.counters[c];
    }
    os << "]}}";
  }
  os << "\n  ]\n}\n";
}

/// A `[count, mean, m2, min, max]` array at `where`.
stats::RunningStats read_stats(const JsonValue::Array& array,
                               const std::string& where) {
  if (array.size() != 5) {
    throw std::runtime_error(
        where + ": must be a 5-element array [count, mean, m2, min, max]");
  }
  const auto number = [&](std::size_t i) {
    return read_element(array[i], i, where, &JsonValue::as_number);
  };
  return stats::RunningStats::from_state(
      {read_element(array[0], 0, where, &JsonValue::as_uint), number(1),
       number(2), number(3), number(4)});
}

CellCheckpoint read_cell(const JsonValue& entry, const std::string& where) {
  reject_unknown_keys(entry,
                      {"seeds_done", "violations", "stopped", "stopped_early",
                       "summary", "telemetry"},
                      where);
  CellCheckpoint cell;
  cell.seeds_done =
      read_field(entry, "seeds_done", where, &JsonValue::as_uint32);
  cell.violations = read_field(entry, "violations", where, &JsonValue::as_uint);
  cell.stopped = read_field(entry, "stopped", where, &JsonValue::as_bool);
  cell.stopped_early =
      read_field(entry, "stopped_early", where, &JsonValue::as_bool);

  const std::string summary_where = json_path(where, "summary");
  const JsonValue& summary = support::require_field(entry, "summary", where);
  reject_unknown_keys(summary, kSummaryNames, summary_where);
  for (const SummaryField& field : kSummaryFields) {
    cell.summary.*field.member = read_stats(
        read_field(summary, field.name, summary_where, &JsonValue::as_array),
        json_path(summary_where, field.name));
  }

  const std::string tel_where = json_path(where, "telemetry");
  const JsonValue& tel = support::require_field(entry, "telemetry", where);
  reject_unknown_keys(tel, {"runs", "counters"}, tel_where);
  cell.summary.telemetry.runs =
      read_field(tel, "runs", tel_where, &JsonValue::as_uint);
  const JsonValue::Array& counters =
      read_field(tel, "counters", tel_where, &JsonValue::as_array);
  const std::string counters_where = json_path(tel_where, "counters");
  if (counters.size() != telemetry::kCounterCount) {
    throw std::runtime_error(
        counters_where + ": has " + std::to_string(counters.size()) +
        " entries, want " + std::to_string(telemetry::kCounterCount));
  }
  for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
    cell.summary.telemetry.counters[c] =
        read_element(counters[c], c, counters_where, &JsonValue::as_uint);
  }
  return cell;
}

SweepCheckpoint read_checkpoint(const JsonValue& document,
                                std::uint64_t expected_fingerprint) {
  reject_unknown_keys(document,
                      {"format", "fingerprint", "waves_done", "cells"}, "");
  const std::string& format =
      read_field(document, "format", "", &JsonValue::as_string);
  if (format != kFormatTag) {
    throw std::runtime_error("unsupported checkpoint format \"" + format +
                             "\" (want " + kFormatTag + ")");
  }
  SweepCheckpoint checkpoint;
  checkpoint.fingerprint =
      read_field(document, "fingerprint", "", &JsonValue::as_hash);
  if (expected_fingerprint != 0 &&
      checkpoint.fingerprint != expected_fingerprint) {
    throw std::runtime_error(
        "checkpoint fingerprint " +
        support::format_hash(checkpoint.fingerprint) +
        " does not match this sweep (" +
        support::format_hash(expected_fingerprint) +
        ") — grid, engine parameters, components or adaptive options "
        "changed");
  }
  checkpoint.waves_done =
      read_field(document, "waves_done", "", &JsonValue::as_uint);
  const JsonValue::Array& cells =
      read_field(document, "cells", "", &JsonValue::as_array);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    checkpoint.cells.push_back(read_cell(cells[i], json_path("cells", i)));
  }
  return checkpoint;
}

}  // namespace

// neatbound-analyze: allow(contract-coverage) — total function: every
// byte sequence is a valid fingerprint contribution, and the FNV-1a
// fold has no internal invariant beyond the running hash itself.
FingerprintBuilder& FingerprintBuilder::text(const std::string& piece) {
  for (const char c : piece) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  }
  // Terminator so concatenated pieces cannot collide by re-splitting.
  hash_ ^= 0xffU;
  hash_ *= 1099511628211ULL;
  return *this;
}

FingerprintBuilder& FingerprintBuilder::number(double value) {
  return text(exact_double_repr(value));
}

FingerprintBuilder& FingerprintBuilder::integer(std::uint64_t value) {
  return text(std::to_string(value));
}

void save_sweep_checkpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint) {
  support::write_file_atomically(path, "checkpoint", [&](std::ostream& os) {
    write_checkpoint(os, checkpoint);
  });
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  try {
    return read_checkpoint(support::load_json_file(path),
                           expected_fingerprint);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace neatbound::exp
