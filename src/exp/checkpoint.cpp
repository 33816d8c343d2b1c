#include "exp/checkpoint.hpp"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace neatbound::exp {

namespace {

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

std::string hex_repr(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::uint64_t parse_hex(const std::string& text, const std::string& path) {
  std::uint64_t value = 0;
  const char* first = text.c_str() + 2;
  const char* last = text.c_str() + text.size();
  const auto [end, ec] =
      text.rfind("0x", 0) == 0 && text.size() == 18
          ? std::from_chars(first, last, value, 16)
          : std::from_chars_result{nullptr, std::errc::invalid_argument};
  if (ec != std::errc{} || end != last) {
    throw std::runtime_error(path + ": malformed checkpoint fingerprint \"" +
                             text + "\"");
  }
  return value;
}

void write_stats(std::ostream& os, const stats::RunningStats& stats) {
  const stats::RunningStatsState state = stats.state();
  os << '[' << state.count << ',' << exact_double_repr(state.mean) << ','
     << exact_double_repr(state.m2) << ',' << exact_double_repr(state.min)
     << ',' << exact_double_repr(state.max) << ']';
}

stats::RunningStats read_stats(const support::JsonValue& value,
                               const std::string& path) {
  const auto& array = value.as_array();
  if (array.size() != 5) {
    throw std::runtime_error(path +
                             ": summary field must be a 5-element array "
                             "[count, mean, m2, min, max]");
  }
  stats::RunningStatsState state;
  state.count = array[0].as_uint();
  state.mean = array[1].as_number();
  state.m2 = array[2].as_number();
  state.min = array[3].as_number();
  state.max = array[4].as_number();
  return stats::RunningStats::from_state(state);
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

std::string exact_double_repr(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void save_sweep_checkpoint(const std::string& path,
                           const SweepCheckpoint& checkpoint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      throw std::runtime_error("checkpoint: cannot open " + tmp +
                               " for writing");
    }
    os << "{\n  \"format\": \"" << kFormatTag << "\",\n  \"fingerprint\": \""
       << hex_repr(checkpoint.fingerprint) << "\",\n  \"waves_done\": "
       << checkpoint.waves_done << ",\n  \"cells\": [";
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
      os << "}";
      if (telemetry::enabled()) {
        // Counters only: phase wall times are nondeterministic and must
        // not enter the resume state.  Telemetry-OFF builds skip the key
        // entirely, so their checkpoints stay byte-identical to builds
        // that predate the telemetry layer.
        os << ",\n     \"telemetry\": {\"runs\": "
           << cell.summary.telemetry.runs << ", \"counters\": [";
        for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
          os << (c == 0 ? "" : ", ") << cell.summary.telemetry.counters[c];
        }
        os << "]}";
      }
      os << "}";
    }
    os << "\n  ]\n}\n";
    if (!os.flush()) {
      throw std::runtime_error("checkpoint: write to " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: cannot rename " + tmp + " to " +
                             path);
  }
}

SweepCheckpoint load_sweep_checkpoint(const std::string& path,
                                      std::uint64_t expected_fingerprint) {
  const support::JsonValue document = support::load_json_file(path);
  const std::string format = document.at("format").as_string();
  if (format != kFormatTag) {
    throw std::runtime_error(path + ": unsupported checkpoint format \"" +
                             format + "\" (want " + kFormatTag + ")");
  }
  SweepCheckpoint checkpoint;
  checkpoint.fingerprint =
      parse_hex(document.at("fingerprint").as_string(), path);
  if (expected_fingerprint != 0 &&
      checkpoint.fingerprint != expected_fingerprint) {
    throw std::runtime_error(
        path + ": checkpoint fingerprint " +
        hex_repr(checkpoint.fingerprint) + " does not match this sweep (" +
        hex_repr(expected_fingerprint) +
        ") — grid, engine parameters, components or adaptive options "
        "changed");
  }
  checkpoint.waves_done = document.at("waves_done").as_uint();
  for (const support::JsonValue& entry : document.at("cells").as_array()) {
    CellCheckpoint cell;
    cell.seeds_done = entry.at("seeds_done").as_uint32();
    cell.violations = entry.at("violations").as_uint();
    cell.stopped = entry.at("stopped").as_bool();
    cell.stopped_early = entry.at("stopped_early").as_bool();
    const support::JsonValue& summary = entry.at("summary");
    for (const SummaryField& field : kSummaryFields) {
      cell.summary.*field.member = read_stats(summary.at(field.name), path);
    }
    // Optional key: absent in telemetry-OFF checkpoints (accumulator
    // stays all-zero) and in files written before the telemetry layer.
    if (const support::JsonValue* tel = entry.find("telemetry")) {
      cell.summary.telemetry.runs = tel->at("runs").as_uint();
      const auto& counters = tel->at("counters").as_array();
      if (counters.size() != telemetry::kCounterCount) {
        throw std::runtime_error(
            path + ": telemetry counters array has " +
            std::to_string(counters.size()) + " entries, want " +
            std::to_string(telemetry::kCounterCount));
      }
      for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
        cell.summary.telemetry.counters[c] = counters[c].as_uint();
      }
    }
    checkpoint.cells.push_back(cell);
  }
  return checkpoint;
}

}  // namespace neatbound::exp
