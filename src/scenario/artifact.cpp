#include "scenario/artifact.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "exp/checkpoint.hpp"
#include "scenario/runner.hpp"
#include "support/contracts.hpp"

namespace neatbound::scenario {

namespace {

[[noreturn]] void artifact_error(const std::string& what) {
  throw std::runtime_error("violation artifact: " + what);
}

void reject_unknown_keys(const JsonValue& object,
                         const std::set<std::string>& known,
                         const std::string& where) {
  for (const auto& [key, value] : object.as_object()) {
    if (known.count(key) == 0) {
      artifact_error(where + ": unknown key \"" + key + "\"");
    }
  }
}

const JsonValue& require(const JsonValue& object, const char* key,
                         const std::string& where) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    artifact_error(where + ": missing key \"" + key + "\"");
  }
  return *value;
}

/// A required 32-bit field; a value past 2^32 is refused, never narrowed.
std::uint32_t require_uint32(const JsonValue& object, const char* key,
                             const std::string& where) {
  const JsonValue& value = require(object, key, where);
  try {
    return value.as_uint32();
  } catch (const std::exception& e) {
    artifact_error(where + "." + key + ": " + e.what());
  }
}

// --- writer helpers ---------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Fixed-width hex for hashes: 64-bit values exceed the double-exact
/// integer range, so they travel as strings, never JSON numbers.
std::string hex16(std::uint64_t value) {
  std::string out = "0x";
  constexpr const char* kHex = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(value >> shift) & 0xF];
  }
  return out;
}

std::uint64_t parse_hex16(const std::string& text, const std::string& where) {
  if (text.size() != 18 || text[0] != '0' || text[1] != 'x') {
    artifact_error(where + ": expected an 0x + 16-hex-digit hash, got \"" +
                   text + "\"");
  }
  std::uint64_t value = 0;
  for (std::size_t i = 2; i < text.size(); ++i) {
    const char c = text[i];
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      artifact_error(where + ": bad hex digit in \"" + text + "\"");
    }
  }
  return value;
}

void write_component(std::ostream& os, const ComponentSpec& component,
                     const char* selector) {
  os << "{\"" << selector << "\":\"" << json_escape(component.kind) << '"';
  for (const auto& [key, value] : component.params.entries()) {
    os << ",\"" << json_escape(key) << "\":";
    if (value.is_bool()) {
      os << (value.as_bool() ? "true" : "false");
    } else if (value.is_number()) {
      os << exp::exact_double_repr(value.as_number());
    } else {
      os << '"' << json_escape(value.as_string()) << '"';
    }
  }
  os << '}';
}

// --- reader helpers ---------------------------------------------------------

sim::EngineConfig parse_engine(const JsonValue& engine) {
  reject_unknown_keys(engine,
                      {"miners", "nu", "delta", "rounds", "p", "seed"},
                      "engine");
  sim::EngineConfig config;
  config.miner_count = require_uint32(engine, "miners", "engine");
  config.adversary_fraction = require(engine, "nu", "engine").as_number();
  config.p = require(engine, "p", "engine").as_number();
  config.delta = require(engine, "delta", "engine").as_uint();
  config.rounds = require(engine, "rounds", "engine").as_uint();
  config.seed = require(engine, "seed", "engine").as_uint();
  try {
    sim::validate_engine_config(config);
  } catch (const std::exception& e) {
    artifact_error(std::string("engine: ") + e.what());
  }
  return config;
}

sim::OracleConfig parse_oracle_block(const JsonValue& oracle) {
  reject_unknown_keys(oracle,
                      {"common_prefix", "common_prefix_t", "growth_window",
                       "growth_min_blocks", "quality_window",
                       "quality_min_ratio", "slice_rounds"},
                      "oracle");
  sim::OracleConfig config;
  config.common_prefix = require(oracle, "common_prefix", "oracle").as_bool();
  config.common_prefix_t =
      require(oracle, "common_prefix_t", "oracle").as_uint();
  config.growth_window = require(oracle, "growth_window", "oracle").as_uint();
  config.growth_min_blocks =
      require(oracle, "growth_min_blocks", "oracle").as_uint();
  config.quality_window =
      require(oracle, "quality_window", "oracle").as_uint();
  config.quality_min_ratio =
      require(oracle, "quality_min_ratio", "oracle").as_number();
  config.slice_rounds = require(oracle, "slice_rounds", "oracle").as_uint();
  try {
    sim::validate_oracle_config(config);
  } catch (const std::exception& e) {
    artifact_error(std::string("oracle: ") + e.what());
  }
  return config;
}

ComponentSpec parse_component(const JsonValue& object, const char* selector,
                              const std::string& where) {
  if (!object.is_object()) {
    artifact_error(where + ": expected a JSON object");
  }
  ComponentSpec component;
  component.kind = require(object, selector, where).as_string();
  if (component.kind.empty()) {
    artifact_error(where + ": \"" + std::string(selector) +
                   "\" must not be empty");
  }
  component.params = Params::from_object(object, {selector});
  return component;
}

sim::OracleViolation parse_violation(const JsonValue& violation) {
  reject_unknown_keys(
      violation,
      {"invariant", "round", "measured", "bound", "view_a", "view_b"},
      "violation");
  sim::OracleViolation out;
  const std::string name =
      require(violation, "invariant", "violation").as_string();
  const auto kind = sim::parse_invariant_name(name);
  if (!kind) {
    artifact_error("violation: unknown invariant \"" + name + "\"");
  }
  out.kind = *kind;
  out.round = require(violation, "round", "violation").as_uint();
  out.measured = require(violation, "measured", "violation").as_uint();
  out.bound = require(violation, "bound", "violation").as_uint();
  out.view_a = require_uint32(violation, "view_a", "violation");
  out.view_b = require_uint32(violation, "view_b", "violation");
  if (out.round == 0) {
    artifact_error("violation: rounds are 1-based");
  }
  // The record must actually violate its bound — a doctored
  // "non-violation" would replay into a vacuous comparison.
  if (out.kind == sim::InvariantKind::kCommonPrefix) {
    if (out.measured <= out.bound) {
      artifact_error("violation: common-prefix needs measured > bound");
    }
  } else if (out.measured >= out.bound) {
    artifact_error("violation: window invariants need measured < bound");
  }
  return out;
}

sim::ViewSnapshot parse_view(const JsonValue& view, std::size_t index) {
  const std::string where = "views[" + std::to_string(index) + "]";
  if (!view.is_object()) artifact_error(where + ": expected a JSON object");
  reject_unknown_keys(view, {"miner", "tip", "height", "hash"}, where);
  sim::ViewSnapshot snapshot;
  snapshot.miner = require_uint32(view, "miner", where);
  snapshot.tip = require_uint32(view, "tip", where);
  snapshot.height = require(view, "height", where).as_uint();
  snapshot.hash = parse_hex16(require(view, "hash", where).as_string(), where);
  if (snapshot.miner != index) {
    artifact_error(where + ": views must be in miner order (0, 1, ...)");
  }
  return snapshot;
}

}  // namespace

ViolationArtifact build_artifact(const sim::EngineConfig& engine,
                                 std::uint64_t violation_t,
                                 const ComponentSpec& adversary,
                                 const ComponentSpec& network,
                                 const sim::InvariantOracle& oracle) {
  NEATBOUND_EXPECTS(oracle.violated(),
                    "build_artifact needs a tripped oracle");
  ViolationArtifact artifact;
  artifact.engine = engine;
  artifact.violation_t = violation_t;
  artifact.oracle = oracle.config();
  artifact.adversary = adversary;
  artifact.network = network;
  artifact.violation = oracle.first_violation();
  artifact.views = oracle.violating_views();
  artifact.slice = oracle.violation_slice();
  return artifact;
}

void write_artifact(std::ostream& os, const ViolationArtifact& artifact) {
  const auto u = [](std::uint64_t value) { return std::to_string(value); };
  os << "{\n";
  os << "\"format\":\"" << kArtifactFormat << "\",\n";
  os << "\"engine\":{\"miners\":" << artifact.engine.miner_count
     << ",\"nu\":" << exp::exact_double_repr(artifact.engine.adversary_fraction)
     << ",\"delta\":" << u(artifact.engine.delta)
     << ",\"rounds\":" << u(artifact.engine.rounds)
     << ",\"p\":" << exp::exact_double_repr(artifact.engine.p)
     << ",\"seed\":" << u(artifact.engine.seed) << "},\n";
  os << "\"violation_t\":" << u(artifact.violation_t) << ",\n";
  const sim::OracleConfig& oracle = artifact.oracle;
  os << "\"oracle\":{\"common_prefix\":"
     << (oracle.common_prefix ? "true" : "false")
     << ",\"common_prefix_t\":" << u(oracle.common_prefix_t)
     << ",\"growth_window\":" << u(oracle.growth_window)
     << ",\"growth_min_blocks\":" << u(oracle.growth_min_blocks)
     << ",\"quality_window\":" << u(oracle.quality_window)
     << ",\"quality_min_ratio\":"
     << exp::exact_double_repr(oracle.quality_min_ratio)
     << ",\"slice_rounds\":" << u(oracle.slice_rounds) << "},\n";
  os << "\"adversary\":";
  write_component(os, artifact.adversary, "strategy");
  os << ",\n\"network\":";
  write_component(os, artifact.network, "model");
  os << ",\n";
  const sim::OracleViolation& violation = artifact.violation;
  os << "\"violation\":{\"invariant\":\"" << sim::invariant_name(violation.kind)
     << "\",\"round\":" << u(violation.round)
     << ",\"measured\":" << u(violation.measured)
     << ",\"bound\":" << u(violation.bound)
     << ",\"view_a\":" << violation.view_a
     << ",\"view_b\":" << violation.view_b << "},\n";
  os << "\"views\":[";
  for (std::size_t i = 0; i < artifact.views.size(); ++i) {
    const sim::ViewSnapshot& view = artifact.views[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "{\"miner\":" << view.miner << ",\"tip\":" << view.tip
       << ",\"height\":" << u(view.height) << ",\"hash\":\""
       << hex16(view.hash) << "\"}";
  }
  os << "\n],\n";
  os << "\"trace\":[";
  for (std::size_t i = 0; i < artifact.slice.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << sim::to_jsonl_line(artifact.slice[i]);
  }
  os << "\n]\n}\n";
}

void write_artifact_file(const std::string& path,
                         const ViolationArtifact& artifact) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      artifact_error("cannot open " + tmp + " for writing");
    }
    write_artifact(os, artifact);
    os.flush();
    if (!os) {
      artifact_error("write to " + tmp + " failed");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    artifact_error("cannot rename " + tmp + " to " + path);
  }
}

ViolationArtifact parse_artifact(const JsonValue& document) {
  if (!document.is_object()) {
    artifact_error("expected a JSON object");
  }
  reject_unknown_keys(document,
                      {"format", "engine", "violation_t", "oracle",
                       "adversary", "network", "violation", "views", "trace"},
                      "document");
  const std::string format =
      require(document, "format", "document").as_string();
  if (format != kArtifactFormat) {
    artifact_error("unsupported format \"" + format + "\" (expected \"" +
                   std::string(kArtifactFormat) + "\")");
  }
  ViolationArtifact artifact;
  artifact.engine = parse_engine(require(document, "engine", "document"));
  artifact.violation_t =
      require(document, "violation_t", "document").as_uint();
  artifact.oracle =
      parse_oracle_block(require(document, "oracle", "document"));
  artifact.adversary = parse_component(
      require(document, "adversary", "document"), "strategy", "adversary");
  artifact.network = parse_component(require(document, "network", "document"),
                                     "model", "network");
  artifact.violation =
      parse_violation(require(document, "violation", "document"));
  if (artifact.violation.round > artifact.engine.rounds) {
    artifact_error("violation: round " +
                   std::to_string(artifact.violation.round) +
                   " exceeds engine rounds " +
                   std::to_string(artifact.engine.rounds));
  }
  const std::uint32_t honest = sim::honest_miner_count(artifact.engine);
  if (artifact.violation.view_a >= honest ||
      artifact.violation.view_b >= honest) {
    artifact_error("violation: offending view out of honest range");
  }

  const JsonValue& views = require(document, "views", "document");
  std::size_t index = 0;
  for (const JsonValue& entry : views.as_array()) {
    artifact.views.push_back(parse_view(entry, index));
    ++index;
  }
  if (artifact.views.size() != honest) {
    artifact_error("views: expected one snapshot per honest miner (" +
                   std::to_string(honest) + "), got " +
                   std::to_string(artifact.views.size()));
  }

  const JsonValue& trace = require(document, "trace", "document");
  index = 0;
  for (const JsonValue& entry : trace.as_array()) {
    try {
      artifact.slice.push_back(sim::round_record_from_json(entry));
    } catch (const std::exception& e) {
      artifact_error("trace[" + std::to_string(index) + "]: " + e.what());
    }
    ++index;
  }
  // The slice must be exactly the contiguous window the oracle freezes:
  // min(round, slice_rounds) records, consecutive, ending at the
  // violating round.  Anything else is truncation or tampering.
  const std::uint64_t expected =
      std::min(artifact.violation.round, artifact.oracle.slice_rounds);
  if (artifact.slice.size() != expected) {
    artifact_error("trace: expected " + std::to_string(expected) +
                   " records, got " + std::to_string(artifact.slice.size()));
  }
  for (std::size_t i = 0; i < artifact.slice.size(); ++i) {
    const std::uint64_t want =
        artifact.violation.round - expected + 1 + i;
    if (artifact.slice[i].round != want) {
      artifact_error("trace[" + std::to_string(i) + "]: expected round " +
                     std::to_string(want) + ", got " +
                     std::to_string(artifact.slice[i].round));
    }
  }
  return artifact;
}

ViolationArtifact parse_artifact(std::string_view text) {
  JsonValue document;
  try {
    document = parse_json(text);
  } catch (const std::exception& e) {
    artifact_error(e.what());
  }
  return parse_artifact(document);
}

ViolationArtifact load_artifact_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    artifact_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  try {
    return parse_artifact(std::string_view{buffer.view()});
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " [" + path + "]");
  }
}

ReplayResult replay_artifact(const ViolationArtifact& artifact,
                             const ScenarioRegistry& registry) {
  // Prefix determinism: the trajectory of rounds 1..r does not depend on
  // the configured total round count (checked against the full-length
  // original by tests/scenario/test_artifact.cpp), so replay runs
  // exactly to the violating round.
  sim::EngineConfig config = artifact.engine;
  config.rounds = artifact.violation.round;
  sim::InvariantOracle oracle(artifact.oracle);
  sim::ExecutionEngine engine(
      config,
      registry.make_adversary(artifact.network.kind, artifact.network.params,
                              artifact.adversary.kind,
                              artifact.adversary.params, config));
  (void)engine.run(oracle.observer());

  ReplayResult result;
  result.violated = oracle.violated();
  if (!result.violated) {
    result.mismatches.push_back(
        "replay ran " + std::to_string(config.rounds) +
        " rounds without tripping the oracle");
    return result;
  }
  result.violation = oracle.first_violation();
  const sim::OracleViolation& got = result.violation;
  const sim::OracleViolation& want = artifact.violation;
  if (!(got == want)) {
    result.mismatches.push_back(
        std::string("violation differs: replay saw ") +
        sim::invariant_name(got.kind) + " at round " +
        std::to_string(got.round) + " (measured " +
        std::to_string(got.measured) + ", bound " +
        std::to_string(got.bound) + ", views " + std::to_string(got.view_a) +
        "/" + std::to_string(got.view_b) + "), artifact says " +
        sim::invariant_name(want.kind) + " at round " +
        std::to_string(want.round) + " (measured " +
        std::to_string(want.measured) + ", bound " +
        std::to_string(want.bound) + ", views " +
        std::to_string(want.view_a) + "/" + std::to_string(want.view_b) +
        ")");
  }
  const auto& views = oracle.violating_views();
  if (views.size() != artifact.views.size()) {
    result.mismatches.push_back(
        "view count differs: replay has " + std::to_string(views.size()) +
        ", artifact has " + std::to_string(artifact.views.size()));
  } else {
    for (std::size_t i = 0; i < views.size(); ++i) {
      if (views[i] == artifact.views[i]) continue;
      result.mismatches.push_back(
          "view " + std::to_string(i) + " differs: replay tip " +
          std::to_string(views[i].tip) + " height " +
          std::to_string(views[i].height) + " hash " + hex16(views[i].hash) +
          ", artifact tip " + std::to_string(artifact.views[i].tip) +
          " height " + std::to_string(artifact.views[i].height) + " hash " +
          hex16(artifact.views[i].hash));
    }
  }
  const auto& slice = oracle.violation_slice();
  if (slice.size() != artifact.slice.size()) {
    result.mismatches.push_back(
        "trace slice length differs: replay has " +
        std::to_string(slice.size()) + ", artifact has " +
        std::to_string(artifact.slice.size()));
  } else {
    for (std::size_t i = 0; i < slice.size(); ++i) {
      // Serialized equality is exact field equality (all-integer schema).
      const std::string got_line = sim::to_jsonl_line(slice[i]);
      const std::string want_line = sim::to_jsonl_line(artifact.slice[i]);
      if (got_line == want_line) continue;
      result.mismatches.push_back("trace record " + std::to_string(i) +
                                  " differs: replay " + got_line +
                                  ", artifact " + want_line);
    }
  }
  result.reproduced = result.mismatches.empty();
  return result;
}

sim::OracleConfig resolve_oracle_config(const ScenarioSpec& spec) {
  const OracleSpec defaults;
  const OracleSpec& block = spec.oracle ? *spec.oracle : defaults;
  const auto armed = [&block](const char* name) {
    for (const std::string& entry : block.invariants) {
      if (entry == name) return true;
    }
    return false;
  };
  sim::OracleConfig config;
  config.common_prefix = armed("common-prefix");
  config.common_prefix_t =
      block.common_prefix_t.value_or(spec.violation_t);
  config.growth_window = armed("chain-growth") ? block.growth_window : 0;
  config.growth_min_blocks = block.growth_min_blocks;
  config.quality_window = armed("chain-quality") ? block.quality_window : 0;
  config.quality_min_ratio = block.quality_min_ratio;
  config.slice_rounds = block.slice_rounds;
  sim::validate_oracle_config(config);
  return config;
}

OracleScanResult run_scenario_oracle(const ScenarioSpec& spec,
                                     const ScenarioRegistry& registry,
                                     std::uint64_t max_runs) {
  const sim::OracleConfig oracle_config = resolve_oracle_config(spec);
  const exp::SweepGrid grid = build_grid(spec);
  OracleScanResult result;
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    const sim::ExperimentConfig cell_config =
        build_config(spec, grid.point(cell));
    for (std::uint32_t seed_index = 0; seed_index < spec.seeds; ++seed_index) {
      if (max_runs != 0 && result.runs_scanned >= max_runs) return result;
      sim::EngineConfig engine_config = cell_config.engine;
      engine_config.seed = spec.base_seed + seed_index;
      sim::InvariantOracle oracle(oracle_config);
      sim::ExecutionEngine engine(
          engine_config,
          registry.make_adversary(spec.network.kind, spec.network.params,
                                  spec.adversary.kind, spec.adversary.params,
                                  engine_config));
      (void)engine.run(oracle.observer());
      ++result.runs_scanned;
      if (oracle.violated()) {
        result.cell_index = cell;
        result.seed_index = seed_index;
        result.artifact =
            build_artifact(engine_config, spec.violation_t, spec.adversary,
                           spec.network, oracle);
        return result;
      }
    }
  }
  return result;
}

}  // namespace neatbound::scenario
