#include "scenario/artifact.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "scenario/runner.hpp"
#include "support/contracts.hpp"

namespace neatbound::scenario {

namespace {

using support::exact_double_repr;
using support::format_hash;
using support::json_escape;
using support::JsonValue;
using support::read_field;
using support::reject_unknown_keys;
using support::require_field;

// The reader throws bare messages; parse_artifact and load_artifact_file
// add the documented "violation artifact: " prefix.
[[noreturn]] void reject(const std::string& what) {
  throw std::runtime_error(what);
}

void write_component(std::ostream& os, const ComponentSpec& component,
                     const char* selector) {
  os << "{\"" << selector << "\":\"" << json_escape(component.kind) << '"';
  for (const auto& [key, value] : component.params.entries()) {
    os << ",\"" << json_escape(key) << "\":";
    if (value.is_bool()) {
      os << (value.as_bool() ? "true" : "false");
    } else if (value.is_number()) {
      os << exact_double_repr(value.as_number());
    } else {
      os << '"' << json_escape(value.as_string()) << '"';
    }
  }
  os << '}';
}

// --- reader helpers ---------------------------------------------------------

sim::EngineConfig parse_engine(const JsonValue& engine) {
  constexpr const char* kWhere = "engine";
  reject_unknown_keys(engine,
                      {"miners", "nu", "delta", "rounds", "p", "seed"},
                      kWhere);
  const auto uint = [&engine](const char* key) {
    return read_field(engine, key, kWhere, &JsonValue::as_uint);
  };
  sim::EngineConfig config;
  config.miner_count =
      read_field(engine, "miners", kWhere, &JsonValue::as_uint32);
  config.adversary_fraction =
      read_field(engine, "nu", kWhere, &JsonValue::as_number);
  config.p = read_field(engine, "p", kWhere, &JsonValue::as_number);
  config.delta = uint("delta");
  config.rounds = uint("rounds");
  config.seed = uint("seed");
  try {
    sim::validate_engine_config(config);
  } catch (const std::exception& e) {
    reject(std::string("engine: ") + e.what());
  }
  return config;
}

sim::OracleConfig parse_oracle_block(const JsonValue& oracle) {
  constexpr const char* kWhere = "oracle";
  reject_unknown_keys(oracle,
                      {"common_prefix", "common_prefix_t", "growth_window",
                       "growth_min_blocks", "quality_window",
                       "quality_min_ratio", "slice_rounds"},
                      kWhere);
  const auto uint = [&oracle](const char* key) {
    return read_field(oracle, key, kWhere, &JsonValue::as_uint);
  };
  sim::OracleConfig config;
  config.common_prefix =
      read_field(oracle, "common_prefix", kWhere, &JsonValue::as_bool);
  config.common_prefix_t = uint("common_prefix_t");
  config.growth_window = uint("growth_window");
  config.growth_min_blocks = uint("growth_min_blocks");
  config.quality_window = uint("quality_window");
  config.quality_min_ratio =
      read_field(oracle, "quality_min_ratio", kWhere, &JsonValue::as_number);
  config.slice_rounds = uint("slice_rounds");
  try {
    sim::validate_oracle_config(config);
  } catch (const std::exception& e) {
    reject(std::string("oracle: ") + e.what());
  }
  return config;
}

sim::OracleViolation parse_violation(const JsonValue& violation) {
  constexpr const char* kWhere = "violation";
  reject_unknown_keys(
      violation,
      {"invariant", "round", "measured", "bound", "view_a", "view_b"},
      kWhere);
  sim::OracleViolation out;
  const std::string& name =
      read_field(violation, "invariant", kWhere, &JsonValue::as_string);
  const auto kind = sim::parse_invariant_name(name);
  if (!kind) {
    reject("violation: unknown invariant \"" + name + "\"");
  }
  out.kind = *kind;
  out.round = read_field(violation, "round", kWhere, &JsonValue::as_uint);
  out.measured = read_field(violation, "measured", kWhere, &JsonValue::as_uint);
  out.bound = read_field(violation, "bound", kWhere, &JsonValue::as_uint);
  out.view_a = read_field(violation, "view_a", kWhere, &JsonValue::as_uint32);
  out.view_b = read_field(violation, "view_b", kWhere, &JsonValue::as_uint32);
  if (out.round == 0) {
    reject("violation.round: rounds are 1-based");
  }
  // The record must actually violate its bound — a doctored
  // "non-violation" would replay into a vacuous comparison.
  if (out.kind == sim::InvariantKind::kCommonPrefix) {
    if (out.measured <= out.bound) {
      reject("violation: common-prefix needs measured > bound");
    }
  } else if (out.measured >= out.bound) {
    reject("violation: window invariants need measured < bound");
  }
  return out;
}

sim::ViewSnapshot parse_view(const JsonValue& view, std::size_t index) {
  const std::string where = support::json_path("views", index);
  reject_unknown_keys(view, {"miner", "tip", "height", "hash"}, where);
  sim::ViewSnapshot snapshot;
  snapshot.miner = read_field(view, "miner", where, &JsonValue::as_uint32);
  snapshot.tip = read_field(view, "tip", where, &JsonValue::as_uint32);
  snapshot.height = read_field(view, "height", where, &JsonValue::as_uint);
  snapshot.hash = read_field(view, "hash", where, &JsonValue::as_hash);
  if (snapshot.miner != index) {
    reject(where + ": views must be in miner order (0, 1, ...)");
  }
  return snapshot;
}

ViolationArtifact read_artifact(const JsonValue& document) {
  constexpr const char* kWhere = "document";
  reject_unknown_keys(document,
                      {"format", "engine", "violation_t", "oracle",
                       "adversary", "network", "violation", "views", "trace"},
                      kWhere);
  const auto member = [&document](const char* key) -> const JsonValue& {
    return require_field(document, key, kWhere);
  };
  const std::string& format =
      read_field(document, "format", kWhere, &JsonValue::as_string);
  if (format != kArtifactFormat) {
    reject("unsupported format \"" + format + "\" (expected \"" +
           std::string(kArtifactFormat) + "\")");
  }
  ViolationArtifact artifact;
  artifact.engine = parse_engine(member("engine"));
  artifact.violation_t =
      read_field(document, "violation_t", kWhere, &JsonValue::as_uint);
  artifact.oracle = parse_oracle_block(member("oracle"));
  artifact.adversary =
      parse_component(member("adversary"), "strategy", nullptr, "adversary");
  artifact.network =
      parse_component(member("network"), "model", nullptr, "network");
  artifact.violation = parse_violation(member("violation"));
  if (artifact.violation.round > artifact.engine.rounds) {
    reject("violation.round: " + std::to_string(artifact.violation.round) +
           " exceeds engine rounds " + std::to_string(artifact.engine.rounds));
  }
  const std::uint32_t honest = sim::honest_miner_count(artifact.engine);
  const std::pair<const char*, std::uint32_t> offending[] = {
      {"view_a", artifact.violation.view_a},
      {"view_b", artifact.violation.view_b}};
  for (const auto& [key, view] : offending) {
    if (view >= honest) {
      reject(std::string("violation.") + key + ": view " +
             std::to_string(view) + " out of honest range (" +
             std::to_string(honest) + " honest miners)");
    }
  }

  const JsonValue::Array& views =
      read_field(document, "views", kWhere, &JsonValue::as_array);
  for (std::size_t i = 0; i < views.size(); ++i) {
    artifact.views.push_back(parse_view(views[i], i));
  }
  if (artifact.views.size() != honest) {
    reject("views: expected one snapshot per honest miner (" +
           std::to_string(honest) + "), got " +
           std::to_string(artifact.views.size()));
  }

  const JsonValue::Array& trace =
      read_field(document, "trace", kWhere, &JsonValue::as_array);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    try {
      artifact.slice.push_back(sim::round_record_from_json(trace[i]));
    } catch (const std::exception& e) {
      reject("trace[" + std::to_string(i) + "]: " + e.what());
    }
  }
  // The slice must be exactly the contiguous window the oracle freezes:
  // min(round, slice_rounds) records, consecutive, ending at the
  // violating round.  Anything else is truncation or tampering.
  const std::uint64_t expected =
      std::min(artifact.violation.round, artifact.oracle.slice_rounds);
  if (artifact.slice.size() != expected) {
    reject("trace: expected " + std::to_string(expected) + " records, got " +
           std::to_string(artifact.slice.size()));
  }
  for (std::size_t i = 0; i < artifact.slice.size(); ++i) {
    const std::uint64_t want =
        artifact.violation.round - expected + 1 + i;
    if (artifact.slice[i].round != want) {
      reject("trace[" + std::to_string(i) + "]: expected round " +
             std::to_string(want) + ", got " +
             std::to_string(artifact.slice[i].round));
    }
    if (i > 0) {
      try {
        sim::check_record_order(artifact.slice[i - 1], artifact.slice[i]);
      } catch (const std::exception& e) {
        reject("trace[" + std::to_string(i) + "]: " + e.what());
      }
    }
  }
  // The tracker's running maximum at the first violating round is that
  // round's depth, so the slice must end on the measured value.
  if (artifact.violation.kind == sim::InvariantKind::kCommonPrefix &&
      !artifact.slice.empty() &&
      artifact.slice.back().violation_depth != artifact.violation.measured) {
    reject("trace: last record has violation_depth " +
           std::to_string(artifact.slice.back().violation_depth) +
           ", violation measured " +
           std::to_string(artifact.violation.measured));
  }
  return artifact;
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
     << ",\"nu\":" << exact_double_repr(artifact.engine.adversary_fraction)
     << ",\"delta\":" << u(artifact.engine.delta)
     << ",\"rounds\":" << u(artifact.engine.rounds)
     << ",\"p\":" << exact_double_repr(artifact.engine.p)
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
     << exact_double_repr(oracle.quality_min_ratio)
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
       << format_hash(view.hash) << "\"}";
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
  support::write_file_atomically(
      path, "violation artifact",
      [&artifact](std::ostream& os) { write_artifact(os, artifact); });
}

ViolationArtifact parse_artifact(const JsonValue& document) {
  try {
    return read_artifact(document);
  } catch (const std::runtime_error& e) {
    reject(std::string("violation artifact: ") + e.what());
  }
}

ViolationArtifact parse_artifact(std::string_view text) {
  try {
    return read_artifact(support::parse_json(text));
  } catch (const std::runtime_error& e) {
    reject(std::string("violation artifact: ") + e.what());
  }
}

ViolationArtifact load_artifact_file(const std::string& path) {
  try {
    return read_artifact(support::load_json_file(path));
  } catch (const std::runtime_error& e) {
    reject(std::string("violation artifact: ") + e.what() + " [" + path + "]");
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
          std::to_string(views[i].height) + " hash " +
          format_hash(views[i].hash) + ", artifact tip " +
          std::to_string(artifact.views[i].tip) + " height " +
          std::to_string(artifact.views[i].height) + " hash " +
          format_hash(artifact.views[i].hash));
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
  const sim::AdversaryFactory factory = spec_adversary_factory(spec, registry);
  OracleScanResult result;
  for (std::size_t cell = 0; cell < grid.size(); ++cell) {
    const sim::ExperimentConfig cell_config =
        build_config(spec, grid.point(cell));
    for (std::uint32_t seed_index = 0; seed_index < spec.seeds; ++seed_index) {
      if (max_runs != 0 && result.runs_scanned >= max_runs) return result;
      sim::EngineConfig engine_config = cell_config.engine;
      engine_config.seed = spec.base_seed + seed_index;
      sim::InvariantOracle oracle(oracle_config);
      sim::ExecutionEngine engine(engine_config, factory(engine_config));
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
