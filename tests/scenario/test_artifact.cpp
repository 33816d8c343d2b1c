// Violation-artifact tests: the scan→freeze→serialize→parse→replay
// round trip must be lossless and deterministic, and the strict reader
// must reject truncated or hand-tampered artifacts with errors naming
// the offence instead of replaying them into nonsense.
#include "scenario/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/oracle.hpp"
#include "support/contracts.hpp"

namespace neatbound::scenario {
namespace {

/// A small spec on the unsafe side of the neat bound (multiple < 1):
/// the scan trips within the first seed or two.
ScenarioSpec violent_spec() {
  return parse_scenario(R"json({
    "name": "artifact_test",
    "engine": {"miners": 12, "nu": 0.4, "delta": 3, "rounds": 400},
    "axes": [{"name": "multiple", "values": [0.2]}],
    "hardness": {"mode": "neat-bound-multiple"},
    "seeds": 6,
    "base_seed": 611,
    "violation_t": 3,
    "oracle": {"invariants": ["common-prefix"], "slice_rounds": 24},
    "adversary": {"strategy": "fork-balancer"},
    "network": {"model": "strategy"}
  })json");
}

ViolationArtifact scan_one() {
  const ScenarioSpec spec = violent_spec();
  const auto& registry = ScenarioRegistry::builtin();
  const OracleScanResult scan = run_scenario_oracle(spec, registry, 0);
  EXPECT_TRUE(scan.artifact.has_value())
      << "the falsification cell must actually trip the oracle";
  return *scan.artifact;
}

std::string serialize(const ViolationArtifact& artifact) {
  std::ostringstream os;
  write_artifact(os, artifact);
  return os.str();
}

TEST(Artifact, ScanSerializeParseReplayRoundTrips) {
  const ViolationArtifact original = scan_one();
  EXPECT_EQ(original.violation.kind, sim::InvariantKind::kCommonPrefix);
  EXPECT_GT(original.violation.measured, original.oracle.common_prefix_t);
  EXPECT_EQ(original.views.size(), sim::honest_miner_count(original.engine));

  const std::string text = serialize(original);
  const ViolationArtifact parsed = parse_artifact(text);

  // Parse is lossless: re-serializing the parsed artifact reproduces the
  // exact bytes (doubles go through %.17g both ways).
  EXPECT_EQ(serialize(parsed), text);
  EXPECT_EQ(parsed.violation, original.violation);
  ASSERT_EQ(parsed.views.size(), original.views.size());
  for (std::size_t i = 0; i < parsed.views.size(); ++i) {
    EXPECT_EQ(parsed.views[i], original.views[i]) << "view " << i;
  }
  EXPECT_EQ(parsed.slice.size(), original.slice.size());
  EXPECT_EQ(parsed.engine.seed, original.engine.seed);
  EXPECT_EQ(parsed.adversary.kind, original.adversary.kind);
  EXPECT_EQ(parsed.network.kind, original.network.kind);

  const ReplayResult replay =
      replay_artifact(parsed, ScenarioRegistry::builtin());
  EXPECT_TRUE(replay.violated);
  EXPECT_TRUE(replay.reproduced)
      << (replay.mismatches.empty() ? std::string("(no mismatches?)")
                                    : replay.mismatches.front());
  EXPECT_TRUE(replay.mismatches.empty());
  EXPECT_EQ(replay.violation, original.violation);
}

TEST(Artifact, ReplayIsDeterministicAcrossRepeats) {
  const ViolationArtifact artifact = scan_one();
  const auto& registry = ScenarioRegistry::builtin();
  const ReplayResult first = replay_artifact(artifact, registry);
  const ReplayResult second = replay_artifact(artifact, registry);
  EXPECT_TRUE(first.reproduced);
  EXPECT_TRUE(second.reproduced);
  EXPECT_EQ(first.violation, second.violation);
}

TEST(Artifact, TamperedViewIsCaughtByReplay) {
  ViolationArtifact artifact = scan_one();
  // A plausible-looking but wrong view height: the strict reader cannot
  // see it (it is internally consistent), but replay must.
  artifact.views.front().height += 1;
  const ReplayResult replay =
      replay_artifact(artifact, ScenarioRegistry::builtin());
  EXPECT_TRUE(replay.violated);
  EXPECT_FALSE(replay.reproduced);
  ASSERT_FALSE(replay.mismatches.empty());
  EXPECT_NE(replay.mismatches.front().find("view"), std::string::npos);
}

TEST(Artifact, TamperedSeedIsCaughtByReplay) {
  ViolationArtifact artifact = scan_one();
  artifact.engine.seed += 1;
  const ReplayResult replay =
      replay_artifact(artifact, ScenarioRegistry::builtin());
  // A different seed almost surely diverges somewhere; whatever happens,
  // it must not claim reproduction of the original verdict.
  EXPECT_FALSE(replay.reproduced);
  EXPECT_FALSE(replay.mismatches.empty());
}

/// Parsing `text` must fail with the documented prefix and name `key`,
/// the offending key (or, for a document that is not JSON, "JSON").
void expect_rejected(const std::string& text, const std::string& what,
                     const std::string& key) {
  try {
    (void)parse_artifact(text);
    FAIL() << "parse accepted a corrupt artifact (" << what << ")";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_EQ(message.rfind("violation artifact: ", 0), 0u)
        << what << ": error should carry the artifact prefix, got: "
        << message;
    EXPECT_NE(message.find(key), std::string::npos)
        << what << ": error should name \"" << key << "\", got: " << message;
  }
}

/// [begin, end) of the first `"key":<value>` member in `text`.
std::pair<std::size_t, std::size_t> member_span(const std::string& text,
                                                const std::string& key) {
  const auto begin = text.find("\"" + key + "\":");
  EXPECT_NE(begin, std::string::npos) << key;
  if (begin == std::string::npos) return {0, 0};
  std::size_t end = begin + key.size() + 3;
  if (text[end] == '{' || text[end] == '[') {
    int depth = 0;
    do {
      if (text[end] == '{' || text[end] == '[') ++depth;
      if (text[end] == '}' || text[end] == ']') --depth;
      ++end;
    } while (depth > 0);
  } else if (text[end] == '"') {
    end = text.find('"', end + 1) + 1;
  } else {
    end = text.find_first_of(",}\n", end);
  }
  return {begin, end};
}

/// `text` with the first `"key"` member's value replaced by `value`.
std::string with_value(std::string text, const std::string& key,
                       const std::string& value) {
  const auto [begin, end] = member_span(text, key);
  const std::size_t start = begin + key.size() + 3;
  return text.replace(start, end - start, value);
}

/// `text` with the first `"key"` member (and one separating comma) removed.
std::string without(std::string text, const std::string& key) {
  auto [begin, end] = member_span(text, key);
  if (begin > 0 && text[begin - 1] == ',') --begin;
  else if (text[end] == ',') ++end;
  return text.erase(begin, end - begin);
}

/// `text` with the first `"key":<n>` rewritten to n + 2^32: a value a
/// bare 32-bit cast would silently truncate back to the original n.
std::string widened(const std::string& text, const std::string& key) {
  const std::size_t start = member_span(text, key).first + key.size() + 3;
  const std::uint64_t value = std::stoull(text.substr(start));
  return with_value(text, key,
                    std::to_string(value + (std::uint64_t{1} << 32)));
}

TEST(Artifact, StrictReaderRejectsCorruptDocuments) {
  const std::string good = serialize(scan_one());

  // Truncation: cut the document mid-way.
  expect_rejected(good.substr(0, good.size() / 2), "truncated JSON", "JSON");

  // Wrong format tag, including the retired v2 schema (engine.rng).
  for (const char* tag : {"neatbound-violation-v2", "neatbound-violation-v9"}) {
    expect_rejected(with_value(good, "format", std::string("\"") + tag + "\""),
                    tag, "format");
  }

  // 32-bit fields past 2^32 are refused, never truncated.
  for (const char* key : {"miners", "view_a", "view_b", "miner", "tip"}) {
    expect_rejected(widened(good, key), std::string(key) + " past 2^32", key);
  }

  // A value of the wrong JSON kind at a known key, one per kind mismatch.
  const std::pair<const char*, const char*> wrong_kinds[] = {
      {"rounds", "-1"},       {"nu", "\"x\""},     {"views", "5"},
      {"format", "3"},        {"hash", "1"},       {"invariant", "1"},
      {"common_prefix", "1"}, {"engine", "[]"},
  };
  for (const auto& [key, value] : wrong_kinds) {
    expect_rejected(with_value(good, key, value),
                    std::string(key) + " = " + value, key);
  }

  // Key sets are exact: an unknown top-level key, and missing keys at
  // the top level, in engine, in a view and in a slice record.
  {
    std::string bad = good;
    bad.insert(member_span(good, "format").first, "\"surprise\":1,");
    expect_rejected(bad, "unknown key", "surprise");
  }
  for (const char* key : {"violation_t", "seed", "tip", "delivered"}) {
    expect_rejected(without(good, key), std::string("missing ") + key, key);
  }

  // Values the engine config refuses, and an unknown invariant name.
  expect_rejected(with_value(good, "nu", "-0.4"), "negative nu", "nu");
  expect_rejected(with_value(good, "invariant", "\"common-suffix\""),
                  "unknown invariant", "invariant");

  // Internally inconsistent artifacts: the violation tuple, the views
  // and the trace slice must agree with each other and with the rules
  // of a round trace.
  using Tamper = void (*)(ViolationArtifact&);
  struct Case {
    const char* what;
    const char* key;
    Tamper tamper;
  };
  const Case tampers[] = {
      {"non-violating common-prefix", "measured",
       [](ViolationArtifact& a) { a.violation.measured = a.violation.bound; }},
      {"non-violating chain-growth", "measured",
       [](ViolationArtifact& a) {
         a.violation.kind = sim::InvariantKind::kChainGrowth;
         a.violation.measured = a.violation.bound;
       }},
      {"violation round 0", "round",
       [](ViolationArtifact& a) { a.violation.round = 0; }},
      {"violation after the last round", "round",
       [](ViolationArtifact& a) {
         a.violation.round = a.engine.rounds + 1;
       }},
      {"view_b out of range", "view_b",
       [](ViolationArtifact& a) {
         a.violation.view_b = static_cast<std::uint32_t>(a.views.size());
       }},
      {"views out of miner order", "miner",
       [](ViolationArtifact& a) { a.views[1].miner = 7; }},
      {"missing view", "views",
       [](ViolationArtifact& a) { a.views.pop_back(); }},
      {"slice/violation round mismatch", "round",
       [](ViolationArtifact& a) { a.slice.back().round += 1; }},
      {"short slice", "trace",
       [](ViolationArtifact& a) { a.slice.erase(a.slice.begin()); }},
      {"slice round 0", "round",
       [](ViolationArtifact& a) { a.slice.front().round = 0; }},
      {"best_height decreases", "best_height",
       [](ViolationArtifact& a) {
         a.slice.front().best_height = a.slice[1].best_height + 1;
       }},
      {"violation_depth decreases", "violation_depth",
       [](ViolationArtifact& a) {
         a.slice.front().violation_depth = a.slice[1].violation_depth + 1;
       }},
      {"unexplained adoption", "adoptions",
       [](ViolationArtifact& a) {
         sim::RoundRecord& last = a.slice.back();
         last.adoptions = last.delivered + last.honest_mined + 1;
       }},
      {"slice depth != measured", "violation_depth",
       [](ViolationArtifact& a) {
         a.slice.back().violation_depth = a.violation.measured + 1;
       }},
  };
  for (const Case& c : tampers) {
    ViolationArtifact bad = scan_one();
    ASSERT_GT(bad.slice.size(), 1u);
    ASSERT_GT(bad.views.size(), 1u);
    ASSERT_EQ(bad.violation.kind, sim::InvariantKind::kCommonPrefix);
    c.tamper(bad);
    expect_rejected(serialize(bad), c.what, c.key);
  }

  // A mangled hash string.
  {
    std::string bad = good;
    const auto pos = bad.find("\"hash\":\"0x");
    ASSERT_NE(pos, std::string::npos);
    bad[pos + 10] = 'z';
    expect_rejected(bad, "malformed hash", "hash");
  }

  // Not JSON at all.
  expect_rejected("not json", "non-JSON input", "JSON");
}

TEST(Artifact, LoadFileRejectsMissingPath) {
  EXPECT_THROW((void)load_artifact_file("/nonexistent/neatbound/a.json"),
               std::runtime_error);
}

TEST(Artifact, ResolveOracleConfigDefaultsToViolationT) {
  ScenarioSpec spec = violent_spec();
  // Spec has an oracle block without common_prefix_t: T defaults to the
  // spec's violation_t.
  const sim::OracleConfig from_block = resolve_oracle_config(spec);
  EXPECT_TRUE(from_block.common_prefix);
  EXPECT_EQ(from_block.common_prefix_t, spec.violation_t);
  EXPECT_EQ(from_block.slice_rounds, 24u);
  EXPECT_EQ(from_block.growth_window, 0u);   // not in the invariants list
  EXPECT_EQ(from_block.quality_window, 0u);

  // And with no oracle block at all: common-prefix-only defaults.
  spec.oracle.reset();
  const sim::OracleConfig defaulted = resolve_oracle_config(spec);
  EXPECT_TRUE(defaulted.common_prefix);
  EXPECT_EQ(defaulted.common_prefix_t, spec.violation_t);
}

TEST(Artifact, ScanHonoursMaxRuns) {
  const ScenarioSpec spec = violent_spec();
  const auto& registry = ScenarioRegistry::builtin();
  const OracleScanResult capped = run_scenario_oracle(spec, registry, 1);
  EXPECT_LE(capped.runs_scanned, 1u);

  // The scan is deterministic: two full scans freeze the same violation.
  const OracleScanResult a = run_scenario_oracle(spec, registry, 0);
  const OracleScanResult b = run_scenario_oracle(spec, registry, 0);
  ASSERT_TRUE(a.artifact.has_value());
  ASSERT_TRUE(b.artifact.has_value());
  EXPECT_EQ(a.runs_scanned, b.runs_scanned);
  EXPECT_EQ(a.cell_index, b.cell_index);
  EXPECT_EQ(a.seed_index, b.seed_index);
  EXPECT_EQ(a.artifact->violation, b.artifact->violation);
  EXPECT_EQ(serialize(*a.artifact), serialize(*b.artifact));
}

TEST(Artifact, BuildRequiresATrippedOracle) {
  sim::OracleConfig config;
  const sim::InvariantOracle oracle(config);
  sim::EngineConfig engine;
  ComponentSpec adversary{"null", Params{}};
  ComponentSpec network{"strategy", Params{}};
  EXPECT_THROW(
      (void)build_artifact(engine, 6, adversary, network, oracle),
      ContractViolation);
}

}  // namespace
}  // namespace neatbound::scenario
