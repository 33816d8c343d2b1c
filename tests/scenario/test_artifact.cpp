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

void expect_rejected(const std::string& text, const std::string& what) {
  try {
    (void)parse_artifact(text);
    FAIL() << "parse accepted a corrupt artifact (" << what << ")";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("violation artifact"),
              std::string::npos)
        << what << ": error should carry the artifact prefix, got: "
        << error.what();
  }
}

/// `text` with the first `"key":<n>` rewritten to n + 2^32: a value a
/// bare 32-bit cast would silently truncate back to the original n.
std::string widened(std::string text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << key;
  if (pos == std::string::npos) return text;
  const auto start = pos + needle.size();
  const auto end = text.find_first_not_of("0123456789", start);
  const std::uint64_t value = std::stoull(text.substr(start, end - start));
  return text.replace(start, end - start,
                      std::to_string(value + (std::uint64_t{1} << 32)));
}

TEST(Artifact, StrictReaderRejectsCorruptDocuments) {
  const std::string good = serialize(scan_one());

  // Truncation: cut the document mid-way.
  expect_rejected(good.substr(0, good.size() / 2), "truncated JSON");

  // Wrong format tag, including the retired v2 schema (engine.rng).
  for (const char* tag : {"neatbound-violation-v2", "neatbound-violation-v9"}) {
    std::string bad = good;
    const auto pos = bad.find("neatbound-violation-v3");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 22, tag);
    expect_rejected(bad, tag);
  }

  // 32-bit fields past 2^32 are refused, never truncated.
  for (const char* key : {"miners", "view_a", "view_b", "miner", "tip"}) {
    expect_rejected(widened(good, key), std::string(key) + " past 2^32");
  }

  // Unknown top-level key.
  {
    std::string bad = good;
    const auto pos = bad.find("\"format\"");
    ASSERT_NE(pos, std::string::npos);
    bad.insert(pos, "\"surprise\":1,");
    expect_rejected(bad, "unknown key");
  }

  // Missing key: drop violation_t entirely.
  {
    std::string bad = good;
    const auto pos = bad.find("\"violation_t\"");
    ASSERT_NE(pos, std::string::npos);
    const auto end = bad.find('\n', pos);
    ASSERT_NE(end, std::string::npos);
    bad.erase(pos, end - pos + 1);
    expect_rejected(bad, "missing violation_t");
  }

  // Unknown invariant name in the violation tuple.
  {
    std::string bad = good;
    const auto pos = bad.find("\"common-prefix\"");
    ASSERT_NE(pos, std::string::npos);
    bad.replace(pos, 15, "\"common-suffix\"");
    expect_rejected(bad, "unknown invariant");
  }

  // A measured value that does not actually violate the bound.
  {
    const ViolationArtifact artifact = scan_one();
    ViolationArtifact bad = artifact;
    bad.violation.measured = bad.violation.bound;  // not > bound any more
    expect_rejected(serialize(bad), "non-violating measured");
  }

  // A slice that does not end at the violating round.
  {
    ViolationArtifact bad = scan_one();
    ASSERT_FALSE(bad.slice.empty());
    bad.slice.back().round += 1;
    expect_rejected(serialize(bad), "slice/violation round mismatch");
  }

  // A short slice (dropped record).
  {
    ViolationArtifact bad = scan_one();
    ASSERT_GT(bad.slice.size(), 1u);
    bad.slice.erase(bad.slice.begin());
    expect_rejected(serialize(bad), "short slice");
  }

  // The round-trace rules on the slice, and a common-prefix slice that
  // does not end on the measured depth.
  using Tamper = void (*)(ViolationArtifact&);
  const std::pair<const char*, Tamper> slice_tampers[] = {
      {"round 0", [](ViolationArtifact& a) { a.slice.front().round = 0; }},
      {"best_height decreases",
       [](ViolationArtifact& a) {
         a.slice.front().best_height = a.slice[1].best_height + 1;
       }},
      {"violation_depth decreases",
       [](ViolationArtifact& a) {
         a.slice.front().violation_depth = a.slice[1].violation_depth + 1;
       }},
      {"unexplained adoption",
       [](ViolationArtifact& a) {
         sim::RoundRecord& last = a.slice.back();
         last.adoptions = last.delivered + last.honest_mined + 1;
       }},
      {"slice depth != measured",
       [](ViolationArtifact& a) {
         a.slice.back().violation_depth = a.violation.measured + 1;
       }},
  };
  for (const auto& [what, tamper] : slice_tampers) {
    ViolationArtifact bad = scan_one();
    ASSERT_GT(bad.slice.size(), 1u);
    ASSERT_EQ(bad.violation.kind, sim::InvariantKind::kCommonPrefix);
    tamper(bad);
    expect_rejected(serialize(bad), what);
  }

  // Views not covering the honest miners.
  {
    ViolationArtifact bad = scan_one();
    ASSERT_FALSE(bad.views.empty());
    bad.views.pop_back();
    expect_rejected(serialize(bad), "missing view");
  }

  // A mangled hash string.
  {
    std::string bad = good;
    const auto pos = bad.find("\"hash\":\"0x");
    ASSERT_NE(pos, std::string::npos);
    bad[pos + 10] = 'z';
    expect_rejected(bad, "malformed hash");
  }

  // Not JSON at all.
  expect_rejected("not json", "non-JSON input");
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
