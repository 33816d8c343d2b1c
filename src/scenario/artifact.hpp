// Replayable violation artifacts: the serialization and re-execution
// layer over sim/oracle.hpp.
//
// When an armed InvariantOracle trips, everything needed to reproduce
// the verdict deterministically is frozen into one JSON document: the
// exact engine config (seed included), the oracle config, the
// adversary/network component specs, the violation tuple, every honest
// view at the violating round, and the trailing slice of RoundRecords
// (the trace schema of sim/trace.hpp, one object per round).  Replay
// reconstructs the adversary through the registry, truncates the run to
// the violating round — engine trajectories are prefix-deterministic in
// the round count, so rounds 1..r replay bit-identically — and
// re-asserts the oracle, comparing the violation tuple, all view
// snapshots and all slice records field by field.
//
// The reader is strict in the read_trace_jsonl tradition: exact key
// sets, a format tag, cross-field consistency (the slice must be the
// contiguous window ending at the violating round, the measured value
// must actually violate the bound, views must cover exactly the honest
// miners) — a truncated or hand-tampered artifact is rejected with an
// error naming the offence, never replayed into nonsense.
//
// This lives in scenario/ (not sim/) deliberately: artifacts name
// registry components, and file I/O is banned below this layer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/oracle.hpp"
#include "sim/trace.hpp"

namespace neatbound::scenario {

/// The artifact format tag; bump on any schema change.
inline constexpr std::string_view kArtifactFormat = "neatbound-violation-v3";

struct ViolationArtifact {
  /// Full config of the violating run — seed is the violating seed and
  /// rounds the *original* run length (replay truncates to
  /// violation.round itself).
  sim::EngineConfig engine;
  /// The spec's consistency parameter, carried for context (the oracle
  /// bound actually asserted is oracle.common_prefix_t).
  std::uint64_t violation_t = 0;
  sim::OracleConfig oracle;
  ComponentSpec adversary;
  ComponentSpec network;
  sim::OracleViolation violation;
  std::vector<sim::ViewSnapshot> views;   ///< all honest views, miner order
  std::vector<sim::RoundRecord> slice;    ///< trailing rounds, oldest first
};

/// Freezes a tripped oracle into an artifact; EXPECTS oracle.violated().
[[nodiscard]] ViolationArtifact build_artifact(
    const sim::EngineConfig& engine, std::uint64_t violation_t,
    const ComponentSpec& adversary, const ComponentSpec& network,
    const sim::InvariantOracle& oracle);

/// Serializes the artifact (numbers at full %.17g precision, hashes as
/// fixed-width hex strings, one view/trace element per line so checked-in
/// golden artifacts diff readably).
void write_artifact(std::ostream& os, const ViolationArtifact& artifact);
/// Atomic write-by-rename, like the checkpoint writer.
void write_artifact_file(const std::string& path,
                         const ViolationArtifact& artifact);

/// Strict parse (see file comment); throws std::runtime_error naming the
/// offending key or entry.
[[nodiscard]] ViolationArtifact parse_artifact(const JsonValue& document);
[[nodiscard]] ViolationArtifact parse_artifact(std::string_view text);
[[nodiscard]] ViolationArtifact load_artifact_file(const std::string& path);

struct ReplayResult {
  /// Did the replayed run trip the oracle at all?
  bool violated = false;
  /// Did it reproduce the artifact exactly (verdict, views, slice)?
  bool reproduced = false;
  /// The replay's own verdict; meaningful iff violated.
  sim::OracleViolation violation;
  /// Human-readable divergences; empty iff reproduced.
  std::vector<std::string> mismatches;
};

/// Re-executes the artifact's run to the violating round and re-asserts
/// the oracle, comparing bit-for-bit.  Throws only on unbuildable
/// components (unknown registry names, bad params); a run that fails to
/// reproduce reports through the result, it does not throw.
[[nodiscard]] ReplayResult replay_artifact(const ViolationArtifact& artifact,
                                           const ScenarioRegistry& registry);

/// The OracleConfig a spec resolves to: the spec's "oracle" block when
/// present (common_prefix_t defaulting to violation_t), otherwise the
/// common-prefix-only default at T = violation_t.
[[nodiscard]] sim::OracleConfig resolve_oracle_config(const ScenarioSpec& spec);

struct OracleScanResult {
  std::uint64_t runs_scanned = 0;
  /// Grid/seed coordinates of the violating run; meaningful iff artifact.
  std::size_t cell_index = 0;
  std::uint32_t seed_index = 0;
  std::optional<ViolationArtifact> artifact;  ///< set iff a violation hit
};

/// The falsification scan behind `neatbound_cli run --oracle`: every
/// (cell × seed) of the spec's grid in deterministic cell-major,
/// seed-ascending order, each run under an armed oracle, stopping at the
/// first violation (or after max_runs engine runs; 0 = no cap).  Serial
/// by design — first-violation identity must not depend on thread
/// scheduling.
[[nodiscard]] OracleScanResult run_scenario_oracle(
    const ScenarioSpec& spec, const ScenarioRegistry& registry,
    std::uint64_t max_runs);

}  // namespace neatbound::scenario
