// A deliberately naive executable model of the Section III round
// semantics, used as a referee for ExecutionEngine.
//
// It shares no machinery with the engine beyond what defines the run's
// randomness and block identities: the counter RNG (crng, GapCursor), the
// random oracle and protocol::assemble_block, and BlockStore::add for the
// block hashes the adversary strategies read.  It keeps every block's
// whole record (block_records.hpp), which checks hash uniqueness, and it
// counts C in one pass over its own per-round series with
// count_convergence_opportunities, against which the engine's online
// count is compared.  Everything the engine optimizes is done the slow,
// obvious way here:
//   * each honest view holds its known set as a std::set and its chain as
//     a genesis-first vector; the longest-chain / first-received rule is a
//     direct comparison of chain lengths, and a reorg's depth is the
//     length of the abandoned suffix of the old chain vector;
//   * messages in flight sit in one std::multimap keyed by (due round,
//     schedule sequence), one entry per (block, recipient);
//   * every round is stepped, and its mining successes are materialized
//     up front from the success fields, with no quiet-round skipping;
//   * divergence comes from the prefix relation ≤ that the Dafny theorem
//     files build consistency on (consistentBlockchains(bc1, bc2) :=
//     bc1 ≤ bc2 ∨ bc2 ≤ bc1), applied to pruned chains as in Definition 1:
//     the divergence of two chains is the least T for which each chain
//     with its last T blocks pruned is a prefix (≤) of the other.
//
// The model implements its own AdversaryOps, so registry strategies run
// against it unchanged.  No net/ code, MinerView, BlockStore ancestry or
// ConsistencyTracker is used.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "protocol/block.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"

namespace neatbound::sim::reference {

/// What the model reports for one round: the same event counts the engine
/// exposes through round_activity(), and every honest view's tip.
struct RoundRecord {
  RoundActivity activity;
  std::vector<protocol::BlockIndex> tips;
};

struct ReferenceRun {
  RunResult result;  ///< telemetry is left empty
  std::vector<RoundRecord> rounds;  ///< rounds[r − 1] is round r
  /// Every block's whole record, index-aligned with the engine's store.
  std::vector<protocol::Block> blocks;
};

/// Runs `config` against `adversary` for config.rounds rounds.
[[nodiscard]] ReferenceRun run_reference(const EngineConfig& config,
                                         std::unique_ptr<Adversary> adversary);

}  // namespace neatbound::sim::reference
