// Mining: one oracle query per honest miner per round; νn sequential
// queries for the adversary (Section III's access discipline).
#pragma once

#include "protocol/block.hpp"
#include "protocol/hash.hpp"

namespace neatbound::protocol {

/// Block assembly for a successful query.  Success itself was already
/// decided by the addressable Bernoulli(p) field (sim/draws.hpp), so no
/// target test is performed here.  The block's hash still commits to
/// (parent, nonce, payload) via the oracle, so hash linkage and H.ver
/// hold (docs/architecture.md, "RNG keying" — the paper's analysis uses
/// the per-query success probability p and collision-free ids, never a
/// ≤-target certificate).  Miner, class, round and message are filled by
/// the caller.
[[nodiscard]] Block assemble_block(const RandomOracle& oracle,
                                   HashValue parent_hash,
                                   std::uint64_t payload_digest,
                                   std::uint64_t nonce);

}  // namespace neatbound::protocol
