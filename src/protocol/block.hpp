// Block records and miner identities.
#pragma once

#include <cstdint>

#include "protocol/hash.hpp"

namespace neatbound::protocol {

/// Dense index of a block inside a BlockStore; index 0 is genesis.
using BlockIndex = std::uint32_t;
inline constexpr BlockIndex kGenesisIndex = 0;

/// Who mined a block.
enum class MinerClass : std::uint8_t {
  kGenesis,    ///< the pre-agreed genesis block
  kHonest,
  kAdversary,
};

/// An abstract block record (Section III): parent link, the proof of work
/// (nonce + hash), the round it was created and its miner.  The block's
/// content enters only as `payload_digest`, an opaque draw that makes
/// every oracle query distinct; consistency is measured on chains, so no
/// plaintext is kept.
struct Block {
  HashValue hash = 0;            ///< H(parent_hash, nonce, payload_digest)
  HashValue parent_hash = 0;
  BlockIndex parent = kGenesisIndex;
  std::uint64_t height = 0;      ///< genesis = 0
  std::uint64_t round = 0;       ///< creation round
  std::uint64_t nonce = 0;       ///< the PoW witness η
  std::uint64_t payload_digest = 0;
  std::uint32_t miner = 0;       ///< miner id (meaningful for honest blocks)
  MinerClass miner_class = MinerClass::kHonest;
};

}  // namespace neatbound::protocol
