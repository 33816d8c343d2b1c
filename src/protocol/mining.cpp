#include "protocol/mining.hpp"

namespace neatbound::protocol {

Block assemble_block(const RandomOracle& oracle, HashValue parent_hash,
                     std::uint64_t payload_digest, std::uint64_t nonce) {
  Block block;
  block.hash = oracle.query(parent_hash, nonce, payload_digest);
  block.parent_hash = parent_hash;
  block.nonce = nonce;
  block.payload_digest = payload_digest;
  return block;
}

}  // namespace neatbound::protocol
