#include "protocol/validation.hpp"

namespace neatbound::protocol {

ValidationReport validate_chain(const BlockStore& store, BlockIndex tip,
                                const RandomOracle& oracle) {
  const auto chain = store.chain_to(tip);
  for (std::size_t i = 1; i < chain.size(); ++i) {
    const BlockIndex b = chain[i];
    const BlockIndex parent = chain[i - 1];
    const std::uint64_t height = store.height_of(b);
    if (store.parent_hash_of(b) != store.hash_of(parent)) {
      return ValidationReport::fail("hash linkage broken at height " +
                                    std::to_string(height));
    }
    if (height != store.height_of(parent) + 1) {
      return ValidationReport::fail("height not incremented at height " +
                                    std::to_string(height));
    }
    if (store.round_of(b) < store.round_of(parent)) {
      return ValidationReport::fail("round precedes parent at height " +
                                    std::to_string(height));
    }
    if (!oracle.verify(store.parent_hash_of(b), store.nonce_of(b),
                       store.payload_digest_of(b), store.hash_of(b))) {
      return ValidationReport::fail("H.ver failed at height " +
                                    std::to_string(height));
    }
  }
  return ValidationReport::ok();
}

}  // namespace neatbound::protocol
