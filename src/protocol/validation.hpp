// Chain validation: the checks an honest player performs before accepting
// a chain (Section III): hash linkage, H.ver, height monotonicity and
// round sanity.
#pragma once

#include <string>

#include "protocol/block_store.hpp"
#include "protocol/hash.hpp"

namespace neatbound::protocol {

struct ValidationReport {
  bool valid = true;
  std::string failure;  ///< empty when valid

  static ValidationReport ok() { return {}; }
  static ValidationReport fail(std::string why) {
    return {false, std::move(why)};
  }
};

/// Validates the full chain from genesis to `tip` against the oracle:
/// every block's hash must verify (H.ver), link to its parent's hash,
/// increase height by one, and not precede its parent's round.
[[nodiscard]] ValidationReport validate_chain(const BlockStore& store,
                                              BlockIndex tip,
                                              const RandomOracle& oracle);

}  // namespace neatbound::protocol
