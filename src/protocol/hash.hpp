// The random oracle H : {0,1}* → {0,1}^κ of the paper's Section III,
// instantiated at κ = 64 with a mix64-based mixing function, plus the
// verification oracle H.ver.
//
// Substitution note: the analysis requires only that each query succeeds
// independently with probability p and that block ids are collision-free.
// Success is decided by the counter RNG's addressable Bernoulli(p) field
// (sim/draws.hpp), so no ≤ D_p target test exists; the seeded mixer gives
// collision-free ids, is reproducible, and supports the H/H.ver interface
// the model specifies.
#pragma once

#include <cstdint>

#include "support/contracts.hpp"

namespace neatbound::protocol {

/// 64-bit hash value (κ = 64).
using HashValue = std::uint64_t;

/// The random oracle, seeded per execution so runs are reproducible.
class RandomOracle {
 public:
  explicit RandomOracle(std::uint64_t seed) noexcept : seed_(seed) {}

  /// H(h₋₁, η, m): hash of (parent hash, nonce, payload digest).
  [[nodiscard]] HashValue query(HashValue parent, std::uint64_t nonce,
                                std::uint64_t payload_digest) const noexcept;

  /// H.ver(x, y): 1 iff H(x) = y (Section III's verification oracle).
  [[nodiscard]] bool verify(HashValue parent, std::uint64_t nonce,
                            std::uint64_t payload_digest,
                            HashValue claimed) const noexcept {
    return query(parent, nonce, payload_digest) == claimed;
  }

 private:
  std::uint64_t seed_;
};

}  // namespace neatbound::protocol
