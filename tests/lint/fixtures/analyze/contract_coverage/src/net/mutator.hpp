// Fixture: a public mutating method with a non-trivial body and no
// contract macro must be flagged; its contract-carrying sibling and the
// single-statement setter must not be.
#pragma once

#include <cstdint>

#include "support/contracts.hpp"

namespace neatbound::net {

class WindowTracker {
 public:
  // analyze-expect: contract-coverage
  void advance(std::uint64_t rounds) {
    base_ += rounds;
    width_ += rounds / 2;
  }

  void advance_checked(std::uint64_t rounds) {
    NEATBOUND_EXPECTS(rounds > 0, "advance needs at least one round");
    base_ += rounds;
    width_ += rounds / 2;
  }

  void reset() { base_ = 0; }

  [[nodiscard]] std::uint64_t base() const noexcept { return base_; }

 private:
  std::uint64_t base_ = 0;
  std::uint64_t width_ = 0;
};

}  // namespace neatbound::net
