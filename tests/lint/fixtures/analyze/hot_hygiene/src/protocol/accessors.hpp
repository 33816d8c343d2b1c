// Fixture: hot-hygiene violations — an accessor-named hot member that
// is not const, and a hot leaf (no project calls, contracts, throws or
// allocation) that is not noexcept.  The const-and-noexcept sibling
// proves the rule stays silent on hygienic code.
#pragma once

#include <cstdint>
#include <vector>

#include "support/hot.hpp"

namespace neatbound::protocol {

class HeightTable {
 public:
  // analyze-expect: hot-hygiene
  NEATBOUND_HOT std::uint64_t height_of(std::size_t i) { return h_[i]; }

  // analyze-expect: hot-hygiene
  NEATBOUND_HOT std::uint64_t tip() const { return t_; }

  NEATBOUND_HOT std::uint64_t tip_round() const noexcept { return t_; }

 private:
  std::vector<std::uint64_t> h_;
  std::uint64_t t_ = 0;
};

}  // namespace neatbound::protocol
