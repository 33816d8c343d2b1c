// Fixture: a NEATBOUND_HOT method that allocates directly, and a hot
// call into a helper that allocates — both must be flagged, proving the
// call-graph propagation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/hot_helper.hpp"
#include "support/hot.hpp"

namespace neatbound::sim {

class HotLoop {
 public:
  NEATBOUND_HOT void step(std::uint64_t round) {
    // analyze-expect: hot-alloc
    trace_.push_back(round);
    splice_waiting(round);
  }

 private:
  std::vector<std::uint64_t> trace_;
};

}  // namespace neatbound::sim
