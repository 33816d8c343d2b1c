// Reached from HotLoop::step through the project call graph; the `new`
// here must be reported even though this function carries no annotation.
#pragma once

#include <cstdint>

namespace neatbound::sim {

inline std::uint64_t* splice_waiting(std::uint64_t round) {
  // analyze-expect: hot-alloc
  return new std::uint64_t(round);
}

}  // namespace neatbound::sim
