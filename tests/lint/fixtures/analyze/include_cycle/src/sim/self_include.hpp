// Fixture: a file including itself is the degenerate cycle.
#pragma once

// analyze-expect: include-cycle
#include "sim/self_include.hpp"

namespace neatbound::sim {
inline int s() { return 4; }
}  // namespace neatbound::sim
