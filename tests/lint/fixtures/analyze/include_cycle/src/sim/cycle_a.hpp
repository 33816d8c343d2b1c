// Fixture: three-file include cycle inside one module (so the layering
// rule stays silent and only the cycle detector speaks).  The finding is
// anchored at the lexicographically smallest participant — this file.
#pragma once

// analyze-expect: include-cycle
#include "sim/cycle_b.hpp"

namespace neatbound::sim {
inline int a() { return 1; }
}  // namespace neatbound::sim
