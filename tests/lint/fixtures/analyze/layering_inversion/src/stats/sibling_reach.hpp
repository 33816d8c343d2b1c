// Fixture: stats and protocol share layer 1 — siblings must not include
// each other even though neither is "above" the other.
#pragma once

// analyze-expect: layering
#include "protocol/block.hpp"

namespace neatbound::stats {
inline int uses_protocol() { return 2; }
}  // namespace neatbound::stats
