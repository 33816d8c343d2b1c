// Fixture: a layer-0 module including a layer-5 module (the PR 5
// scenario/json inversion, reconstructed) plus a sibling-layer include.
#pragma once

// analyze-expect: layering
#include "scenario/spec.hpp"

namespace neatbound::support {
inline int uses_scenario() { return 1; }
}  // namespace neatbound::support
