// Fixture: telemetry macros never change a function's hot-path
// classification.  `tick` is a hot leaf (its only "call" is
// NEATBOUND_COUNT, which the call graph ignores) and is not noexcept,
// so hot-hygiene must still fire on it; `tock` shows the compliant
// form and must stay silent.
#pragma once

#include "support/hot.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {

struct CountedLeaf {
  // analyze-expect: hot-hygiene
  NEATBOUND_HOT void tick() {
    NEATBOUND_COUNT(kDeliveries);
    ++ticks;
  }

  NEATBOUND_HOT void tock() noexcept {
    NEATBOUND_COUNT(kDeliveries);
    ++ticks;
  }

  unsigned long long ticks = 0;
};

}  // namespace neatbound::sim
