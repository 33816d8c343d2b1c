// Known-bad fixture for the time-seeded-rng rule: a clock feeding a
// crng::Stream through the braced-key form, with no Key or seed token in
// the statement.  The raw steady_clock read is its own finding
// (raw-steady-clock).
#include <chrono>

#include "support/crng.hpp"

double jittery_draw() {
  // analyze-expect: time-seeded-rng, raw-steady-clock
  neatbound::crng::Stream s({static_cast<unsigned long long>(std::chrono::steady_clock::now().time_since_epoch().count()), 0}, 0, 0, neatbound::crng::Purpose::kGeneric);
  return s.uniform();
}
