// Known-bad fixture for the time-seeded-rng rule: a clock feeding a
// counter-RNG key.  The raw steady_clock read is a finding of its own
// (raw-steady-clock); the seeding pattern stays a separate rule because
// an *allowed* clock read feeding a key must still fire.
#include <chrono>

#include "support/crng.hpp"

neatbound::crng::Key jittery_key() {
  // analyze-expect: time-seeded-rng, raw-steady-clock
  return neatbound::crng::Key{0, static_cast<unsigned long long>(std::chrono::steady_clock::now().time_since_epoch().count())};
}
