// Known-bad fixture for scripts/check_determinism.py: a clock feeding a
// counter-RNG key.  The raw steady_clock read is a finding of its own
// (raw-steady-clock); the seeding pattern stays a separate rule because
// an *allowed* clock read feeding a key must still fire.
// lint-expect: time-seeded-rng
// lint-expect: raw-steady-clock
#include <chrono>

#include "support/crng.hpp"

neatbound::crng::Key jittery_key() {
  return neatbound::crng::Key{0, static_cast<unsigned long long>(std::chrono::steady_clock::now().time_since_epoch().count())};
}
