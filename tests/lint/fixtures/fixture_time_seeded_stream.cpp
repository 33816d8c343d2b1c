// Known-bad fixture for scripts/check_determinism.py: a clock feeding a
// crng::Stream through the braced-key form, with no Key or seed token in
// the statement.  The raw steady_clock read is its own finding
// (raw-steady-clock).
// lint-expect: time-seeded-rng
// lint-expect: raw-steady-clock
#include <chrono>

#include "support/crng.hpp"

double jittery_draw() {
  neatbound::crng::Stream s({static_cast<unsigned long long>(std::chrono::steady_clock::now().time_since_epoch().count()), 0}, 0, 0, neatbound::crng::Purpose::kGeneric);
  return s.uniform();
}
