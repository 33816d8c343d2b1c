// Fixture: every banned randomness construction — the <random> include,
// a std engine, and a std distribution.  Draws must go through
// support/crng.hpp so every draw stays addressable as (key, counter).
// analyze-expect: rng-stream
#include <random>

namespace neatbound::sim {

int draw_badly(unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_int_distribution<int> dist(0, 5);
  return dist(gen);
}

}  // namespace neatbound::sim
