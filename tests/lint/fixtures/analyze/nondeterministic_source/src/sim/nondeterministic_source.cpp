// Known-bad fixture for the nondeterministic-source rule: unseeded
// entropy sources, one banned form per line.  Never compiled — scanned
// by the analyzer self-test only.
#include <cstdlib>
#include <ctime>
// analyze-expect: rng-stream
#include <random>

int entropy_soup() {
  // analyze-expect: nondeterministic-source
  std::random_device device;  // hardware entropy: different bytes every run
  // analyze-expect: nondeterministic-source
  std::srand(42);             // C RNG: process-global hidden state
  // analyze-expect: nondeterministic-source
  const auto stamp = std::time(nullptr);
  // analyze-expect: nondeterministic-source
  const auto legacy = time(NULL);
  // analyze-expect: nondeterministic-source
  return static_cast<int>(device()) + std::rand() +
         static_cast<int>(stamp - legacy);
}
