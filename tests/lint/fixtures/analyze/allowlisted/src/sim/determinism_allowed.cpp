// Every banned construction below carries a justification allowlist
// comment, so this fixture must scan *clean* — the self-test's proof
// that the escape hatch works for each determinism rule and that prose
// in comments (rand(), unordered_map iteration, system_clock) never
// trips a rule by itself.
#include <chrono>
#include <map>
// neatbound-analyze: allow(rng-stream) — fixture demo only
#include <random>
#include <unordered_map>

unsigned long long clock_seed() {
  // neatbound-analyze: allow(time-seeded-rng, raw-steady-clock) — fixture
  // demo only
  const auto seed = std::chrono::steady_clock::now().time_since_epoch().count();
  return static_cast<unsigned long long>(seed);
}

unsigned long long justified_exceptions() {
  // neatbound-analyze: allow(nondeterministic-source) — fixture demo only
  std::random_device device;
  // neatbound-analyze: allow(wall-clock) — fixture demo only
  const auto wall = std::chrono::system_clock::now();
  // neatbound-analyze: allow(raw-steady-clock) — fixture demo only
  const auto tick = std::chrono::steady_clock::now();
  std::unordered_map<int, int> cache{{1, 2}};
  // neatbound-analyze: allow(pointer-keyed-ordering) — fixture demo only
  std::map<const int*, int> by_address{{&cache.at(1), 3}};
  unsigned long long sum =
      device() + static_cast<unsigned long long>(
                     wall.time_since_epoch().count() +
                     tick.time_since_epoch().count());
  // neatbound-analyze: allow(unordered-iteration) — fixture demo only
  for (const auto& [key, value] : cache) {
    sum += static_cast<unsigned long long>(key + value);
  }
  return sum + by_address.size() + clock_seed();
}
