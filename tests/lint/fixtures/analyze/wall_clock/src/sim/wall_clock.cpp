// Known-bad fixture for the wall-clock rule: wall-clock reads.
// (steady_clock has its own rule, raw-steady-clock — see the
// steady_clock case.)
#include <chrono>

long long stamp_output_row() {
  // analyze-expect: wall-clock
  const auto wall = std::chrono::system_clock::now();
  // analyze-expect: wall-clock
  const auto precise = std::chrono::high_resolution_clock::now();
  return (wall.time_since_epoch() - precise.time_since_epoch()).count();
}
