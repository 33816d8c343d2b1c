// Fixture: the sanctioned clock reader.  raw-steady-clock exempts exactly
// src/support/telemetry.{hpp,cpp}, so this read must scan clean.
#include <chrono>

long long phase_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
