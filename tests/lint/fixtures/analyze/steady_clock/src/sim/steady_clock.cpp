// Known-bad fixture for the raw-steady-clock rule.  Only
// src/support/telemetry.{hpp,cpp} may read steady_clock (this case's
// telemetry.cpp proves the exemption), so the bare read below must fire
// while the allowlisted one stays silent.
#include <chrono>

long long raw_elapsed() {
  // analyze-expect: raw-steady-clock
  const auto t0 = std::chrono::steady_clock::now();
  return t0.time_since_epoch().count();
}

long long allowed_elapsed() {
  // neatbound-analyze: allow(raw-steady-clock) — fixture: proves the
  // allow-comment path of the rule.
  const auto t1 = std::chrono::steady_clock::now();
  return t1.time_since_epoch().count();
}
