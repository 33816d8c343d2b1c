#include "support/telemetry.hpp"

#include <ostream>

namespace neatbound::telemetry {

namespace {

constexpr const char* kCounterNames[] = {
    "honest_blocks_mined",  "adversary_blocks_mined",
    "deliveries",           "duplicate_deliveries",
    "orphans_buffered",     "orphans_activated",
    "adoptions",            "reorgs",
    "calendar_scheduled",   "calendar_grows",
    "ancestry_queries",     "quiet_rounds_skipped",
    "class_splits",         "class_merges",
    "class_deliveries",     "calendar_runs_drained",
};
static_assert(sizeof(kCounterNames) / sizeof(kCounterNames[0]) ==
                  kCounterCount,
              "counter_name table out of lockstep with enum Counter");

constexpr const char* kPhaseNames[] = {
    "deliver", "mine", "schedule", "adversary", "metrics",
};
static_assert(sizeof(kPhaseNames) / sizeof(kPhaseNames[0]) == kPhaseCount,
              "phase_name table out of lockstep with enum Phase");

}  // namespace

const char* counter_name(Counter counter) noexcept {
  return kCounterNames[static_cast<std::size_t>(counter)];
}

const char* phase_name(Phase phase) noexcept {
  return kPhaseNames[static_cast<std::size_t>(phase)];
}

void TelemetryAccumulator::add(const TelemetrySnapshot& snapshot) noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters[i] += snapshot.counters[i];
  }
  ++runs;
}

void TelemetryAccumulator::merge(const TelemetryAccumulator& other) noexcept {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters[i] += other.counters[i];
  }
  runs += other.runs;
}

namespace {

// Chrome-trace timestamps are microseconds; emit nanosecond precision as
// fixed-point fractional µs (always three fraction digits).  Integer
// arithmetic end to end: streaming a double would fall into scientific
// notation with ~10 µs rounding once a rebased timestamp passes ~1e6 µs.
void write_micros(std::ostream& os, std::uint64_t ns) {
  const std::uint64_t frac = ns % 1000;
  os << ns / 1000 << '.' << static_cast<char>('0' + frac / 100)
     << static_cast<char>('0' + frac / 10 % 10)
     << static_cast<char>('0' + frac % 10);
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const PhaseEvent> events,
                        const TelemetrySnapshot& snapshot) {
  // Rebased so the timeline starts at 0.
  const std::uint64_t origin = events.empty() ? 0 : events.front().start_ns;
  os << "{\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
        "\"args\":{\"name\":\"neatbound engine run\"}}";
  for (const PhaseEvent& event : events) {
    os << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
       << phase_name(event.phase) << "\",\"ts\":";
    write_micros(os, event.start_ns - origin);
    os << ",\"dur\":";
    write_micros(os, event.duration_ns);
    os << "}";
  }
  os << ",\n{\"ph\":\"I\",\"pid\":1,\"tid\":1,\"ts\":0,\"s\":\"g\","
        "\"name\":\"counters\",\"args\":{";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    os << (i == 0 ? "" : ",") << "\""
       << counter_name(static_cast<Counter>(i)) << "\":"
       << snapshot.counters[i];
  }
  os << "}},\n{\"ph\":\"I\",\"pid\":1,\"tid\":1,\"ts\":0,\"s\":\"g\","
        "\"name\":\"phase_totals_ns\",\"args\":{";
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    os << (i == 0 ? "" : ",") << "\"" << phase_name(static_cast<Phase>(i))
       << "\":" << snapshot.phase_nanos[i];
  }
  os << "}}\n]}\n";
}

}  // namespace neatbound::telemetry
