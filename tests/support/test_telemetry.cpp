// Telemetry contract tests (docs/observability.md): counters always count
// while phase scopes record only under ScopedPhaseTiming, the accumulator
// fold is associative and seed-order independent, the name tables cover
// their enums, and the Chrome-trace exporter emits a parseable document
// of the documented shape with or without a timeline.  No reader exists
// for that format (it is written for third-party viewers only), so its
// shape rules are asserted here, on the writer's own output.
#include "support/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace neatbound::telemetry {
namespace {

TEST(Telemetry, PhaseTimingIsOffUnlessRequested) {
  reset();
  NEATBOUND_COUNT(kDeliveries);
  NEATBOUND_COUNT_ADD(kDeliveries, 3);
  {
    NEATBOUND_PHASE_SCOPE(kDeliver);
  }
  // Untimed: counters count, phase scopes record nothing.
  TelemetrySnapshot snap = snapshot();
  EXPECT_EQ(snap.counters[static_cast<std::size_t>(Counter::kDeliveries)],
            4u);
  for (const std::uint64_t value : snap.phase_nanos) EXPECT_EQ(value, 0u);
  EXPECT_TRUE(phase_events().empty());

  // Timed: the scope lands in the timeline, and the guard restores the
  // untimed default on exit.
  {
    const ScopedPhaseTiming timing(true);
    NEATBOUND_PHASE_SCOPE(kMine);
  }
  {
    NEATBOUND_PHASE_SCOPE(kMetrics);
  }
  ASSERT_EQ(phase_events().size(), 1u);
  EXPECT_EQ(phase_events()[0].phase, Phase::kMine);
  snap = snapshot();
  EXPECT_EQ(snap.phase_nanos[static_cast<std::size_t>(Phase::kMetrics)], 0u);
  reset();
}

TEST(Telemetry, NameTablesCoverTheirEnums) {
  std::set<std::string> counter_names;
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    const char* name = counter_name(static_cast<Counter>(c));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    counter_names.insert(name);
  }
  EXPECT_EQ(counter_names.size(), kCounterCount) << "duplicate counter name";

  std::set<std::string> phase_names;
  for (std::size_t ph = 0; ph < kPhaseCount; ++ph) {
    const char* name = phase_name(static_cast<Phase>(ph));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    phase_names.insert(name);
  }
  EXPECT_EQ(phase_names.size(), kPhaseCount) << "duplicate phase name";
}

/// A snapshot whose every slot is distinct, so a swapped index or a lost
/// run shows up as a sum mismatch.
TelemetrySnapshot numbered_snapshot(std::uint64_t base) {
  TelemetrySnapshot snap;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    snap.counters[i] = base * 100 + i;
  }
  return snap;
}

bool equal(const TelemetryAccumulator& a, const TelemetryAccumulator& b) {
  return a.counters == b.counters && a.runs == b.runs;
}

TEST(TelemetryAccumulator, AddSumsSlotwiseAndCountsRuns) {
  TelemetryAccumulator acc;
  acc.add(numbered_snapshot(1));
  acc.add(numbered_snapshot(2));
  EXPECT_EQ(acc.runs, 2u);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_EQ(acc.counters[i], 300 + 2 * i);
  }
}

TEST(TelemetryAccumulator, MergeIsAssociative) {
  TelemetryAccumulator a;
  TelemetryAccumulator b;
  TelemetryAccumulator c;
  a.add(numbered_snapshot(1));
  b.add(numbered_snapshot(2));
  b.add(numbered_snapshot(3));
  c.add(numbered_snapshot(4));

  TelemetryAccumulator left = a;  // (a ⊕ b) ⊕ c
  left.merge(b);
  left.merge(c);

  TelemetryAccumulator bc = b;  // a ⊕ (b ⊕ c)
  bc.merge(c);
  TelemetryAccumulator right = a;
  right.merge(bc);

  EXPECT_TRUE(equal(left, right));
  EXPECT_EQ(left.runs, 4u);
}

TEST(TelemetryAccumulator, FoldIsSeedOrderIndependent) {
  std::vector<TelemetrySnapshot> runs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    runs.push_back(numbered_snapshot(seed));
  }
  TelemetryAccumulator forward;
  for (const TelemetrySnapshot& snap : runs) forward.add(snap);
  TelemetryAccumulator reversed;
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) reversed.add(*it);
  EXPECT_TRUE(equal(forward, reversed));
}

TEST(Telemetry, ChromeTraceExportsParseableDocument) {
  std::vector<PhaseEvent> events;
  events.push_back({1'000'000, 500'000, Phase::kDeliver});
  events.push_back({2'000'000, 250'000, Phase::kMine});
  TelemetrySnapshot snap;
  snap.counters[static_cast<std::size_t>(Counter::kDeliveries)] = 7;

  std::ostringstream os;
  write_chrome_trace(os, events, snap);
  const support::JsonValue doc = support::parse_json(os.str());
  const auto& trace_events =
      support::require_field(doc, "traceEvents", "").as_array();
  // One process_name metadata record, one "X" per scope, two instant
  // events (counters, phase totals).
  ASSERT_EQ(trace_events.size(), events.size() + 3);
  std::size_t metadata = 0;
  for (const support::JsonValue& event : trace_events) {
    const std::string& ph =
        support::require_field(event, "ph", "").as_string();
    EXPECT_TRUE(ph == "M" || ph == "X" || ph == "I") << ph;
    EXPECT_NE(event.find("name"), nullptr) << ph;
    if (ph == "M") ++metadata;
    if (ph != "X") continue;
    for (const char* key : {"ts", "dur"}) {
      const double value = support::require_field(event, key, "").as_number();
      EXPECT_TRUE(std::isfinite(value) && value >= 0.0)
          << key << " = " << value;
    }
  }
  EXPECT_EQ(metadata, 1u);
  EXPECT_NE(os.str().find("\"process_name\""), std::string::npos);
  EXPECT_NE(os.str().find("\"deliver\""), std::string::npos);
  EXPECT_NE(os.str().find("\"phase_totals_ns\""), std::string::npos);
}

TEST(Telemetry, ChromeTraceTimestampsAreFixedPointMicros) {
  // ts/dur are fixed-point fractional µs with ns resolution.  A run
  // longer than ~1 s must not degrade into scientific notation or
  // rounded timestamps (viewers need plain non-negative numbers).
  std::vector<PhaseEvent> events;
  events.push_back({5'000'000'000'000, 1'234'567'891'234, Phase::kDeliver});
  events.push_back({9'876'543'210'987, 42, Phase::kMine});

  std::ostringstream os;
  write_chrome_trace(os, events, TelemetrySnapshot{});
  const std::string text = os.str();
  EXPECT_EQ(text.find("e+"), std::string::npos);  // no scientific notation
  EXPECT_EQ(text.find("e-"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":0.000,\"dur\":1234567891.234"),
            std::string::npos);
  // Second event rebased against the first scope's start.
  EXPECT_NE(text.find("\"ts\":4876543210.987,\"dur\":0.042"),
            std::string::npos);
  (void)support::parse_json(text);  // still a valid JSON document
}

TEST(Telemetry, ChromeTraceValidWithNoEvents) {
  // An untimed run has no timeline; the document must still parse.
  std::ostringstream os;
  write_chrome_trace(os, {}, TelemetrySnapshot{});
  const support::JsonValue doc = support::parse_json(os.str());
  EXPECT_EQ(support::require_field(doc, "traceEvents", "").as_array().size(),
            3u);
}

}  // namespace
}  // namespace neatbound::telemetry
