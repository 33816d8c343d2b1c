// Engine telemetry: allocation-free counters and phase timers for the
// round-structured hot path.
//
// Counters are always on: NEATBOUND_COUNT / NEATBOUND_COUNT_ADD are one
// thread_local add each, cheap enough for every build (the measurement is
// in docs/performance.md).  Phase timers are off unless the calling
// thread asks for a timeline (ScopedPhaseTiming, which
// `neatbound_cli run --chrome-trace` wraps around its dedicated traced
// run): an untimed NEATBOUND_PHASE_SCOPE reads one thread_local flag and
// never touches the clock.
//
// Design constraints, in priority order:
//   1. Telemetry values NEVER feed back into simulation state.  Nothing
//      here is readable from the engine's decision paths; fixed-seed
//      trajectories are bit-identical timed or untimed.
//   2. Allocation-free on the hot path.  All state lives in fixed-size
//      thread_local arrays ("pre-sized registries"); counter bumps are
//      single array increments, timed phase scopes are two steady_clock
//      reads plus an array store.  This keeps instrumented NEATBOUND_HOT
//      functions clean under the hot-alloc analyzer rule.
//   3. Deterministic folding.  A run's TelemetrySnapshot is captured on
//      the thread that ran it (registers are thread_local, reset per
//      run) and folded across seeds in seed order by the same
//      accumulate_run path the RunningStats summaries use, so counter
//      aggregates are identical for serial and parallel sweeps.
//      Phase times are wall-clock and therefore never deterministic;
//      they stay per run (the Chrome trace) and never enter summaries
//      or checkpoints.
//
// steady_clock appears ONLY in this header/its .cpp: the analyzer
// (scripts/neatbound_analyze.py, rule raw-steady-clock) enforces
// that everywhere else in src/ and cli/ routes timing through here or
// carries an explicit rationale.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>

namespace neatbound::telemetry {

/// Engine event counters.  Add new entries before kCount and name them in
/// counter_name() (telemetry.cpp keeps the two in lockstep with a
/// static_assert on the table size).
enum class Counter : std::uint8_t {
  kHonestBlocksMined = 0,  ///< honest oracle successes
  kAdversaryBlocksMined,   ///< adversary oracle successes (incl. withheld)
  kDeliveries,             ///< calendar deliveries applied to a view
  kDuplicateDeliveries,    ///< deliveries dropped by the knows() fast path
  kOrphansBuffered,        ///< blocks parked awaiting an unknown parent
  kOrphansActivated,       ///< blocks woken from the orphan buffer
  kAdoptions,              ///< tip changes under the longest-chain rule
  kReorgs,                 ///< adoptions that abandoned >= 1 block
  kCalendarScheduled,      ///< calendar entries (runs) created
  kCalendarGrows,          ///< calendar ring re-bucketings
  kAncestryQueries,        ///< BlockStore jump-column ancestry lookups
  kQuietRoundsSkipped,     ///< rounds committed by the quiet fast path
  kClassSplits,            ///< view classes split off by a partial delivery
  kClassMerges,            ///< view-class pairs merged into one
  kClassDeliveries,        ///< class-level MinerView::deliver calls
  kCalendarRunsDrained,    ///< runs the calendar drain handed out
  kCount,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Engine round phases, as scoped in ExecutionEngine::run and its
/// callees.  Scopes nest (kSchedule runs inside kMine; orphan activation
/// and tip adoption are counter-tracked sub-steps of kDeliver — timing
/// them per event would be too costly), so phase times are inclusive
/// wall time of each scope, not a partition of the round.
enum class Phase : std::uint8_t {
  kDeliver = 0,  ///< applying due deliveries (includes activate/adopt)
  kMine,         ///< honest mining draws + block creation
  kSchedule,     ///< broadcast scheduling of a fresh honest block
  kAdversary,    ///< the adversary's turn
  kMetrics,      ///< per-round consistency observation
  kCount,
};
inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] const char* counter_name(Counter counter) noexcept;
[[nodiscard]] const char* phase_name(Phase phase) noexcept;

/// One run's telemetry: counter values plus inclusive per-phase wall time
/// (all-zero phase times unless the run was timed).
struct TelemetrySnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kPhaseCount> phase_nanos{};
};

/// One timed scope instance, for the Chrome-trace timeline.  Timestamps
/// are steady_clock nanos (origin arbitrary; the exporter rebases).
struct PhaseEvent {
  std::uint64_t start_ns = 0;
  std::uint64_t duration_ns = 0;
  Phase phase = Phase::kDeliver;
};

/// Pre-sized per-thread event registry: recording stops (timers keep
/// accumulating) once a run has produced this many scope instances, so
/// the timeline is bounded and the hot path never allocates.
inline constexpr std::size_t kMaxPhaseEvents = 4096;

/// Deterministic seed-ordered fold of per-run counters (phase times stay
/// per run: only the traced run is ever timed).  Plain sums, so add/merge
/// are associative and commutative — (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c) — and any
/// grouping of the same runs produces identical totals.  This is the
/// RunningStats-style merge the sink/report layer surfaces as meta
/// columns.
struct TelemetryAccumulator {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::uint64_t runs = 0;

  void add(const TelemetrySnapshot& snapshot) noexcept;
  void merge(const TelemetryAccumulator& other) noexcept;
};

/// Writes a run's phase timeline as a Chrome-trace JSON document
/// ("traceEvents" array of complete "X" events, microsecond timestamps
/// rebased to the first scope) that opens directly in chrome://tracing
/// and Perfetto.  The counter values ride along as the args of one
/// instant event, and the per-phase totals as another.  With no events
/// (an untimed run) the document is valid but holds no "X" events.
void write_chrome_trace(std::ostream& os, std::span<const PhaseEvent> events,
                        const TelemetrySnapshot& snapshot);

namespace detail {

/// The pre-sized per-thread registry.  thread_local so parallel sweep
/// workers never contend; the engine resets it at run() entry and
/// snapshots it at run() exit, both on the worker's own thread.
struct Registers {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kPhaseCount> phase_nanos{};
  std::array<PhaseEvent, kMaxPhaseEvents> events{};
  std::size_t event_count = 0;
  bool timing = false;  ///< phase scopes read the clock (not reset())
};

inline Registers& registers() noexcept {
  thread_local Registers instance;
  return instance;
}

}  // namespace detail

inline void bump(Counter counter, std::uint64_t by = 1) noexcept {
  detail::registers().counters[static_cast<std::size_t>(counter)] += by;
}

/// RAII phase timer.  Untimed (the default) it costs one thread_local
/// flag read; timed, two steady_clock reads plus one bounded registry
/// store.  steady_clock (not system_clock) so the duration is immune to
/// wall-clock steps; the determinism lint allows it only here.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase) noexcept
      : phase_(phase), timed_(detail::registers().timing) {
    if (timed_) start_ = std::chrono::steady_clock::now();
  }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  ~PhaseScope() noexcept {
    if (!timed_) return;
    const auto end = std::chrono::steady_clock::now();
    const auto duration = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count());
    detail::Registers& regs = detail::registers();
    regs.phase_nanos[static_cast<std::size_t>(phase_)] += duration;
    if (regs.event_count < kMaxPhaseEvents) {
      const auto start_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              start_.time_since_epoch())
              .count());
      regs.events[regs.event_count++] = {start_ns, duration, phase_};
    }
  }

 private:
  Phase phase_;
  bool timed_;
  std::chrono::steady_clock::time_point start_;
};

/// Sets phase timing for the calling thread to `on` for the guard's
/// lifetime (restoring the previous setting after); timed runs record
/// phase times and a Chrome-trace timeline.
class ScopedPhaseTiming {
 public:
  explicit ScopedPhaseTiming(bool on) noexcept
      : previous_(detail::registers().timing) {
    detail::registers().timing = on;
  }
  ~ScopedPhaseTiming() { detail::registers().timing = previous_; }

  ScopedPhaseTiming(const ScopedPhaseTiming&) = delete;
  ScopedPhaseTiming& operator=(const ScopedPhaseTiming&) = delete;

 private:
  bool previous_;
};

/// Clears this thread's counters, timers and event log (the timing
/// switch is kept).  The engine calls it at run() entry so a snapshot
/// covers exactly one run.
inline void reset() noexcept {
  detail::Registers& regs = detail::registers();
  regs.counters = {};
  regs.phase_nanos = {};
  regs.event_count = 0;
}

/// This thread's registry as a value — counters + phase times since the
/// last reset().
[[nodiscard]] inline TelemetrySnapshot snapshot() noexcept {
  const detail::Registers& regs = detail::registers();
  return {regs.counters, regs.phase_nanos};
}

/// The bounded per-scope timeline since the last reset(), on this thread.
/// Valid until the next reset() on the same thread.
[[nodiscard]] inline std::span<const PhaseEvent> phase_events() noexcept {
  const detail::Registers& regs = detail::registers();
  return {regs.events.data(), regs.event_count};
}

#define NEATBOUND_COUNT(counter) \
  ::neatbound::telemetry::bump(::neatbound::telemetry::Counter::counter)
#define NEATBOUND_COUNT_ADD(counter, by)                                  \
  ::neatbound::telemetry::bump(::neatbound::telemetry::Counter::counter, \
                               (by))
#define NEATBOUND_TELEMETRY_CONCAT2(a, b) a##b
#define NEATBOUND_TELEMETRY_CONCAT(a, b) NEATBOUND_TELEMETRY_CONCAT2(a, b)
#define NEATBOUND_PHASE_SCOPE(phase)                     \
  const ::neatbound::telemetry::PhaseScope               \
      NEATBOUND_TELEMETRY_CONCAT(neatbound_phase_scope_, \
                                 __LINE__) {             \
    ::neatbound::telemetry::Phase::phase                 \
  }

}  // namespace neatbound::telemetry
