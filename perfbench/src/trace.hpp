// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, plus the forwarding adversary decorator that times
// engine runs and adversary turns from inside the exp worker pool.
//
// Everything here lives in the benchmark, not in the program: a span is
// opened and closed around a public call (or, for engine runs, between
// the construction and destruction of the run's adversary), held in
// memory, and written out once at the end of the traced pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the log, -1 = root
  std::uint32_t unit = 0;    ///< which traced unit the span belongs to
};

/// One engine run the traced pass saw, so the counting pass and the
/// unit-cost replays can re-execute exactly the same (config, seed).
struct Job {
  neatbound::scenario::ComponentSpec adversary;
  neatbound::scenario::ComponentSpec network;
  neatbound::sim::EngineConfig engine;
};

/// In-memory span log plus the per-call aggregates too fine-grained to
/// keep as spans (one adversary turn or oracle pass per round).
class Tracer {
 public:
  /// Opens a span whose parent is the innermost open one; returns its id.
  std::int32_t open(const char* name);
  void close(std::int32_t id);
  /// Drops span `id`, which must be the most recently opened one and
  /// still open (a probe that turned out not to be a run).
  void cancel(std::int32_t id);

  void begin_unit() { ++unit_; }
  [[nodiscard]] std::uint32_t unit() const noexcept { return unit_; }

  /// Σ duration of every span called `name` in unit `unit`, in seconds.
  [[nodiscard]] double total_s(const std::string& name,
                               std::uint32_t unit) const;
  /// Durations (s) of every span called `name` in `unit`.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              std::uint32_t unit) const;
  /// Σ over spans `name` in `unit` of (duration − time covered by direct
  /// children), in seconds.
  [[nodiscard]] double self_s(const std::string& name,
                              std::uint32_t unit) const;

  /// Spans as JSON lines: name, start_ns, end_ns, parent, unit.
  void write_jsonl(std::ostream& os) const;

  // Per-call aggregates, reset per unit by the caller.
  std::uint64_t acts = 0;
  std::int64_t act_ns = 0;
  std::uint64_t oracle_rounds = 0;
  std::int64_t oracle_ns = 0;
  std::int64_t trace_write_ns = 0;

  /// The spec whose sweep is running (its components go into each Job).
  const neatbound::scenario::ScenarioSpec* current_spec = nullptr;
  /// Engine runs of the current unit, in execution order.
  std::vector<Job> jobs;
  /// Set when a span could not be recorded from a destructor; the traced
  /// pass then counts as failed.
  std::string error;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_stack_;
  std::uint32_t unit_ = 0;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  ~Scoped() {
    if (tracer_) tracer_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Forwarding decorator around a registry-built strategy.  Every virtual
/// forwards unchanged (quiet_act_is_noop included), so a run through it
/// is bit-identical to an undecorated one.  Its lifetime brackets the
/// engine's: the factory builds it just before the engine and the engine
/// destroys it, so construction→destruction is recorded as one "sim.run"
/// span — but only when the engine actually called into it (the
/// component-validation probe builds and discards an adversary too).
class TimedAdversary final : public neatbound::sim::Adversary {
 public:
  TimedAdversary(std::unique_ptr<neatbound::sim::Adversary> inner,
                 Tracer& tracer, const neatbound::sim::EngineConfig& engine);
  ~TimedAdversary() override;
  TimedAdversary(const TimedAdversary&) = delete;
  TimedAdversary& operator=(const TimedAdversary&) = delete;

  [[nodiscard]] std::uint64_t honest_delay(
      std::uint64_t round, std::uint32_t sender, std::uint32_t recipient,
      neatbound::protocol::BlockIndex block) override;
  void on_honest_block(std::uint64_t round,
                       neatbound::protocol::BlockIndex block) override;
  void act(neatbound::sim::AdversaryOps& ops) override;
  [[nodiscard]] bool quiet_act_is_noop() const override {
    return inner_->quiet_act_is_noop();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<neatbound::sim::Adversary> inner_;
  Tracer& tracer_;
  neatbound::sim::EngineConfig engine_;
  std::int32_t span_;
  bool used_ = false;
};

/// Resident-set high-water marks, one per segment between marks.  mark()
/// records the peak RSS since the previous mark (VmHWM), returns freed
/// heap to the system (malloc_trim) and resets the mark through
/// /proc/self/clear_refs; where the reset is refused the marks degrade
/// to the process peak so far.
class RssProbe {
 public:
  void mark();
  [[nodiscard]] const std::vector<double>& segments_mb() const noexcept {
    return segments_;
  }

 private:
  std::vector<double> segments_;
};

/// The registry every unit runs through: the built-in networks and
/// strategies, with `probe.mark()` called each time a strategy is built —
/// right before its engine — so each segment covers one engine run.
/// With a tracer, each strategy is also wrapped in TimedAdversary.  The
/// probe and tracer must outlive the registry.
[[nodiscard]] std::unique_ptr<neatbound::scenario::ScenarioRegistry>
make_run_registry(RssProbe& probe, Tracer* tracer);

}  // namespace perfbench
