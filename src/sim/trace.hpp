// Structured per-round run traces: the bounded event stream behind
// `neatbound_cli run --trace` and the one per-round side channel.
//
// A trace is a JSONL stream — one self-contained JSON object per round —
// so a partial file (bounded writer, interrupted run) is still
// line-by-line parseable, and downstream tooling (`neatbound_cli
// validate`, jq, pandas) needs no framing.  The record is the per-round
// event granularity the characteristic-string analyses
// (Kiayias–Quader–Russell, Blum et al.) reason over: who mined, what was
// delivered, how views moved.
//
// Tracing is strictly read-only over the engine: the observer reads
// public accessors after the round has fully executed, so a traced run's
// RunResult is bit-identical to an untraced run of the same seed
// (asserted by tests/sim/test_trace.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace neatbound::support {
class JsonValue;  // support/json.hpp; kept out of this header's includes
}  // namespace neatbound::support

namespace neatbound::sim {

/// One round's events.  Every field is numeric, so serialization needs
/// no string escaping and the schema is trivially diffable.
struct RoundRecord {
  std::uint64_t round = 0;            ///< 1-based engine round
  std::uint32_t honest_mined = 0;     ///< honest blocks mined this round
  std::uint32_t adversary_mined = 0;  ///< adversary blocks mined this round
  /// Honest miner ids in mining order, one per honest block.
  std::vector<std::uint32_t> mined_by;
  std::uint32_t delivered = 0;        ///< calendar deliveries applied
  std::uint32_t adoptions = 0;        ///< tip changes across all views
  std::uint64_t best_height = 0;      ///< height of the best honest tip
  std::uint64_t violation_depth = 0;  ///< running max consistency violation
};

/// Round window + record cap for a bounded trace.  Records are emitted
/// for rounds in [first_round, last_round], at most max_records of them;
/// the cap keeps a misconfigured window from filling a disk.
struct TraceBounds {
  std::uint64_t first_round = 1;
  std::uint64_t last_round = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_records = std::uint64_t{1} << 20;

  [[nodiscard]] bool contains(std::uint64_t round) const noexcept {
    return round >= first_round && round <= last_round;
  }
};

/// Parses the CLI's `--trace-rounds A:B` syntax into a window: "A:B"
/// (inclusive, 1-based), "A:" (from A to the end), ":B" (from round 1).
/// Throws std::invalid_argument on malformed input or A > B.
[[nodiscard]] TraceBounds parse_trace_rounds(const std::string& text);

/// Consumer of per-round records.  The engine-side tracer feeds this, so
/// every structured per-round stream in the repo shares one schema and
/// one bounded writer.
class RoundTraceSink {
 public:
  virtual ~RoundTraceSink() = default;
  virtual void on_round(const RoundRecord& record) = 0;
};

/// JSONL writer enforcing TraceBounds: rounds outside the window are
/// skipped, and output stops permanently once max_records lines were
/// written (truncated() reports that).  This is the single sanctioned
/// trace serialization point — the neatbound-analyze trace-io rule keeps
/// sim/net/protocol code from growing private file writers beside it.
class BoundedTraceWriter final : public RoundTraceSink {
 public:
  BoundedTraceWriter(std::ostream& os, TraceBounds bounds);

  void on_round(const RoundRecord& record) override;

  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return written_;
  }
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

 private:
  std::ostream* os_;
  TraceBounds bounds_;
  std::uint64_t written_ = 0;
  bool truncated_ = false;
};

/// Strict JSONL reader: every line must pass round_record_from_json,
/// and each record must follow its predecessor per check_record_order.
/// Throws std::runtime_error naming the offending line.  Blank lines are
/// permitted only at the end of the stream.
[[nodiscard]] std::vector<RoundRecord> read_trace_jsonl(std::istream& is);

/// The RoundRecord serialization the writer emits, exposed for tests and
/// for tooling that wants single records.
[[nodiscard]] std::string to_jsonl_line(const RoundRecord& record);

/// The inverse of to_jsonl_line at single-record granularity: strict
/// parse of one already-decoded JSON value (exactly the RoundRecord
/// keys, integer fields, round >= 1, mined_by length honest_mined,
/// adoptions <= delivered + honest_mined).  Throws std::runtime_error
/// naming the offending key (a value of the wrong kind reads
/// "<key>: JSON: ...") but without line context —
/// read_trace_jsonl and the violation-artifact reader
/// (scenario/artifact.hpp) wrap it to name the offending line or slice
/// entry.
[[nodiscard]] RoundRecord round_record_from_json(
    const support::JsonValue& value);

/// The cross-record rules of one trace: rounds strictly increase, and
/// best_height and violation_depth (running maxima) never decrease.
/// Throws std::runtime_error without line context, like
/// round_record_from_json.
void check_record_order(const RoundRecord& previous, const RoundRecord& next);

/// Assembles one RoundRecord from the engine's per-round activity
/// accessors — the single definition of how engine state maps onto the
/// trace schema, shared by make_round_tracer and the invariant oracle's
/// slice recorder (sim/oracle.hpp).
[[nodiscard]] RoundRecord make_round_record(const ExecutionEngine& engine,
                                            std::uint64_t round);

/// An engine observer that assembles a RoundRecord from the engine's
/// per-round activity accessors after each round and feeds `sink`.  The
/// sink must outlive the returned observer.  Purely read-only (see file
/// comment).
[[nodiscard]] ExecutionEngine::RoundObserver make_round_tracer(
    RoundTraceSink& sink);

}  // namespace neatbound::sim
