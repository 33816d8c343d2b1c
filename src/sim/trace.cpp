#include "sim/trace.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "support/contracts.hpp"
#include "support/json.hpp"

namespace neatbound::sim {

namespace {

std::uint64_t parse_round_number(const std::string& text,
                                 std::size_t begin, std::size_t end) {
  std::uint64_t value = 0;
  const char* first = text.data() + begin;
  const char* last = text.data() + end;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) {
    throw std::invalid_argument("--trace-rounds: \"" + text +
                                "\" is not A:B with numeric bounds");
  }
  return value;
}

}  // namespace

TraceBounds parse_trace_rounds(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("--trace-rounds: empty bounds");
  }
  TraceBounds bounds;
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    // A bare round number traces exactly that round.
    bounds.first_round = parse_round_number(text, 0, text.size());
    bounds.last_round = bounds.first_round;
  } else {
    if (colon > 0) {
      bounds.first_round = parse_round_number(text, 0, colon);
    }
    if (colon + 1 < text.size()) {
      bounds.last_round = parse_round_number(text, colon + 1, text.size());
    }
  }
  if (bounds.first_round == 0) {
    throw std::invalid_argument("--trace-rounds: rounds are 1-based");
  }
  if (bounds.first_round > bounds.last_round) {
    throw std::invalid_argument("--trace-rounds: first round " +
                                std::to_string(bounds.first_round) +
                                " exceeds last round " +
                                std::to_string(bounds.last_round));
  }
  return bounds;
}

BoundedTraceWriter::BoundedTraceWriter(std::ostream& os, TraceBounds bounds)
    : os_(&os), bounds_(bounds) {
  NEATBOUND_EXPECTS(bounds.first_round <= bounds.last_round,
                    "trace bounds must be a non-empty window");
  NEATBOUND_EXPECTS(bounds.max_records >= 1,
                    "trace bounds must admit at least one record");
}

void BoundedTraceWriter::on_round(const RoundRecord& record) {
  if (!bounds_.contains(record.round)) return;
  if (written_ >= bounds_.max_records) {
    truncated_ = true;
    return;
  }
  *os_ << to_jsonl_line(record) << '\n';
  ++written_;
}

std::string to_jsonl_line(const RoundRecord& record) {
  std::string line;
  line.reserve(160 + record.mined_by.size() * 4);
  line += "{\"round\":";
  line += std::to_string(record.round);
  line += ",\"honest_mined\":";
  line += std::to_string(record.honest_mined);
  line += ",\"adversary_mined\":";
  line += std::to_string(record.adversary_mined);
  line += ",\"mined_by\":[";
  for (std::size_t i = 0; i < record.mined_by.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(record.mined_by[i]);
  }
  line += "],\"delivered\":";
  line += std::to_string(record.delivered);
  line += ",\"adoptions\":";
  line += std::to_string(record.adoptions);
  line += ",\"best_height\":";
  line += std::to_string(record.best_height);
  line += ",\"violation_depth\":";
  line += std::to_string(record.violation_depth);
  line += '}';
  return line;
}

namespace {

constexpr const char* kRecordKeys[] = {
    "round",     "honest_mined", "adversary_mined", "mined_by",
    "delivered", "adoptions",    "best_height",     "violation_depth",
};

[[noreturn]] void trace_error(std::size_t line_number,
                              const std::string& what) {
  throw std::runtime_error("trace line " + std::to_string(line_number) +
                           ": " + what);
}

}  // namespace

RoundRecord round_record_from_json(const support::JsonValue& value) {
  if (!value.is_object()) {
    throw std::runtime_error("expected a JSON object");
  }
  const auto& members = value.as_object();
  constexpr std::size_t kKeyCount =
      sizeof(kRecordKeys) / sizeof(kRecordKeys[0]);
  if (members.size() != kKeyCount) {
    throw std::runtime_error("expected exactly " + std::to_string(kKeyCount) +
                             " keys, got " + std::to_string(members.size()));
  }
  for (const char* key : kRecordKeys) {
    if (value.find(key) == nullptr) {
      throw std::runtime_error(std::string("missing key \"") + key + "\"");
    }
  }
  RoundRecord record;
  record.round = value.at("round").as_uint();
  record.honest_mined = value.at("honest_mined").as_uint32();
  record.adversary_mined = value.at("adversary_mined").as_uint32();
  for (const support::JsonValue& id : value.at("mined_by").as_array()) {
    record.mined_by.push_back(id.as_uint32());
  }
  record.delivered = value.at("delivered").as_uint32();
  record.adoptions = value.at("adoptions").as_uint32();
  record.best_height = value.at("best_height").as_uint();
  record.violation_depth = value.at("violation_depth").as_uint();
  // Empty mined_by with honest_mined > 0 is the aggregate-engine form
  // (counting-only records, miner identity not modeled).
  if (!record.mined_by.empty() &&
      record.mined_by.size() != record.honest_mined) {
    throw std::runtime_error("mined_by length disagrees with honest_mined");
  }
  return record;
}

std::vector<RoundRecord> read_trace_jsonl(std::istream& is) {
  std::vector<RoundRecord> records;
  std::string line;
  std::size_t line_number = 0;
  bool saw_blank = false;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty()) {
      saw_blank = true;
      continue;
    }
    if (saw_blank) {
      trace_error(line_number, "record after a blank line");
    }
    RoundRecord record;
    try {
      record = round_record_from_json(support::parse_json(line));
    } catch (const std::exception& e) {
      trace_error(line_number, e.what());
    }
    if (!records.empty() && record.round <= records.back().round) {
      trace_error(line_number, "rounds must be strictly increasing");
    }
    records.push_back(std::move(record));
  }
  return records;
}

RoundRecord make_round_record(const ExecutionEngine& engine,
                              std::uint64_t round) {
  const RoundActivity& activity = engine.round_activity();
  RoundRecord record;
  record.round = round;
  record.honest_mined = activity.honest_mined;
  record.adversary_mined = activity.adversary_mined;
  record.mined_by.assign(engine.round_miners().begin(),
                         engine.round_miners().end());
  record.delivered = activity.delivered;
  record.adoptions = activity.adoptions;
  record.best_height = engine.best_height();
  record.violation_depth = engine.violation_depth();
  return record;
}

ExecutionEngine::RoundObserver make_round_tracer(RoundTraceSink& sink) {
  return [&sink](const ExecutionEngine& engine, std::uint64_t round) {
    sink.on_round(make_round_record(engine, round));
  };
}

}  // namespace neatbound::sim
