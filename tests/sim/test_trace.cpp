// Trace-layer tests: --trace-rounds parsing, the bounded JSONL writer,
// reader strictness (the schema is a contract — `neatbound_cli validate`
// applies this reader to trace files), writer↔reader round-trips,
// and observer purity (a traced run's RunResult is bit-identical to an
// untraced run).
#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "chains/convergence.hpp"
#include "sim/strategies.hpp"
#include "support/telemetry.hpp"

namespace neatbound::sim {
namespace {

class CollectingSink final : public RoundTraceSink {
 public:
  void on_round(const RoundRecord& record) override {
    records.push_back(record);
  }
  std::vector<RoundRecord> records;
};

RoundRecord sample_record(std::uint64_t round) {
  RoundRecord record;
  record.round = round;
  record.honest_mined = 2;
  record.adversary_mined = 1;
  record.mined_by = {3, 7};
  record.delivered = 5;
  record.adoptions = 4;
  record.best_height = round + 10;
  record.violation_depth = 1;
  return record;
}

TEST(ParseTraceRounds, AcceptsEveryDocumentedForm) {
  const TraceBounds both = parse_trace_rounds("5:9");
  EXPECT_EQ(both.first_round, 5u);
  EXPECT_EQ(both.last_round, 9u);

  const TraceBounds open_end = parse_trace_rounds("5:");
  EXPECT_EQ(open_end.first_round, 5u);
  EXPECT_EQ(open_end.last_round, std::numeric_limits<std::uint64_t>::max());

  const TraceBounds open_start = parse_trace_rounds(":9");
  EXPECT_EQ(open_start.first_round, 1u);
  EXPECT_EQ(open_start.last_round, 9u);

  const TraceBounds single = parse_trace_rounds("7");
  EXPECT_EQ(single.first_round, 7u);
  EXPECT_EQ(single.last_round, 7u);
}

TEST(ParseTraceRounds, RejectsMalformedWindows) {
  EXPECT_THROW((void)parse_trace_rounds(""), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_rounds("abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_rounds("1:2:3"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_rounds("-3"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_rounds("0:5"), std::invalid_argument);
  EXPECT_THROW((void)parse_trace_rounds("9:5"), std::invalid_argument);
}

TEST(BoundedTraceWriter, EnforcesWindowAndRecordCap) {
  std::ostringstream os;
  TraceBounds bounds;
  bounds.first_round = 3;
  bounds.last_round = 10;
  bounds.max_records = 4;
  BoundedTraceWriter writer(os, bounds);
  for (std::uint64_t round = 1; round <= 12; ++round) {
    writer.on_round(sample_record(round));
  }
  EXPECT_EQ(writer.records_written(), 4u);
  EXPECT_TRUE(writer.truncated());

  std::istringstream is(os.str());
  const std::vector<RoundRecord> readback = read_trace_jsonl(is);
  ASSERT_EQ(readback.size(), 4u);
  EXPECT_EQ(readback.front().round, 3u);  // window skips rounds 1-2
  EXPECT_EQ(readback.back().round, 6u);   // cap stops after 4 records
}

TEST(BoundedTraceWriter, InBudgetRunIsNotTruncated) {
  std::ostringstream os;
  BoundedTraceWriter writer(os, TraceBounds{});
  for (std::uint64_t round = 1; round <= 5; ++round) {
    writer.on_round(sample_record(round));
  }
  EXPECT_EQ(writer.records_written(), 5u);
  EXPECT_FALSE(writer.truncated());
}

TEST(TraceJsonl, WriterReaderRoundTrip) {
  std::vector<RoundRecord> records;
  records.push_back(sample_record(1));
  RoundRecord quiet;  // a round where nothing happened
  quiet.round = 2;
  quiet.best_height = records.front().best_height;  // running maxima
  quiet.violation_depth = records.front().violation_depth;
  records.push_back(quiet);
  records.push_back(sample_record(9));

  std::ostringstream os;
  for (const RoundRecord& record : records) {
    os << to_jsonl_line(record) << '\n';
  }
  std::istringstream is(os.str());
  const std::vector<RoundRecord> readback = read_trace_jsonl(is);
  ASSERT_EQ(readback.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(readback[i].round, records[i].round);
    EXPECT_EQ(readback[i].honest_mined, records[i].honest_mined);
    EXPECT_EQ(readback[i].adversary_mined, records[i].adversary_mined);
    EXPECT_EQ(readback[i].mined_by, records[i].mined_by);
    EXPECT_EQ(readback[i].delivered, records[i].delivered);
    EXPECT_EQ(readback[i].adoptions, records[i].adoptions);
    EXPECT_EQ(readback[i].best_height, records[i].best_height);
    EXPECT_EQ(readback[i].violation_depth, records[i].violation_depth);
  }
}

TEST(TraceJsonl, ReaderRejectsSchemaDrift) {
  // Every rejection names its line and the offending key (or rule).
  const auto reject = [](const std::string& text, const std::string& key) {
    std::istringstream is(text);
    try {
      (void)read_trace_jsonl(is);
      ADD_FAILURE() << "reader accepted: " << text;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_EQ(what.rfind("trace line ", 0), 0u) << what;
      EXPECT_NE(what.find(key), std::string::npos)
          << "expected \"" << key << "\" in: " << what;
    }
  };
  const std::string good = to_jsonl_line(sample_record(1));
  // `good` with the JSON text `from` replaced by `to`.
  const auto edited = [&good](const std::string& from, const std::string& to) {
    std::string bad = good;
    const auto pos = bad.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return pos == std::string::npos ? bad : bad.replace(pos, from.size(), to);
  };

  reject("not json\n", "JSON");
  reject("[1,2]\n", "JSON object");
  // An extra key: the key set is exact, not a superset.
  std::string extra = good;
  extra.insert(extra.size() - 1, ",\"extra\":0");
  reject(extra + "\n", "extra");
  // A missing key (violation_depth dropped).
  reject(
      "{\"round\":1,\"honest_mined\":0,\"adversary_mined\":0,"
      "\"mined_by\":[],\"delivered\":0,\"adoptions\":0,"
      "\"best_height\":0}\n",
      "violation_depth");
  // A value of the wrong kind: a bool count, a negative height, a
  // string miner id.
  reject(edited("\"delivered\":5", "\"delivered\":true") + "\n", "delivered");
  reject(edited("\"best_height\":11", "\"best_height\":-1") + "\n",
         "best_height");
  reject(edited("[3,7]", "[\"a\",7]") + "\n", "mined_by");
  // mined_by must have honest_mined entries, an empty one included.
  reject(
      "{\"round\":1,\"honest_mined\":2,\"adversary_mined\":0,"
      "\"mined_by\":[1],\"delivered\":0,\"adoptions\":0,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "mined_by");
  reject(
      "{\"round\":1,\"honest_mined\":2,\"adversary_mined\":0,"
      "\"mined_by\":[],\"delivered\":0,\"adoptions\":0,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "mined_by");
  // 32-bit counters past 2^32, which a bare cast would truncate back to
  // a well-formed record.
  reject(
      "{\"round\":1,\"honest_mined\":4294967297,\"adversary_mined\":0,"
      "\"mined_by\":[],\"delivered\":0,\"adoptions\":0,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "honest_mined");
  reject(
      "{\"round\":1,\"honest_mined\":0,\"adversary_mined\":4294967296,"
      "\"mined_by\":[],\"delivered\":0,\"adoptions\":0,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "adversary_mined");
  reject(
      "{\"round\":1,\"honest_mined\":1,\"adversary_mined\":0,"
      "\"mined_by\":[4294967296],\"delivered\":0,\"adoptions\":0,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "mined_by");
  reject(
      "{\"round\":1,\"honest_mined\":0,\"adversary_mined\":0,"
      "\"mined_by\":[],\"delivered\":4294967296,\"adoptions\":0,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "delivered");
  reject(
      "{\"round\":1,\"honest_mined\":0,\"adversary_mined\":0,"
      "\"mined_by\":[],\"delivered\":0,\"adoptions\":4294967296,"
      "\"best_height\":0,\"violation_depth\":0}\n",
      "adoptions");
  // Rounds 1-based and strictly increasing.
  reject(to_jsonl_line(sample_record(0)) + "\n", "round");
  reject(good + "\n" + good + "\n", "line 2: rounds");
  // best_height and violation_depth are running maxima.
  RoundRecord lower = sample_record(2);
  lower.best_height = sample_record(1).best_height - 1;
  reject(good + "\n" + to_jsonl_line(lower) + "\n", "best_height");
  lower = sample_record(2);
  lower.violation_depth = sample_record(1).violation_depth - 1;
  reject(good + "\n" + to_jsonl_line(lower) + "\n", "violation_depth");
  // A tip switch needs a delivery or a freshly mined block.
  RoundRecord unexplained = sample_record(1);
  unexplained.adoptions = unexplained.delivered + unexplained.honest_mined + 1;
  reject(to_jsonl_line(unexplained) + "\n", "adoptions");
  // Blank lines only at the end of the stream.
  reject(good + "\n\n" + good + "\n", "blank line");

  // ... and a trailing blank is fine (a flushed, truncated file).
  std::istringstream trailing(good + "\n\n");
  EXPECT_EQ(read_trace_jsonl(trailing).size(), 1u);
}

EngineConfig traced_config() {
  EngineConfig config;
  config.miner_count = 24;
  config.adversary_fraction = 0.25;
  config.p = 0.01;
  config.delta = 2;
  config.rounds = 600;
  config.seed = 2026;
  return config;
}

/// The honest block count of each recorded round.
std::vector<std::uint32_t> honest_series(
    const std::vector<RoundRecord>& records) {
  std::vector<std::uint32_t> series;
  for (const RoundRecord& record : records) {
    series.push_back(record.honest_mined);
  }
  return series;
}

TEST(RoundTracer, TracedRunIsBitIdenticalToUntraced) {
  ExecutionEngine plain(traced_config(),
                        std::make_unique<PrivateWithholdAdversary>());
  const RunResult untraced = plain.run();

  CollectingSink sink;
  ExecutionEngine observed(traced_config(),
                           std::make_unique<PrivateWithholdAdversary>());
  const RunResult traced = observed.run(make_round_tracer(sink));

  // The untraced run's online C is the one-pass count over the honest
  // block counts the traced run recorded.
  EXPECT_EQ(untraced.convergence_opportunities,
            chains::count_convergence_opportunities(
                honest_series(sink.records), traced_config().delta));
  EXPECT_EQ(traced.honest_blocks_total, untraced.honest_blocks_total);
  EXPECT_EQ(traced.adversary_blocks_total, untraced.adversary_blocks_total);
  EXPECT_EQ(traced.convergence_opportunities,
            untraced.convergence_opportunities);
  EXPECT_EQ(traced.max_reorg_depth, untraced.max_reorg_depth);
  EXPECT_EQ(traced.max_divergence, untraced.max_divergence);
  EXPECT_EQ(traced.disagreement_rounds, untraced.disagreement_rounds);
  EXPECT_EQ(traced.violation_depth, untraced.violation_depth);
  EXPECT_EQ(traced.chain.best_height, untraced.chain.best_height);
  EXPECT_EQ(traced.chain.growth_per_round, untraced.chain.growth_per_round);
  EXPECT_EQ(traced.chain.honest_blocks_in_chain,
            untraced.chain.honest_blocks_in_chain);
  EXPECT_EQ(traced.chain.adversary_blocks_in_chain,
            untraced.chain.adversary_blocks_in_chain);
  EXPECT_EQ(traced.chain.quality, untraced.chain.quality);
  EXPECT_EQ(traced.store_size, untraced.store_size);
  // Event counters are part of the trajectory; phase wall times are not.
  // The traced run skips the same quiet rounds and the tracer makes no
  // ancestry lookups, so every counter matches exactly.
  EXPECT_EQ(traced.telemetry.counters, untraced.telemetry.counters);
  EXPECT_GT(traced.telemetry.counters[static_cast<std::size_t>(
                telemetry::Counter::kQuietRoundsSkipped)],
            0u);
}

TEST(RoundTracer, RecordsAreConsistentWithTheRun) {
  CollectingSink sink;
  ExecutionEngine engine(traced_config(),
                         std::make_unique<PrivateWithholdAdversary>());
  const RunResult result = engine.run(make_round_tracer(sink));

  ASSERT_EQ(sink.records.size(), traced_config().rounds);
  std::uint64_t honest_total = 0;
  std::uint64_t prev_best_height = 0;
  std::uint64_t prev_violation_depth = 0;
  for (std::size_t i = 0; i < sink.records.size(); ++i) {
    const RoundRecord& record = sink.records[i];
    EXPECT_EQ(record.round, i + 1);  // 1-based, dense
    EXPECT_EQ(record.mined_by.size(), record.honest_mined);
    EXPECT_LE(record.adoptions, record.delivered + record.honest_mined);
    EXPECT_GE(record.best_height, prev_best_height);
    EXPECT_GE(record.violation_depth, prev_violation_depth);
    prev_best_height = record.best_height;
    prev_violation_depth = record.violation_depth;
    honest_total += record.honest_mined;
  }
  EXPECT_EQ(honest_total, result.honest_blocks_total);
  EXPECT_EQ(result.convergence_opportunities,
            chains::count_convergence_opportunities(
                honest_series(sink.records), traced_config().delta));
  EXPECT_EQ(sink.records.back().best_height, result.chain.best_height);
  EXPECT_EQ(sink.records.back().violation_depth, result.violation_depth);
}

}  // namespace
}  // namespace neatbound::sim
