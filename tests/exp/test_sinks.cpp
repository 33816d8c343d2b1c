#include <algorithm>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <memory>
#include <sstream>

#include "exp/bench_io.hpp"
#include "exp/sinks.hpp"
#include "support/contracts.hpp"

namespace neatbound::exp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(TableSink, RendersSectionsInOrder) {
  std::ostringstream os;
  TableSink sink(os);
  sink.begin_section("first", {"a", "b"});
  sink.add_row({"1", "2"});
  sink.begin_section("second", {"c"});
  sink.add_row({"3"});
  sink.finish();
  const std::string out = os.str();
  const auto first = out.find("## first");
  const auto second = out.find("## second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
  EXPECT_LT(out.find("| 1 |"), second);  // rows render with their section
}

TEST(TableSink, EmptySectionNameOmitsHeading) {
  std::ostringstream os;
  TableSink sink(os);
  sink.begin_section("", {"a"});
  sink.add_row({"1"});
  sink.finish();
  EXPECT_EQ(os.str().find("##"), std::string::npos);
}

TEST(TableSink, RowBeforeSectionIsContractViolation) {
  std::ostringstream os;
  TableSink sink(os);
  EXPECT_THROW(sink.add_row({"1"}), ContractViolation);
}

TEST(CsvSink, SectionColumnAndSingleHeaderForUniformSchema) {
  const std::string path = ::testing::TempDir() + "exp_sink_uniform.csv";
  {
    CsvSink sink(path);
    sink.begin_section("s1", {"x", "y"});
    sink.add_row({"1", "2"});
    sink.begin_section("s2", {"x", "y"});
    sink.add_row({"3", "4"});
    sink.finish();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "section,x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "s1,1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "s2,3,4");
  EXPECT_FALSE(std::getline(in, line));  // header not repeated
  std::remove(path.c_str());
}

TEST(CsvSink, ReemitsHeaderWhenSchemaChanges) {
  const std::string path = ::testing::TempDir() + "exp_sink_schema.csv";
  {
    CsvSink sink(path);
    sink.begin_section("s1", {"x"});
    sink.add_row({"1"});
    sink.begin_section("s2", {"y", "z"});
    sink.add_row({"2", "3"});
    sink.finish();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "section,x");
  std::getline(in, line);
  EXPECT_EQ(line, "s1,1");
  std::getline(in, line);
  EXPECT_EQ(line, "section,y,z");
  std::getline(in, line);
  EXPECT_EQ(line, "s2,2,3");
  std::remove(path.c_str());
}

TEST(CsvSink, UnnamedSectionsOmitSectionColumn) {
  const std::string path = ::testing::TempDir() + "exp_sink_unnamed.csv";
  {
    CsvSink sink(path);
    sink.begin_section("", {"x", "y"});
    sink.add_row({"1", "2"});
    sink.finish();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");  // the pre-orchestrator --csv schema
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(CsvSink, SectionColumnAppearsOnceAnySectionIsNamed) {
  const std::string path = ::testing::TempDir() + "exp_sink_mixed.csv";
  {
    CsvSink sink(path);
    sink.begin_section("", {"x"});
    sink.add_row({"1"});
    sink.begin_section("named", {"x"});
    sink.add_row({"2"});
    sink.finish();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::getline(in, line);
  EXPECT_EQ(line, "1");
  std::getline(in, line);
  EXPECT_EQ(line, "section,x");  // header re-emitted with the new column
  std::getline(in, line);
  EXPECT_EQ(line, "named,2");
  std::remove(path.c_str());
}

TEST(CsvSink, QuotesSectionNamesWithCommas) {
  const std::string path = ::testing::TempDir() + "exp_sink_quote.csv";
  {
    CsvSink sink(path);
    sink.begin_section("nu = 0.1, c = 2", {"x"});
    sink.add_row({"1"});
    sink.finish();
  }
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"nu = 0.1, c = 2\",1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvSink, WrongRowWidthIsContractViolation) {
  const std::string path = ::testing::TempDir() + "exp_sink_width.csv";
  CsvSink sink(path);
  sink.begin_section("s", {"a", "b"});
  EXPECT_THROW(sink.add_row({"only"}), ContractViolation);
  std::remove(path.c_str());
}

TEST(JsonSink, WritesDocumentWithMetaSectionsRows) {
  const std::string path = ::testing::TempDir() + "exp_sink.json";
  {
    JsonSink sink(path, "unit_bench");
    sink.set_meta("note", "he said \"hi\"");
    sink.set_meta_number("rounds", 500);
    sink.begin_section("s1", {"x", "y"});
    sink.add_row({"1", "2"});
    sink.begin_section("s2", {"z"});
    sink.finish();
  }
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"bench\": \"unit_bench\""), std::string::npos);
  EXPECT_NE(text.find("\"note\": \"he said \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(text.find("\"rounds\": 500"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"s1\""), std::string::npos);
  EXPECT_NE(text.find("[\"1\", \"2\"]"), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"s2\""), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check.
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
            std::count(text.begin(), text.end(), '}'));
  EXPECT_EQ(std::count(text.begin(), text.end(), '['),
            std::count(text.begin(), text.end(), ']'));
  std::remove(path.c_str());
}

TEST(BenchOptions, ParsesUniformFlags) {
  const char* argv[] = {"prog", "--threads=3", "--csv=out.csv",
                        "--json", "out.json"};
  CliArgs args(5, argv);
  const BenchOptions options = parse_bench_options(args);
  EXPECT_EQ(options.threads, 3u);
  EXPECT_EQ(options.csv_path, "out.csv");
  EXPECT_EQ(options.json_path, "out.json");
  args.reject_unconsumed();
}

TEST(BenchOptions, RejectsBarePathFlags) {
  const char* argv[] = {"prog", "--csv"};
  CliArgs args(2, argv);
  EXPECT_EXIT((void)parse_bench_options(args), ::testing::ExitedWithCode(2),
              "flag --csv expects a path");
}

TEST(BenchOptions, RejectsThreadsBeyondUnsignedRange) {
  // 2^32 would wrap to 0 (= auto) through the unsigned cast.
  const char* argv[] = {"prog", "--threads=4294967296"};
  CliArgs args(2, argv);
  EXPECT_EXIT((void)parse_bench_options(args), ::testing::ExitedWithCode(2),
              "flag --threads out of range");
}

TEST(SinkSet, FansOutToAllSinks) {
  const std::string csv_path = ::testing::TempDir() + "exp_set.csv";
  const std::string json_path = ::testing::TempDir() + "exp_set.json";
  auto os = std::make_unique<std::ostringstream>();
  std::ostringstream& table_out = *os;
  {
    SinkSet set;
    struct Holder final : ResultSink {  // keep the stream alive in the set
      explicit Holder(std::unique_ptr<std::ostringstream> s)
          : stream(std::move(s)), sink(*stream) {}
      void begin_section(const std::string& n,
                         const std::vector<std::string>& h) override {
        sink.begin_section(n, h);
      }
      void add_row(const std::vector<std::string>& c) override {
        sink.add_row(c);
      }
      void finish() override { sink.finish(); }
      std::unique_ptr<std::ostringstream> stream;
      TableSink sink;
    };
    set.add(std::make_unique<Holder>(std::move(os)));
    set.add(std::make_unique<CsvSink>(csv_path));
    set.add(std::make_unique<JsonSink>(json_path, "fanout"));
    EXPECT_EQ(set.sink_count(), 3u);
    set.begin_section("s", {"a"});
    set.add_row({"42"});
    set.finish();
    EXPECT_NE(table_out.str().find("42"), std::string::npos);
  }
  EXPECT_NE(slurp(csv_path).find("s,42"), std::string::npos);
  EXPECT_NE(slurp(json_path).find("\"42\""), std::string::npos);
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace neatbound::exp
