#include "support/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace neatbound::support {
namespace {

/// The message of the std::runtime_error `read` throws ("" if none).
template <typename Read>
std::string error_of(Read&& read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a std::runtime_error";
  return "";
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(parse_json("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, NumbersRoundTripAsCppLiterals) {
  // Scenario grids must reproduce grids written as C++ literals bit-for-bit,
  // which hangs on strtod's correct rounding.
  EXPECT_EQ(parse_json("0.15").as_number(), 0.15);
  EXPECT_EQ(parse_json("0.4").as_number(), 0.4);
  EXPECT_EQ(parse_json("10.0").as_number(), 10.0);
}

TEST(Json, ParsesNestedStructure) {
  const JsonValue doc = parse_json(
      R"({"name": "x", "axes": [{"name": "nu", "values": [0.1, 0.2]}],
          "flag": true, "nothing": null})");
  EXPECT_EQ(require_field(doc, "name", "").as_string(), "x");
  const auto& axes = require_field(doc, "axes", "").as_array();
  ASSERT_EQ(axes.size(), 1u);
  EXPECT_EQ(require_field(axes[0], "values", "").as_array().size(), 2u);
  EXPECT_TRUE(require_field(doc, "flag", "").as_bool());
  EXPECT_TRUE(require_field(doc, "nothing", "").is_null());
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(Json, PreservesObjectKeyOrder) {
  const JsonValue doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\nd\teA")").as_string(),
            "a\"b\\c\nd\teA");
}

TEST(Json, UintAccessorChecksIntegrality) {
  EXPECT_EQ(parse_json("7").as_uint(), 7u);
  EXPECT_THROW((void)parse_json("7.5").as_uint(), std::runtime_error);
  EXPECT_THROW((void)parse_json("-1").as_uint(), std::runtime_error);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_json(""), std::runtime_error);
  EXPECT_THROW((void)parse_json("{"), std::runtime_error);
  EXPECT_THROW((void)parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW((void)parse_json("{\"a\" 1}"), std::runtime_error);
  EXPECT_THROW((void)parse_json("tru"), std::runtime_error);
  EXPECT_THROW((void)parse_json("1 2"), std::runtime_error);
  EXPECT_THROW((void)parse_json("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)parse_json("01x"), std::runtime_error);
}

TEST(Json, RejectsDuplicateKeys) {
  EXPECT_THROW((void)parse_json(R"({"a": 1, "a": 2})"), std::runtime_error);
}

TEST(Json, ErrorsCarryPosition) {
  try {
    (void)parse_json("{\n  \"a\": ???\n}");
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos)
        << e.what();
  }
}

TEST(Json, KindMismatchNamesBothKinds) {
  try {
    (void)parse_json("[1]").as_object();
    FAIL() << "expected a kind error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("object"), std::string::npos);
    EXPECT_NE(what.find("array"), std::string::npos);
  }
}

TEST(Json, OutOfRangeNumbersKeepStrtodSemantics) {
  // No range error: overflow reads as ±infinity, underflow as +0, and a
  // negative zero keeps its sign — exactly what strtod returns.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_json("1e999").as_number(), inf);
  EXPECT_EQ(parse_json("-1e999").as_number(), -inf);
  for (const char* text : {"-0", "-0.0", "-0e5"}) {
    const double zero = parse_json(text).as_number();
    EXPECT_EQ(zero, 0.0) << text;
    EXPECT_TRUE(std::signbit(zero)) << text;
  }
  const double tiny = parse_json("1e-400").as_number();
  EXPECT_EQ(tiny, 0.0);
  EXPECT_FALSE(std::signbit(tiny));
  // The integer accessor takes -0 as 0 and refuses infinity.
  EXPECT_EQ(parse_json("-0").as_uint(), 0u);
  EXPECT_EQ(error_of([] { (void)parse_json("1e999").as_uint(); }),
            "JSON: expected a non-negative integer, have inf");
}

TEST(Json, EscapedKeysAreUnescapedBeforeLookupAndDuplicateCheck) {
  const JsonValue doc =
      parse_json(R"({"a\"b": 1, "\u0041": 2, "c\\d\/": 3, "plain": 4})");
  const auto& members = doc.as_object();
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].first, "a\"b");
  EXPECT_EQ(members[1].first, "A");
  EXPECT_EQ(members[2].first, "c\\d/");
  EXPECT_EQ(doc.find("A")->as_number(), 2.0);
  EXPECT_EQ(doc.find("c\\d/")->as_number(), 3.0);
  EXPECT_EQ(doc.find("plain")->as_number(), 4.0);
  EXPECT_EQ(error_of([] { (void)parse_json(R"({"A": 1, "\u0041": 2})"); }),
            "JSON parse error at 1:18: duplicate object key \"A\"");
}

TEST(Json, DuplicateKeysAreCheckedPerObject) {
  // One key in sibling or nested objects is fine; twice in one object is
  // not, wherever the second copy sits.
  const JsonValue doc =
      parse_json(R"({"a": {"a": 1}, "b": [{"a": 2}, {"a": 3}]})");
  EXPECT_EQ(doc.find("a")->find("a")->as_number(), 1.0);
  EXPECT_EQ(error_of([] { (void)parse_json(R"({"a": 1, "b": 2, "a": 3})"); }),
            "JSON parse error at 1:21: duplicate object key \"a\"");
  EXPECT_EQ(error_of([] { (void)parse_json(R"({"x": {"k": 1, "k": 2}})"); }),
            "JSON parse error at 1:19: duplicate object key \"k\"");
  EXPECT_EQ(error_of([] { (void)parse_json(R"([{"k": 1}, {"k": 2, "k": 3}])"); }),
            "JSON parse error at 1:24: duplicate object key \"k\"");
}

TEST(Json, DeepNestingParses) {
  // 400 objects, each holding an array holding the next: 800 levels.
  constexpr int kDepth = 400;
  std::string text;
  for (int i = 0; i < kDepth; ++i) text += R"({"k": [)";
  text += "7";
  for (int i = 0; i < kDepth; ++i) text += "]}";
  const JsonValue doc = parse_json(text);
  const JsonValue* cursor = &doc;
  for (int i = 0; i < kDepth; ++i) {
    const auto& items = cursor->find("k")->as_array();
    ASSERT_EQ(items.size(), 1u);
    cursor = &items[0];
  }
  EXPECT_EQ(cursor->as_number(), 7.0);
  // Cut anywhere, the same document is an error, not a crash.
  EXPECT_THROW((void)parse_json(text.substr(0, text.size() - 1)),
               std::runtime_error);
  EXPECT_THROW((void)parse_json(text.substr(0, text.size() / 2)),
               std::runtime_error);
}

TEST(Json, StringsMixRunsAndEscapes) {
  const std::string run(300, 'x');
  EXPECT_EQ(parse_json('"' + run + '"').as_string(), run);
  EXPECT_EQ(parse_json('"' + run + "\\n" + run + "\\u0041\"").as_string(),
            run + '\n' + run + 'A');
  EXPECT_EQ(parse_json(R"("")").as_string(), "");
  EXPECT_EQ(parse_json(R"("\\\\")").as_string(), "\\\\");
}

TEST(Json, ErrorTextsArePinned) {
  // Every grammar error, with its position: the text each reader passes
  // on to its caller.
  const std::pair<const char*, const char*> cases[] = {
      {"{\"a\": \"x\ny\"}",
       "JSON parse error at 2:1: raw control character in string"},
      {R"("ab\qc")", "JSON parse error at 1:6: invalid escape character"},
      {R"("abc\u00e9")",
       "JSON parse error at 1:11: \\u escapes beyond ASCII are not "
       "supported"},
      {R"("abc\u12")", "JSON parse error at 1:7: truncated \\u escape"},
      {R"("abc\u00zz")", "JSON parse error at 1:10: invalid \\u escape digit"},
      {"[1,]", "JSON parse error at 1:4: invalid value"},
      {R"({"a" 1})", "JSON parse error at 1:6: expected ':'"},
      {"01x", "JSON parse error at 1:3: trailing characters after JSON value"},
      {"-", "JSON parse error at 1:1: invalid value"},
      {"1.", "JSON parse error at 1:3: digit required after decimal point"},
      {"1e", "JSON parse error at 1:3: digit required in exponent"},
      {"1e+", "JSON parse error at 1:4: digit required in exponent"},
      {R"("unterminated)", "JSON parse error at 1:14: unterminated string"},
      {R"("abc\)", "JSON parse error at 1:6: unterminated escape"},
      {R"({"a":1,})", "JSON parse error at 1:8: expected object key string"},
      {"[1 2]", "JSON parse error at 1:4: expected ']'"},
      {"nul", "JSON parse error at 1:1: invalid literal"},
      {"{1: 2}", "JSON parse error at 1:2: expected object key string"},
      {"1 2", "JSON parse error at 1:3: trailing characters after JSON value"},
      {"", "JSON parse error at 1:1: unexpected end of input"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(error_of([&] { (void)parse_json(text); }), message) << text;
  }
  const std::string too_deep(kMaxJsonDepth + 1, '[');
  EXPECT_EQ(error_of([&] { (void)parse_json(too_deep); }),
            "JSON parse error at 1:1025: nesting deeper than 1024 levels");
}

TEST(Json, HostileNestingIsAnErrorNotACrash) {
  // 100,000 open brackets would overflow the recursive parser's stack
  // without the depth cap; the cap's own depth still parses.
  EXPECT_THROW((void)parse_json(std::string(100000, '[')),
               std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += R"({"k":)";
  EXPECT_THROW((void)parse_json(objects), std::runtime_error);
  const JsonValue deepest = parse_json(std::string(kMaxJsonDepth, '[') +
                                       std::string(kMaxJsonDepth, ']'));
  EXPECT_EQ(deepest.as_array().size(), 1u);
}

TEST(JsonFields, PathsNameKeysAndIndices) {
  EXPECT_EQ(json_path("", "rounds"), "rounds");
  EXPECT_EQ(json_path("engine", "rounds"), "engine.rounds");
  EXPECT_EQ(json_path(json_path("axes", 1), "values"), "axes[1].values");
  EXPECT_EQ(json_path("axes[1].values", 0), "axes[1].values[0]");
}

TEST(JsonFields, RejectUnknownKeysNamesTheKey) {
  const JsonValue doc = parse_json(R"({"a": 1, "b": 2})");
  EXPECT_NO_THROW(reject_unknown_keys(doc, {"a", "b", "c"}, "block"));
  EXPECT_EQ(error_of([&] { reject_unknown_keys(doc, {"a"}, "block"); }),
            "block: unknown key \"b\"");
  EXPECT_EQ(error_of([&] { reject_unknown_keys(doc, {"a"}, ""); }),
            "unknown key \"b\"");
  EXPECT_EQ(
      error_of([&] { reject_unknown_keys(parse_json("[]"), {"a"}, "block"); }),
      "block: expected a JSON object");
  // The span form takes a fixed key table.
  constexpr std::string_view kKnown[] = {"a", "b"};
  EXPECT_NO_THROW(reject_unknown_keys(doc, kKnown, "block"));
}

TEST(JsonFields, RequiredReadsNameMissingKeysAndWrongKinds) {
  const JsonValue doc = parse_json(R"({"n": 7, "s": "x", "big": 4294967296})");
  EXPECT_EQ(read_field(doc, "n", "engine", &JsonValue::as_uint), 7u);
  EXPECT_EQ(read_field(doc, "s", "", &JsonValue::as_string), "x");
  EXPECT_EQ(error_of([&] {
              (void)read_field(doc, "m", "engine", &JsonValue::as_uint);
            }),
            "engine: missing key \"m\"");
  EXPECT_EQ(
      error_of([&] { (void)read_field(doc, "m", "", &JsonValue::as_uint); }),
      "missing key \"m\"");
  EXPECT_EQ(error_of([&] {
              (void)read_field(doc, "s", "engine", &JsonValue::as_number);
            }),
            "engine.s: JSON: expected number, have string");
  EXPECT_EQ(
      error_of([&] { (void)read_field(doc, "s", "", &JsonValue::as_bool); }),
      "s: JSON: expected bool, have string");
  // Range checks travel the same path as kind checks.
  EXPECT_NE(error_of([&] {
              (void)read_field(doc, "big", "engine", &JsonValue::as_uint32);
            }).rfind("engine.big: JSON: expected a non-negative 32-bit", 0),
            std::string::npos);
}

TEST(JsonFields, OptionalReadsFallBackOnlyWhenAbsent) {
  const JsonValue doc = parse_json(R"({"n": 7, "s": "x"})");
  EXPECT_EQ(read_field_or(doc, "n", "", &JsonValue::as_uint32, 3u), 7u);
  EXPECT_EQ(read_field_or(doc, "m", "", &JsonValue::as_uint32, 3u), 3u);
  EXPECT_EQ(read_field_or(doc, "t", "", &JsonValue::as_string, "dflt"),
            "dflt");
  EXPECT_EQ(error_of([&] {
              (void)read_field_or(doc, "s", "engine", &JsonValue::as_number,
                                  1.0);
            }),
            "engine.s: JSON: expected number, have string");
}

TEST(JsonFields, ElementReadsNameTheirIndex) {
  const JsonValue doc = parse_json(R"([1, "x"])");
  const auto& items = doc.as_array();
  EXPECT_EQ(read_element(items[0], 0, "axes[1].values", &JsonValue::as_uint),
            1u);
  EXPECT_EQ(error_of([&] {
              (void)read_element(items[1], 1, "axes[1].values",
                                 &JsonValue::as_number);
            }),
            "axes[1].values[1]: JSON: expected number, have string");
}

TEST(JsonWriters, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  // Every escape parses back to the original text.
  const std::string raw = "q\"b\\n\nr\rt\t\x02";
  EXPECT_EQ(parse_json('"' + json_escape(raw) + '"').as_string(), raw);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(JsonWriters, ExactDoubleReprRoundTripsThroughStrtod) {
  for (const double value :
       {0.1, 1.0 / 3.0, 2.0 / 7.0, 1e-300, 1.7976931348623157e308,
        -0.3333333333333333, 123456.789012345678, 5e-324}) {
    const std::string repr = exact_double_repr(value);
    EXPECT_TRUE(bits_equal(std::strtod(repr.c_str(), nullptr), value))
        << repr;
  }
}

TEST(JsonWriters, HashFormatRoundTrips) {
  for (const std::uint64_t value :
       {std::uint64_t{0}, std::uint64_t{0xdeadbeefcafef00dULL},
        ~std::uint64_t{0}}) {
    const std::string text = format_hash(value);
    EXPECT_EQ(text.size(), 18u);
    EXPECT_EQ(parse_json('"' + text + '"').as_hash(), value);
  }
  EXPECT_EQ(format_hash(0xabcULL), "0x0000000000000abc");
  for (const char* bad :
       {R"("0xABC0000000000000")", R"("0x123")", R"("1x0000000000000000")",
        R"("0x000000000000000g")"}) {
    EXPECT_THROW((void)parse_json(bad).as_hash(), std::runtime_error) << bad;
  }
  EXPECT_EQ(error_of([] { (void)parse_json("12").as_hash(); }),
            "JSON: expected string, have number");
}

TEST(JsonWriters, AtomicWriteReplacesTheFileAndLeavesNoTemp) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "json_atomic.txt")
          .string();
  write_file_atomically(path, "test", [](std::ostream& os) { os << "one"; });
  write_file_atomically(path, "test", [](std::ostream& os) { os << "two"; });
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "two");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);

  const std::string message = error_of([] {
    write_file_atomically("/nonexistent-dir/x.json", "test",
                          [](std::ostream&) {});
  });
  EXPECT_EQ(message.rfind("test: cannot open /nonexistent-dir/x.json.tmp", 0),
            0u)
      << message;
}

TEST(Json, LoadFileNamesAnUnreadablePath) {
  EXPECT_EQ(error_of([] { (void)load_json_file("/nonexistent/a.json"); }),
            "cannot open /nonexistent/a.json");
}

}  // namespace
}  // namespace neatbound::support
