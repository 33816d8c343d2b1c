#include "scenario/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace neatbound::scenario {
namespace {

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
  EXPECT_EQ(doc.at("name").as_string(), "x");
  const auto& axes = doc.at("axes").as_array();
  ASSERT_EQ(axes.size(), 1u);
  EXPECT_EQ(axes[0].at("values").as_array().size(), 2u);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_TRUE(doc.at("nothing").is_null());
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

}  // namespace
}  // namespace neatbound::scenario
