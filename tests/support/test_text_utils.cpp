#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

#include "support/cli.hpp"
#include "support/contracts.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace neatbound {
namespace {

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"a", "long-header"});
  t.add_row({"1", "2"});
  t.add_row({"100", "20000"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("| 100 |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, RejectsMismatchedRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(TablePrinter, RejectsEmptyHeader) {
  EXPECT_THROW(TablePrinter({}), ContractViolation);
}

TEST(Format, General) {
  EXPECT_EQ(format_general(0.5), "0.5");
  EXPECT_EQ(format_general(123456789.0, 3), "1.23e+08");
}

TEST(Format, Fixed) { EXPECT_EQ(format_fixed(1.23456, 2), "1.23"); }

TEST(Format, FixedPrintsEveryDigitOfALargeValue) {
  // 2.5e299 in %f is 300 integer digits, far past any fixed buffer.
  const std::string s = format_fixed(2.5e299, 2);
  EXPECT_EQ(s.size(), 303u) << s;
  EXPECT_EQ(s.rfind("25", 0), 0u) << s;
  EXPECT_EQ(s.substr(300), ".00");
  EXPECT_EQ(format_fixed(-1e70, 0).size(), 72u);
}

TEST(Format, Sci) { EXPECT_EQ(format_sci(12345.0, 2), "1.23e+04"); }

TEST(CsvWriter, WritesAndQuotes) {
  const std::string path = ::testing::TempDir() + "neatbound_csv_test.csv";
  {
    CsvWriter csv(path, {"x", "note"});
    csv.add_row({"1", "plain"});
    csv.add_row({"2", "has,comma"});
    csv.add_row({"3", "has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,note");
  std::getline(in, line);
  EXPECT_EQ(line, "1,plain");
  std::getline(in, line);
  EXPECT_EQ(line, "2,\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "3,\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWrongWidth) {
  const std::string path = ::testing::TempDir() + "neatbound_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row({"1"}), ContractViolation);
  csv.close();
  std::remove(path.c_str());
}

TEST(CliArgs, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--rounds=100", "--nu", "0.3", "--verbose"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_uint("rounds", 0), 100u);
  EXPECT_DOUBLE_EQ(args.get_double("nu", 0.0), 0.3);
  EXPECT_TRUE(args.get_bool("verbose", false));
  args.reject_unconsumed();
}

TEST(CliArgs, DefaultsApply) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_uint("missing", 7), 7u);
  EXPECT_EQ(args.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(args.has("missing"));
}

/// Every CliArgs error takes one path: the message and the usage text on
/// stderr, then exit status 2.
#define EXPECT_CLI_FAILS(statement, stderr_pattern) \
  EXPECT_EXIT(statement, ::testing::ExitedWithCode(2), stderr_pattern)

TEST(CliArgs, RejectsUnknownFlag) {
  const char* argv[] = {"prog", "--typo=1"};
  CliArgs args(2, argv);
  (void)args.get_uint("rounds", 0);
  EXPECT_CLI_FAILS(args.reject_unconsumed(), "CliArgs: unknown flag --typo");
}

TEST(CliArgs, RejectsMalformedNumber) {
  // A parsed prefix is not enough: "0.25,0.3" must not run as 0.25.
  for (const char* text : {"abc", "0.3x", "0.25,0.3"}) {
    const std::string flag = std::string("--x=") + text;
    const char* argv[] = {"prog", flag.c_str()};
    CliArgs args(2, argv);
    EXPECT_CLI_FAILS((void)args.get_double("x", 0.0), "expects a number")
        << text;
    EXPECT_CLI_FAILS((void)args.get_opt_double("x"), "expects a number")
        << text;
  }
  // The exponent forms the example smoke tests pass still parse.
  const char* argv[] = {"prog", "--n=1e5", "--delta=1e13", "--eps=1e-6"};
  CliArgs args(4, argv);
  EXPECT_DOUBLE_EQ(args.get_double("n", 0.0), 1e5);
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), 1e13);
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 1e-6);
}

TEST(CliArgs, RejectsNegativeUint) {
  const char* argv[] = {"prog", "--x=-5"};
  CliArgs args(2, argv);
  EXPECT_CLI_FAILS((void)args.get_uint("x", 0), "flag --x must be >= 0");
}

TEST(CliArgs, RejectsNonFlagToken) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_CLI_FAILS(CliArgs(2, argv), "expected --flag, got 'stray'");
}

// Regression: has() used to leave the flag unconsumed, so probing a flag
// only via has() made reject_unconsumed() report it as unknown.
TEST(CliArgs, HasCountsAsConsumption) {
  const char* argv[] = {"prog", "--probe-only=1"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.has("probe-only"));
  EXPECT_NO_THROW(args.reject_unconsumed());
}

// Regression: get_uint parsed through std::stoll, rejecting valid values
// in (INT64_MAX, UINT64_MAX].
TEST(CliArgs, GetUintAcceptsFullUnsignedRange) {
  const char* argv[] = {"prog", "--big=18446744073709551615",
                        "--above-int64=9223372036854775808"};
  CliArgs args(3, argv);
  EXPECT_EQ(args.get_uint("big", 0), 18446744073709551615ull);
  EXPECT_EQ(args.get_uint("above-int64", 0), 9223372036854775808ull);
  args.reject_unconsumed();
}

TEST(CliArgs, GetUintRejectsOverflowAndGarbage) {
  const char* argv[] = {"prog", "--x=18446744073709551616", "--y=12abc"};
  CliArgs args(3, argv);
  EXPECT_CLI_FAILS((void)args.get_uint("x", 0), "expects an unsigned integer");
  EXPECT_CLI_FAILS((void)args.get_uint("y", 0), "expects an unsigned integer");
}

TEST(CliArgs, GetUintRejectsNegativeBehindAnyWhitespace) {
  // std::stoull skips all isspace characters, so the negative guard must
  // too — "\v-2" used to wrap to 18446744073709551614.
  const char* argv[] = {"prog", "--a=\v-2", "--b= \n-7"};
  CliArgs args(3, argv);
  EXPECT_CLI_FAILS((void)args.get_uint("a", 0), "must be >= 0");
  EXPECT_CLI_FAILS((void)args.get_uint("b", 0), "must be >= 0");
}

TEST(CliArgs, UsageListsRegisteredFlagsWithTypesAndDefaults) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  (void)args.get_uint("rounds", 1000, "rounds per run");
  (void)args.get_double("nu", 0.25);
  (void)args.get_string("csv", "");
  const std::string usage = args.usage();
  EXPECT_NE(usage.find("--rounds <uint>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(default: 1000)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("rounds per run"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--nu <number>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--csv <string>"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--help"), std::string::npos) << usage;
}

TEST(CliArgs, HandleHelpPrintsUsageOnlyWhenRequested) {
  {
    const char* argv[] = {"prog", "--help"};
    CliArgs args(2, argv);
    (void)args.get_uint("rounds", 1000);
    std::ostringstream os;
    EXPECT_TRUE(args.handle_help(os));
    EXPECT_NE(os.str().find("--rounds <uint>"), std::string::npos);
    // --help counts as consumed; nothing else to reject.
    EXPECT_NO_THROW(args.reject_unconsumed());
  }
  {
    const char* argv[] = {"prog"};
    CliArgs args(1, argv);
    std::ostringstream os;
    EXPECT_FALSE(args.handle_help(os));
    EXPECT_TRUE(os.str().empty());
  }
}

TEST(CliArgs, OptionalGettersDistinguishAbsentFromProvided) {
  const char* argv[] = {"prog", "--rounds=200"};
  CliArgs args(2, argv);
  EXPECT_EQ(args.get_opt_uint("rounds", "override"), 200u);
  EXPECT_EQ(args.get_opt_uint("seeds"), std::nullopt);
  EXPECT_EQ(args.get_opt_double("nu"), std::nullopt);
  EXPECT_NO_THROW(args.reject_unconsumed());
  // Registered without a default: usage shows no "(default: …)".
  const std::string usage = args.usage();
  EXPECT_NE(usage.find("--seeds <uint>"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("(default:"), std::string::npos) << usage;
}

TEST(CliArgs, OptionalGettersStillValidateValues) {
  const char* argv[] = {"prog", "--rounds=abc", "--nu=xyz"};
  CliArgs args(3, argv);
  EXPECT_CLI_FAILS((void)args.get_opt_uint("rounds"),
                   "expects an unsigned integer");
  EXPECT_CLI_FAILS((void)args.get_opt_double("nu"), "expects a number");
}

TEST(CliArgs, UnknownFlagErrorIncludesUsage) {
  const char* argv[] = {"prog", "--typo=1"};
  CliArgs args(2, argv);
  (void)args.get_uint("rounds", 1000);
  EXPECT_CLI_FAILS(args.reject_unconsumed(),
                   "unknown flag --typo\nflags:\n  --rounds <uint>");
}

TEST(CsvFormatRow, JoinsAndQuotes) {
  EXPECT_EQ(csv_format_row({"a", "b"}), "a,b");
  EXPECT_EQ(csv_format_row({"x,y", "q\"t"}), "\"x,y\",\"q\"\"t\"");
  EXPECT_EQ(csv_format_row({}), "");
}

}  // namespace
}  // namespace neatbound
