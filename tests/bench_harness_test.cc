// Tests for bench/harness.h: the flag parser, the JSON report writer and
// the shape-check report every bench binary shares.

#include "bench/harness.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

namespace oskit::bench {
namespace {

// Runs ParseFlags over `args` (argv[0] is supplied).  The strings live for
// the whole test run, as a real argv does, since string targets keep them.
bool Parse(const std::vector<std::string>& args,
           std::initializer_list<Flag> flags) {
  static std::deque<std::string> kept;
  std::vector<char*> argv = {kept.emplace_back("bench").data()};
  for (const std::string& a : args) {
    argv.push_back(kept.emplace_back(a).data());
  }
  return ParseFlags(static_cast<int>(argv.size()), argv.data(), flags);
}

// JSON text without its line breaks and indentation.
std::string Flat(const std::string& text) {
  return std::regex_replace(text, std::regex("\n *"), "");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ParseFlagsTest, ParsesEveryTargetType) {
  int hosts = 4;
  uint64_t seed = 0;
  uint64_t blocks = 8;
  const char* json = nullptr;
  ASSERT_TRUE(Parse({"2048", "--hosts", "7", "--seed", "0x51", "--json",
                     "out.json"},
                    {{"blocks", &blocks},
                     {"--hosts", &hosts},
                     {"--seed", &seed},
                     {"--json", &json}}));
  EXPECT_EQ(blocks, 2048u);
  EXPECT_EQ(hosts, 7);
  EXPECT_EQ(seed, 0x51u);
  EXPECT_STREQ(json, "out.json");
}

TEST(ParseFlagsTest, LeavesDefaultsWithoutArguments) {
  int hosts = 4;
  uint64_t blocks = 8;
  ASSERT_TRUE(Parse({}, {{"blocks", &blocks}, {"--hosts", &hosts}}));
  EXPECT_EQ(hosts, 4);
  EXPECT_EQ(blocks, 8u);
}

TEST(ParseFlagsTest, RejectsUnknownFlag) {
  uint64_t round_trips = 0;
  EXPECT_FALSE(Parse({"--json", "x"}, {{"round_trips", &round_trips}}));
  EXPECT_FALSE(Parse({"--seeds=3"}, {{"round_trips", &round_trips}}));
}

TEST(ParseFlagsTest, RejectsMissingValue) {
  const char* json = nullptr;
  int seeds = 0;
  EXPECT_FALSE(Parse({"--json"}, {{"--json", &json}}));
  EXPECT_FALSE(Parse({"--seeds"}, {{"--seeds", &seeds}}));
}

TEST(ParseFlagsTest, RejectsTrailingGarbage) {
  uint64_t n = 0;
  int i = 0;
  EXPECT_FALSE(Parse({"--n", "12x"}, {{"--n", &n}}));
  EXPECT_FALSE(Parse({"--i", "12x"}, {{"--i", &i}}));
  EXPECT_FALSE(Parse({"--n", ""}, {{"--n", &n}}));
  EXPECT_FALSE(Parse({"--n", "0x"}, {{"--n", &n}}));
}

TEST(ParseFlagsTest, RejectsNegativeNumbers) {
  uint64_t n = 5;
  int i = 5;
  EXPECT_FALSE(Parse({"--n", "-1"}, {{"--n", &n}}));
  EXPECT_FALSE(Parse({"--i", "-1"}, {{"--i", &i}}));
  EXPECT_FALSE(Parse({"--n", " 1"}, {{"--n", &n}}));
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(i, 5);
}

TEST(ParseFlagsTest, RejectsOutOfRangeNumbers) {
  int i = 0;
  uint64_t n = 0;
  EXPECT_TRUE(Parse({"--i", "2147483647"}, {{"--i", &i}}));
  EXPECT_EQ(i, INT_MAX);
  EXPECT_FALSE(Parse({"--i", "2147483648"}, {{"--i", &i}}));
  EXPECT_TRUE(Parse({"--n", "18446744073709551615"}, {{"--n", &n}}));
  EXPECT_EQ(n, UINT64_MAX);
  EXPECT_FALSE(Parse({"--n", "18446744073709551616"}, {{"--n", &n}}));
}

TEST(ParseFlagsTest, TakesOnePositionalArgument) {
  uint64_t blocks = 0;
  const char* json = nullptr;
  EXPECT_TRUE(Parse({"--json", "a", "010"},
                    {{"blocks", &blocks}, {"--json", &json}}));
  EXPECT_EQ(blocks, 8u);  // base 0: a leading 0 is octal
  EXPECT_FALSE(Parse({"1", "2"}, {{"blocks", &blocks}}));
  int seeds = 0;
  EXPECT_FALSE(Parse({"3"}, {{"--seeds", &seeds}}));  // takes none
}

TEST(JsonTest, DottedPathsNest) {
  Json json;
  json.Set("latency_us.p50", 1).Set("latency_us.p99", 2).Set("total", 3);
  EXPECT_EQ(Flat(json.Text()),
            R"({"latency_us": {"p50": 1,"p99": 2},"total": 3})");
}

TEST(JsonTest, SetOverwritesInPlace) {
  Json json;
  json.Set("a", 1).Set("b", 2).Set("a", 3);
  EXPECT_EQ(Flat(json.Text()), R"({"a": 3,"b": 2})");
}

TEST(JsonTest, CounterNamesWithDotsStayLiteralKeys) {
  std::map<std::string, uint64_t> counters = {{"glue.send.sg_frames", 5},
                                              {"net.tcp.out", 6}};
  Json json;
  json.Set("sender_counters", Json::Object(counters));
  json.Put("a.b", 1);
  EXPECT_EQ(Flat(json.Text()),
            R"({"sender_counters": {"glue.send.sg_frames": 5,)"
            R"("net.tcp.out": 6},"a.b": 1})");
}

TEST(JsonTest, RowsStayArrays) {
  Json json;
  json.Push("rows", Json().Set("config", "linux").Set("mbps", 1.5));
  json.Push("rows", Json().Set("config", "bsd").Set("mbps", 2));
  EXPECT_EQ(Flat(json.Text()),
            R"({"rows": [{"config": "linux","mbps": 1.5},)"
            R"({"config": "bsd","mbps": 2}]})");
}

TEST(JsonTest, EscapesQuotesBackslashesAndControlCharacters) {
  Json json;
  json.Set("s", std::string("a\"b\\c\n\x01"));
  EXPECT_EQ(Flat(json.Text()), R"({"s": "a\"b\\c\u000a\u0001"})");
  Json key;
  key.Put("q\"", true);
  EXPECT_EQ(Flat(key.Text()), R"({"q\"": true})");
}

TEST(JsonTest, WritesIntegersExactly) {
  Json json;
  json.Set("max", UINT64_MAX).Set("neg", -3).Set("big", uint64_t{1} << 63);
  EXPECT_EQ(Flat(json.Text()),
            R"({"max": 18446744073709551615,"neg": -3,)"
            R"("big": 9223372036854775808})");
}

TEST(JsonTest, WritesDoublesShortestAndNonFiniteAsNull) {
  Json json;
  json.Set("a", 0.1).Set("b", 94.93).Set("c", 4.0);
  json.Set("nan", std::nan(""));
  json.Set("inf", std::numeric_limits<double>::infinity());
  json.Set("t", true).Set("f", false);
  EXPECT_EQ(Flat(json.Text()),
            R"({"a": 0.1,"b": 94.93,"c": 4,"nan": null,"inf": null,)"
            R"("t": true,"f": false})");
}

TEST(JsonTest, EmptyObject) {
  Json json;
  json.Set("obj", Json());
  EXPECT_EQ(Flat(json.Text()), R"({"obj": {}})");
}

TEST(ReportTest, RecordsShapeChecksAndFailsOnAFalseOne) {
  std::string path = testing::TempDir() + "/report_checks.json";
  Report report("demo", path.c_str());
  report.Check("holds", true, "%d of %d", 3, 3);
  EXPECT_TRUE(report.passed());
  report.Check("broken", false, "detail");
  EXPECT_FALSE(report.passed());
  report.json.Set("value", 7);
  EXPECT_EQ(report.Finish(), 1);
  std::string text = Flat(ReadFile(path));
  EXPECT_EQ(text,
            R"({"bench": "demo","value": 7,)"
            R"("shape_checks": {"holds": true,"broken": false}})");
}

TEST(ReportTest, RepeatedCheckKeepsTheConjunction) {
  Report report("demo", nullptr);
  report.Check("per_seed", true, "seed 1");
  report.Check("per_seed", false, "seed 2");
  report.Check("per_seed", true, "seed 3");
  EXPECT_EQ(report.Finish(), 1);
  EXPECT_EQ(Flat(report.json.Text()),
            R"({"bench": "demo","shape_checks": {"per_seed": false}})");
}

TEST(ReportTest, PassesWithAllChecksAndNoPath) {
  Report report("demo", nullptr);
  report.Check("ok", true, "fine");
  EXPECT_TRUE(report.passed());
  EXPECT_EQ(report.Finish(), 0);
}

TEST(ReportTest, WritesAnEmptyShapeChecksObject) {
  std::string path = testing::TempDir() + "/report_empty.json";
  Report report("sizes", path.c_str());
  EXPECT_EQ(report.Finish(), 0);
  EXPECT_EQ(Flat(ReadFile(path)),
            R"({"bench": "sizes","shape_checks": {}})");
}

TEST(ReportTest, FailsWhenThePathCannotBeWritten) {
  // A directory is not a writable report file.
  std::string dir = testing::TempDir();
  Report report("demo", dir.c_str());
  report.Check("ok", true, "fine");
  EXPECT_EQ(report.Finish(), 1);
}

TEST(PrintChecklistTest, CountsItemsWhoseCountersSumToZero) {
  const std::map<std::string, uint64_t> counters = {
      {"a", 3}, {"b", 0}, {"c", 0}, {"d", 1}};
  testing::internal::CaptureStdout();
  int missing = PrintChecklist("demo checklist", counters,
                               {{"a fired", {"a"}},
                                {"b or d fired", {"b", "d"}},
                                {"c fired", {"c"}},
                                {"e fired", {"e"}}});
  std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(missing, 2);
  EXPECT_NE(out.find("demo checklist:\n"), std::string::npos);
  EXPECT_NE(out.find("FAIL: aggregate: no evidence that c fired\n"), std::string::npos);
  EXPECT_NE(out.find("FAIL: aggregate: no evidence that e fired\n"), std::string::npos);
  EXPECT_EQ(out.find("no evidence that a fired"), std::string::npos);
  EXPECT_EQ(out.find("no evidence that b or d fired"), std::string::npos);
}

}  // namespace
}  // namespace oskit::bench
