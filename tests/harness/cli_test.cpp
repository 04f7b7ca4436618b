#include "harness/cli.hpp"

#include <gtest/gtest.h>

namespace uvmsim {
namespace {

CliParser make() {
  CliParser p("test program");
  p.add_option("workload", "which workload", "NW");
  p.add_option("oversub", "fraction", "0.5");
  p.add_option("count", "an int", "42");
  p.add_flag("csv", "csv output");
  return p;
}

bool parse(CliParser& p, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return p.parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, DefaultsApplyWhenUnset) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get("workload"), "NW");
  EXPECT_DOUBLE_EQ(p.get_double("oversub"), 0.5);
  EXPECT_EQ(p.get_int("count"), 42);
  EXPECT_FALSE(p.get_flag("csv"));
  EXPECT_FALSE(p.was_set("workload"));
}

TEST(Cli, SpaceSeparatedValues) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {"--workload", "MVT", "--oversub", "0.75"}));
  EXPECT_EQ(p.get("workload"), "MVT");
  EXPECT_DOUBLE_EQ(p.get_double("oversub"), 0.75);
  EXPECT_TRUE(p.was_set("workload"));
}

TEST(Cli, EqualsSeparatedValues) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {"--workload=SRD", "--count=7"}));
  EXPECT_EQ(p.get("workload"), "SRD");
  EXPECT_EQ(p.get_int("count"), 7);
}

TEST(Cli, FlagsParse) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {"--csv"}));
  EXPECT_TRUE(p.get_flag("csv"));
}

TEST(Cli, UnknownOptionFails) {
  CliParser p = make();
  EXPECT_FALSE(parse(p, {"--bogus", "1"}));
  EXPECT_FALSE(p.error().empty());
}

TEST(Cli, MissingValueFails) {
  CliParser p = make();
  EXPECT_FALSE(parse(p, {"--workload"}));
}

TEST(Cli, FlagWithValueFails) {
  CliParser p = make();
  EXPECT_FALSE(parse(p, {"--csv=true"}));
}

TEST(Cli, PositionalArgumentFails) {
  CliParser p = make();
  EXPECT_FALSE(parse(p, {"stray"}));
}

TEST(Cli, HelpReturnsFalseWithoutError) {
  CliParser p = make();
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(parse(p, {"--help"}));
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_TRUE(p.error().empty());
  EXPECT_NE(out.find("--workload"), std::string::npos);
  EXPECT_NE(out.find("test program"), std::string::npos);
}

TEST(Cli, HelpListsDefaults) {
  CliParser p = make();
  EXPECT_NE(p.help().find("default: NW"), std::string::npos);
}

TEST(Cli, SplitListDropsSpacesAndEmptyItems) {
  using V = std::vector<std::string>;
  EXPECT_EQ(split_list("NW,BFS"), (V{"NW", "BFS"}));
  EXPECT_EQ(split_list(" NW , BFS,,"), (V{"NW", "BFS"}));
  EXPECT_EQ(split_list("NW+BFS;MVT+SRD", ';'), (V{"NW+BFS", "MVT+SRD"}));
  EXPECT_EQ(split_list("NW+BFS", '+'), (V{"NW", "BFS"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_TRUE(split_list(",,").empty());
}

}  // namespace
}  // namespace uvmsim
