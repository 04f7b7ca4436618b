#include "harness/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

TEST(Cli, NonNumericValuesAreRejected) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {"--oversub", "abc", "--count", "7x"}));
  EXPECT_THROW((void)p.get_double("oversub"), std::invalid_argument);
  EXPECT_THROW((void)p.get_int("count"), std::invalid_argument);
  EXPECT_THROW((void)p.get_u32("count"), std::invalid_argument);
  for (const char* bad : {"", " 1", "1.5", "0x10", "nan"}) {
    CliParser q = make();
    ASSERT_TRUE(parse(q, {"--count", bad}));
    EXPECT_THROW((void)q.get_int("count"), std::invalid_argument) << "'" << bad << "'";
  }
  for (const char* bad : {"", "0.5 ", "nan", "inf", "1e999"}) {
    CliParser q = make();
    ASSERT_TRUE(parse(q, {"--oversub", bad}));
    EXPECT_THROW((void)q.get_double("oversub"), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(Cli, OutOfRangeValuesAreRejected) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {"--count", "-1", "--oversub", "1.5"}));
  EXPECT_EQ(p.get_int("count"), -1);
  EXPECT_THROW((void)p.get_int("count", 0), std::invalid_argument);
  EXPECT_THROW((void)p.get_u32("count"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(p.get_double("oversub"), 1.5);
  EXPECT_THROW((void)p.get_double("oversub", 0.0, 1.0), std::invalid_argument);

  CliParser q = make();
  ASSERT_TRUE(parse(q, {"--count", "4294967296"}));
  EXPECT_THROW((void)q.get_u32("count"), std::invalid_argument);
  EXPECT_EQ(q.get_int("count"), 4294967296ll);

  CliParser r = make();
  ASSERT_TRUE(parse(r, {"--count", "99999999999999999999"}));
  EXPECT_THROW((void)r.get_int("count"), std::invalid_argument);
}

TEST(Cli, ParseDoubleNamesTheOffender) {
  EXPECT_DOUBLE_EQ(parse_double("--oversubs", "0.75", 0.0), 0.75);
  try {
    (void)parse_double("--oversubs", "abc", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--oversubs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'abc'"), std::string::npos) << msg;
  }
}

TEST(Cli, ChoiceFlagsComeFromTheirTable) {
  CliParser p("test program");
  p.add_choice("fabric", "link topology", kFabricNames, FabricKind::kRing);
  EXPECT_NE(p.help().find("link topology: pcie | ring | switch"), std::string::npos);
  EXPECT_NE(p.help().find("default: ring"), std::string::npos);
  ASSERT_TRUE(parse(p, {}));
  EXPECT_EQ(p.get_parsed("fabric", kFabricNames), FabricKind::kRing);

  CliParser q("test program");
  q.add_choice("fabric", "link topology", kFabricNames, FabricKind::kRing);
  ASSERT_TRUE(parse(q, {"--fabric", "nvswitch"}));
  try {
    (void)q.get_parsed("fabric", kFabricNames);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--fabric"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pcie | ring | switch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'nvswitch'"), std::string::npos) << msg;
  }
}

TEST(Cli, ListItemsAreCheckedLikeWholeValues) {
  CliParser p = make();
  ASSERT_TRUE(parse(p, {"--workload", "2, 4", "--oversub", "0.75,0.5"}));
  EXPECT_EQ(p.get_list<u32>("workload", 2), (std::vector<u32>{2, 4}));
  EXPECT_EQ(p.get_list("oversub", 0.0), (std::vector<double>{0.75, 0.5}));
  for (const char* bad : {"2.5", "1", "-2", "4294967296", "x"}) {
    CliParser q = make();
    ASSERT_TRUE(parse(q, {"--workload", bad}));
    EXPECT_THROW((void)q.get_list<u32>("workload", 2), std::invalid_argument) << bad;
  }
  CliParser r = make();
  ASSERT_TRUE(parse(r, {"--oversub", "0.5,abc"}));
  EXPECT_THROW((void)r.get_list("oversub", 0.0), std::invalid_argument);
}

// Groups cross modes group-major; a one-workload group passes through for
// run_experiment to refuse, and an unknown mode is refused here.
TEST(Cli, TenantSpecsCrossGroupsWithModes) {
  CliParser p("test program");
  p.add_option("tenants", "groups");
  p.add_option("tenant-modes", "modes", "shared");
  ASSERT_TRUE(parse(p, {"--tenants", "NW+BFS;MVT", "--tenant-modes", "quota,shared"}));
  const auto specs = tenant_specs(p);
  ASSERT_EQ(specs.size(), 4u);
  using V = std::vector<std::string>;
  EXPECT_EQ(specs[0].workload, "NW+BFS");
  EXPECT_EQ(specs[0].tenants, (V{"NW", "BFS"}));
  EXPECT_EQ(specs[0].tenant_mode, TenantMode::kQuota);
  EXPECT_EQ(specs[0].label, "quota");
  EXPECT_EQ(specs[1].tenant_mode, TenantMode::kShared);
  EXPECT_EQ(specs[1].label, "shared");
  EXPECT_EQ(specs[2].tenants, (V{"MVT"}));
  EXPECT_EQ(specs[3].label, "shared");

  CliParser q("test program");
  q.add_option("tenants", "groups");
  q.add_option("tenant-modes", "modes", "shared");
  ASSERT_TRUE(parse(q, {"--tenants", "NW+BFS", "--tenant-modes", "shared,bogus"}));
  EXPECT_THROW((void)tenant_specs(q), std::invalid_argument);
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
