#include "harness/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace uvmsim {
namespace {

TEST(Report, GeomeanBasics) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(geomean({1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(geomean({}), 1.0);
}

TEST(Report, GeomeanSkipsNonPositive) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 8.0, 0.0, -1.0}), 4.0);
}

TEST(Report, GeomeanIsScaleInvariant) {
  const double g = geomean({1.5, 2.5, 0.7});
  const double g2 = geomean({3.0, 5.0, 1.4});
  EXPECT_NEAR(g2, 2.0 * g, 1e-12);
}

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(2.5, 3), "2.500");
}

TEST(Report, TextTableAlignsColumns) {
  TextTable t({"a", "long-header"});
  t.add_row({"xxxxxx", "1"});
  const std::string s = t.str();
  EXPECT_NE(s.find("a       long-header"), std::string::npos);
  EXPECT_NE(s.find("xxxxxx  1"), std::string::npos);
  EXPECT_NE(s.find("------"), std::string::npos);
}

TEST(Report, TextTablePadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW((void)t.str());
}

}  // namespace
}  // namespace uvmsim
