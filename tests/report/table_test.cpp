#include "report/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

namespace vdbench::report {
namespace {

TEST(TableTest, RejectsEmptyHeaderAndBadRows) {
  EXPECT_THROW(Table{std::vector<std::string>{}}, std::invalid_argument);
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::invalid_argument);
}

TEST(TableTest, PrintContainsAllCells) {
  Table t({"tool", "recall"});
  t.add_row({"SA-Pro", "0.91"});
  t.add_row({"PT-Lite", "0.55"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  for (const char* needle : {"tool", "recall", "SA-Pro", "0.91", "PT-Lite"})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(TableTest, ColumnsPadToEqualWidth) {
  Table t({"x", "y"});
  t.add_row({"longlonglong", "1"});
  std::ostringstream oss;
  t.print(oss);
  std::istringstream lines(oss.str());
  std::string first, line;
  std::getline(lines, first);
  while (std::getline(lines, line)) EXPECT_EQ(line.size(), first.size());
}

TEST(TableTest, CountsRowsAndColumns) {
  Table t({"a", "b", "c"});
  EXPECT_EQ(t.columns(), 3u);
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2", "3"});
  EXPECT_EQ(t.rows(), 1u);
}

TEST(FormatValueTest, Precision) {
  EXPECT_EQ(format_value(1.23456, 2), "1.23");
  EXPECT_EQ(format_value(1.0, 0), "1");
  EXPECT_EQ(format_value(-0.5, 1), "-0.5");
}

TEST(FormatValueTest, SpecialValues) {
  EXPECT_EQ(format_value(std::nan("")), "-");
  EXPECT_EQ(format_value(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_value(-std::numeric_limits<double>::infinity()), "-inf");
}

TEST(FormatPercentTest, Rendering) {
  EXPECT_EQ(format_percent(0.1234), "12.3%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(format_percent(std::nan("")), "-");
}

}  // namespace
}  // namespace vdbench::report
