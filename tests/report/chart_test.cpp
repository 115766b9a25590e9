#include "report/chart.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

namespace vdbench::report {
namespace {

Series ramp(std::string name, double slope) {
  Series s;
  s.name = std::move(name);
  for (int i = 1; i <= 10; ++i) {
    s.x.push_back(i);
    s.y.push_back(slope * i);
  }
  return s;
}

TEST(LineChartTest, RendersLegendAndAxes) {
  LineChart chart("test chart", "x", "value");
  chart.add_series(ramp("up", 1.0));
  chart.add_series(ramp("down", -1.0));
  std::ostringstream oss;
  chart.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("test chart"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("*=up"), std::string::npos);
  EXPECT_NE(out.find("o=down"), std::string::npos);
}

TEST(LineChartTest, ThrowsWithoutSeries) {
  LineChart chart("empty", "x", "y");
  std::ostringstream oss;
  EXPECT_THROW(chart.print(oss), std::logic_error);
}

TEST(LineChartTest, RejectsBadSeriesAndSizes) {
  LineChart chart("t", "x", "y");
  Series bad;
  bad.name = "bad";
  bad.x = {1.0, 2.0};
  bad.y = {1.0};
  EXPECT_THROW(chart.add_series(bad), std::invalid_argument);
  EXPECT_THROW(chart.set_y_range(1.0, 1.0), std::invalid_argument);
}

TEST(LineChartTest, SkipsNaNPoints) {
  LineChart chart("nan", "x", "y");
  Series s;
  s.name = "partial";
  s.x = {1.0, 2.0, 3.0};
  s.y = {0.5, std::nan(""), 0.7};
  chart.add_series(s);
  std::ostringstream oss;
  EXPECT_NO_THROW(chart.print(oss));
}

TEST(LineChartTest, LogXHandlesDecades) {
  LineChart chart("log", "prevalence", "metric");
  chart.set_log_x(true);
  Series s;
  s.name = "m";
  s.x = {0.001, 0.01, 0.1, 0.5};
  s.y = {0.1, 0.3, 0.6, 0.9};
  chart.add_series(s);
  std::ostringstream oss;
  chart.print(oss);
  EXPECT_NE(oss.str().find("log scale"), std::string::npos);
}

TEST(LineChartTest, FixedYRangeClipsOutliers) {
  LineChart chart("clip", "x", "y");
  chart.set_y_range(0.0, 1.0);
  Series s;
  s.name = "wild";
  s.x = {1.0, 2.0};
  s.y = {0.5, 100.0};
  chart.add_series(s);
  std::ostringstream oss;
  EXPECT_NO_THROW(chart.print(oss));
  EXPECT_NE(oss.str().find("1.00"), std::string::npos);
}

TEST(HeatmapTest, RendersLabelsAndScale) {
  Heatmap hm("agreement", {"mcc", "f1"}, {"mcc", "f1"},
             {{1.0, 0.5}, {0.5, 1.0}});
  std::ostringstream oss;
  hm.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("agreement"), std::string::npos);
  EXPECT_NE(out.find("scale:"), std::string::npos);
  EXPECT_NE(out.find("A=mcc"), std::string::npos);
  EXPECT_NE(out.find("B=f1"), std::string::npos);
}

TEST(HeatmapTest, NaNRendersQuestionMark) {
  Heatmap hm("partial", {"a"}, {"x", "y"}, {{std::nan(""), 1.0}});
  std::ostringstream oss;
  hm.print(oss);
  EXPECT_NE(oss.str().find('?'), std::string::npos);
}

TEST(HeatmapTest, RejectsRaggedInput) {
  EXPECT_THROW(Heatmap("bad", {"a", "b"}, {"x"}, {{1.0}}),
               std::invalid_argument);
  EXPECT_THROW(Heatmap("bad", {"a"}, {"x", "y"}, {{1.0}}),
               std::invalid_argument);
}

TEST(HeatmapTest, SetRangeValidation) {
  Heatmap hm("t", {"a"}, {"x"}, {{0.5}});
  EXPECT_THROW(hm.set_range(1.0, 0.0), std::invalid_argument);
  hm.set_range(0.0, 1.0);
  std::ostringstream oss;
  EXPECT_NO_THROW(hm.print(oss));
}

}  // namespace
}  // namespace vdbench::report
