#include "bench/chart.h"

#include <gtest/gtest.h>

namespace crius {
namespace {

TEST(ResampleTest, IdentityWhenSameSize) {
  const std::vector<double> v = {1.0, 2.0, 3.0};
  const auto out = Resample(v, 3);
  EXPECT_EQ(out, v);
}

TEST(ResampleTest, PreservesEndpoints) {
  const std::vector<double> v = {5.0, 1.0, 9.0};
  const auto out = Resample(v, 7);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_DOUBLE_EQ(out.front(), 5.0);
  EXPECT_DOUBLE_EQ(out.back(), 9.0);
}

TEST(ResampleTest, InterpolatesLinearly) {
  const auto out = Resample({0.0, 10.0}, 5);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[2], 5.0);
}

TEST(ResampleTest, DownsamplesMonotoneSeries) {
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) {
    v.push_back(static_cast<double>(i));
  }
  const auto out = Resample(v, 11);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_GT(out[i], out[i - 1]);
  }
}

TEST(ResampleTest, EdgeCases) {
  EXPECT_EQ(Resample({}, 4), (std::vector<double>{0, 0, 0, 0}));
  EXPECT_EQ(Resample({7.0}, 3), (std::vector<double>{7, 7, 7}));
  EXPECT_EQ(Resample({1.0, 2.0}, 1), (std::vector<double>{1.0}));
}

TEST(SparklineTest, EmptyInput) {
  EXPECT_EQ(Sparkline({}), "");
}

TEST(SparklineTest, FlatSeriesUsesLowestBlock) {
  const std::string s = Sparkline({3.0, 3.0, 3.0});
  EXPECT_EQ(s, "▁▁▁");
}

TEST(SparklineTest, MinAndMaxMapToExtremes) {
  const std::string s = Sparkline({0.0, 1.0});
  EXPECT_EQ(s, "▁█");
}

TEST(LineChartTest, ContainsTitleLegendAndAxis) {
  ChartSeries a{"alpha", {1.0, 2.0, 3.0}};
  ChartSeries b{"beta", {3.0, 2.0, 1.0}};
  ChartOptions opt;
  opt.width = 20;
  opt.height = 5;
  opt.x_label = "time";
  const std::string out = RenderLineChart("Demo", {a, b}, opt);
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_NE(out.find("time"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);  // series glyphs
  EXPECT_NE(out.find('+'), std::string::npos);
}

TEST(LineChartTest, RowCountMatchesHeight) {
  ChartSeries a{"s", {0.0, 1.0, 0.5}};
  ChartOptions opt;
  opt.width = 16;
  opt.height = 6;
  const std::string out = RenderLineChart("T", {a}, opt);
  int plot_rows = 0;
  size_t pos = 0;
  while ((pos = out.find('|', pos)) != std::string::npos) {
    ++plot_rows;
    ++pos;
  }
  EXPECT_EQ(plot_rows, 6);
}

TEST(LineChartTest, RespectsExplicitYRange) {
  ChartSeries a{"s", {5.0, 5.0}};
  ChartOptions opt;
  opt.width = 16;
  opt.height = 4;
  opt.y_min = 0.0;
  opt.y_max = 10.0;
  const std::string out = RenderLineChart("T", {a}, opt);
  EXPECT_NE(out.find("10.0"), std::string::npos);
  EXPECT_NE(out.find("0.0"), std::string::npos);
}

TEST(LineChartDeathTest, TooSmallCanvasAborts) {
  ChartSeries a{"s", {1.0}};
  ChartOptions opt;
  opt.width = 4;
  EXPECT_DEATH(RenderLineChart("T", {a}, opt), "");
}

}  // namespace
}  // namespace crius
