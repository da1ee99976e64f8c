// Terminal charts for benchmark output: multi-series line charts and
// sparklines rendered in ASCII/Unicode. Fig. 16's throughput timeline reads
// far better as a chart than as a table of buckets.

#ifndef BENCH_CHART_H_
#define BENCH_CHART_H_

#include <string>
#include <vector>

namespace crius {

struct ChartSeries {
  std::string label;
  std::vector<double> values;  // uniformly spaced in x
};

struct ChartOptions {
  int width = 100;   // plot columns (series are resampled to fit)
  int height = 16;   // plot rows
  std::string x_label;
  std::string y_label;
  // Y axis range; when min == max the range is derived from the data.
  double y_min = 0.0;
  double y_max = 0.0;
};

// Renders a multi-series line chart. Each series gets a distinct glyph
// (shown in the legend); overlapping points show the later series' glyph.
std::string RenderLineChart(const std::string& title, const std::vector<ChartSeries>& series,
                            const ChartOptions& options = {});

// One-line sparkline using eighth-block glyphs; empty input gives an empty
// string.
std::string Sparkline(const std::vector<double>& values);

// Linear resampling of `values` to `n` points (n >= 1). Preserves endpoints.
std::vector<double> Resample(const std::vector<double>& values, int n);

}  // namespace crius

#endif  // BENCH_CHART_H_
