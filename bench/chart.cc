#include "bench/chart.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/util/check.h"

namespace crius {

namespace {

constexpr char kGlyphs[] = {'*', '+', 'o', 'x', '#', '@', '%', '&'};

}  // namespace

std::vector<double> Resample(const std::vector<double>& values, int n) {
  CRIUS_CHECK(n >= 1);
  std::vector<double> out(static_cast<size_t>(n));
  if (values.empty()) {
    return out;
  }
  if (values.size() == 1 || n == 1) {
    std::fill(out.begin(), out.end(), values[0]);
    return out;
  }
  for (int i = 0; i < n; ++i) {
    const double pos = static_cast<double>(i) * static_cast<double>(values.size() - 1) /
                       static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[static_cast<size_t>(i)] = values[lo] + (values[hi] - values[lo]) * frac;
  }
  return out;
}

std::string Sparkline(const std::vector<double>& values) {
  if (values.empty()) {
    return "";
  }
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  std::string out;
  for (double v : values) {
    int level = 0;
    if (hi > lo) {
      level = static_cast<int>(std::floor((v - lo) / (hi - lo) * 7.999));
    }
    out += kBlocks[std::clamp(level, 0, 7)];
  }
  return out;
}

std::string RenderLineChart(const std::string& title, const std::vector<ChartSeries>& series,
                            const ChartOptions& options) {
  CRIUS_CHECK(options.width >= 16);
  CRIUS_CHECK(options.height >= 4);
  CRIUS_CHECK(!series.empty());

  double y_min = options.y_min;
  double y_max = options.y_max;
  if (y_min == y_max) {
    y_min = 1e300;
    y_max = -1e300;
    for (const ChartSeries& s : series) {
      for (double v : s.values) {
        y_min = std::min(y_min, v);
        y_max = std::max(y_max, v);
      }
    }
    if (y_min > y_max) {
      y_min = 0.0;
      y_max = 1.0;
    }
    if (y_min == y_max) {
      y_max = y_min + 1.0;
    }
    // A little headroom.
    const double pad = (y_max - y_min) * 0.05;
    y_max += pad;
    y_min = std::max(0.0, y_min - pad);
  }

  // Canvas: rows x columns of glyphs, row 0 = top.
  std::vector<std::string> canvas(static_cast<size_t>(options.height),
                                  std::string(static_cast<size_t>(options.width), ' '));
  for (size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % sizeof(kGlyphs)];
    const std::vector<double> pts = Resample(series[si].values, options.width);
    for (int col = 0; col < options.width; ++col) {
      const double v = pts[static_cast<size_t>(col)];
      const double frac = (v - y_min) / (y_max - y_min);
      const int row = options.height - 1 -
                      std::clamp(static_cast<int>(std::round(frac * (options.height - 1))), 0,
                                 options.height - 1);
      canvas[static_cast<size_t>(row)][static_cast<size_t>(col)] = glyph;
    }
  }

  std::ostringstream oss;
  oss << "\n== " << title << " ==\n";
  // Legend.
  for (size_t si = 0; si < series.size(); ++si) {
    oss << "  " << kGlyphs[si % sizeof(kGlyphs)] << " " << series[si].label;
  }
  oss << "\n";
  if (!options.y_label.empty()) {
    oss << options.y_label << "\n";
  }
  char buf[32];
  for (int row = 0; row < options.height; ++row) {
    const double v = y_max - (y_max - y_min) * static_cast<double>(row) /
                                 static_cast<double>(options.height - 1);
    std::snprintf(buf, sizeof(buf), "%8.1f |", v);
    oss << buf << canvas[static_cast<size_t>(row)] << "\n";
  }
  oss << std::string(9, ' ') << '+' << std::string(static_cast<size_t>(options.width), '-')
      << "\n";
  if (!options.x_label.empty()) {
    oss << std::string(10, ' ') << options.x_label << "\n";
  }
  return oss.str();
}

}  // namespace crius
