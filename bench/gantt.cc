#include "bench/gantt.h"

#include <cstdio>
#include <sstream>

#include "bench/pipeline_engine.h"
#include "src/util/check.h"

namespace crius {

namespace {

char MicrobatchGlyph(int m) {
  if (m < 10) {
    return static_cast<char>('0' + m);
  }
  if (m < 36) {
    return static_cast<char>('A' + m - 10);
  }
  return static_cast<char>('a' + (m - 36) % 26);
}

}  // namespace

std::string RenderPipelineGantt(const PerfModel& model, const JobContext& ctx,
                                const ParallelPlan& plan, int width) {
  CRIUS_CHECK(width >= 8);
  const PipelineEngine engine(&model);
  const IterationTrace trace = engine.Execute(ctx, plan);
  const int nstages = trace.num_stages();
  const int b = trace.num_microbatches();
  const PlanEval eval = model.Evaluate(ctx, plan);

  std::ostringstream oss;
  char header[160];
  std::snprintf(header, sizeof(header),
                "%s  iter=%.3fs  microbatches=%d  bubble=%.1f%%\n", plan.ToString().c_str(),
                eval.feasible ? eval.iter_time : -1.0, b, trace.BubbleFraction() * 100.0);
  oss << header;

  const double quantum = trace.pipeline_makespan / static_cast<double>(width);
  for (int s = 0; s < nstages; ++s) {
    char label[16];
    std::snprintf(label, sizeof(label), "S%-2d |", s);
    oss << label;
    for (int col = 0; col < width; ++col) {
      const double t = (static_cast<double>(col) + 0.5) * quantum;
      char glyph = '.';
      for (int m = 0; m < b; ++m) {
        const StageInterval& iv = trace.At(s, m);
        if (t >= iv.start && t < iv.finish) {
          glyph = MicrobatchGlyph(m);
          break;
        }
      }
      oss << glyph;
    }
    oss << "|\n";
  }
  return oss.str();
}

}  // namespace crius
