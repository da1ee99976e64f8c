// ASCII Gantt rendering of a plan's pipeline schedule.
//
// Visualizes the §5.1 execution model: every stage processes B = 4 x S
// microbatches; the first microbatch ripples through the stages (including
// boundary transfers) and the steady state is paced by the slowest stage.
// Printed by crius_plan and handy when debugging why a plan's bubble is large.
//
//   S0 |00112233445566778899AB........|
//   S1 |..0011223344556677889..9AB....|
//
// Each column is one time quantum; the glyph is the microbatch index being
// computed ('.' = idle/bubble).

#ifndef BENCH_GANTT_H_
#define BENCH_GANTT_H_

#include <string>

#include "src/parallel/perf_model.h"

namespace crius {

// Renders the pipeline schedule of `plan` under `ctx`. `width` is the number
// of time columns used for the full iteration. Returns a multi-line string
// (one row per stage plus a header with the iteration time and bubble ratio).
std::string RenderPipelineGantt(const PerfModel& model, const JobContext& ctx,
                                const ParallelPlan& plan, int width = 96);

}  // namespace crius

#endif  // BENCH_GANTT_H_
