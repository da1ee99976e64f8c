// Chrome-trace export of a finished cluster simulation.
//
// Converts SimResult's event log and throughput timeline into per-job tracks
// (queued/running spans, restart/preempt/drop instants), a scheduler-round
// track, and cluster-level counter series, all under the recorder's
// "simulation (sim time)" process (timestamps are simulated seconds, exported
// as microseconds). Combined with the live subsystem spans recorded during
// the run this makes a whole cluster run visually inspectable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Requires SimConfig::record_events (per-job tracks are reconstructed from
// the event log); with an empty event log only the round/counter tracks are
// emitted. The conversion is a pure function of the SimResult, so the
// appended events are fully deterministic.

#ifndef SRC_SIM_CHROME_EXPORT_H_
#define SRC_SIM_CHROME_EXPORT_H_

#include "src/sim/metrics.h"
#include "src/util/trace.h"

namespace crius {

// Appends the simulation's tracks to `recorder` (works on a disabled
// recorder: explicit-timestamp events are always accepted).
void AppendSimTrace(const SimResult& result, TraceRecorder& recorder);

}  // namespace crius

#endif  // SRC_SIM_CHROME_EXPORT_H_
