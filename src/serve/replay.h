// Deterministic re-execution of a recorded serving session.
//
// MakeSessionRuntime rebuilds the exact runtime a session's meta row
// describes -- cluster, oracle (seeded identically), scheduler, SimConfig --
// and ReplaySession feeds the log's submissions/cancels/failures through the
// batch Simulator. Live loop and batch simulator share one SimEngine
// (src/sim/engine.h), so for a session that ended with a drained shutdown the
// replayed SimResult's job records and event log are bit-identical to the
// live ones; the live_* rows of golden_outputs_test.cc and the CI smoke job
// compare the CSVs byte-for-byte.

#ifndef SRC_SERVE_REPLAY_H_
#define SRC_SERVE_REPLAY_H_

#include <memory>
#include <string>

#include "src/core/oracle.h"
#include "src/sched/scheduler.h"
#include "src/serve/session_log.h"
#include "src/sim/simulator.h"

namespace crius {

// The full runtime a SessionMeta describes. Used by crius_serve to construct
// the live controller and by the replay path, so both sides cannot drift.
struct SessionRuntime {
  Cluster cluster;
  std::unique_ptr<PerformanceOracle> oracle;
  std::unique_ptr<Scheduler> scheduler;
  SimConfig sim;
};

// SimConfig from the meta row. record_events is always on: the event CSV is
// half of the replay-identity check.
SimConfig SimConfigFromMeta(const SessionMeta& meta);

// Builds cluster + oracle + scheduler + SimConfig from the meta row. Returns
// false with *error naming the meta field ("session meta cluster 'A100:0x4':
// bad node count in 'A100:0x4'", "session meta scheduler 'x': unknown
// scheduler") on a malformed cluster spec or an unknown scheduler name: a
// corrupt or hand-edited log.
bool MakeSessionRuntime(const SessionMeta& meta, SessionRuntime* out, std::string* error);
// The same, aborting with that message (meta rows the caller built itself).
SessionRuntime MakeSessionRuntime(const SessionMeta& meta);

// Replays a parsed session through Simulator::Run, on the runtime its meta
// row describes or on `runtime` (built from that meta row).
SimResult ReplaySession(const Session& session);
SimResult ReplaySession(const Session& session, SessionRuntime& runtime);
SimResult ReplaySessionFile(const std::string& path);

}  // namespace crius

#endif  // SRC_SERVE_REPLAY_H_
