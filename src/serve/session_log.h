// Append-only record of everything a live serving session was told.
//
// The controller writes one CSV row per externally-injected fact -- job
// submissions, owner cancels, node failures and recoveries -- stamped with the
// virtual time at which the command was applied, plus one leading `meta` row
// capturing the full runtime configuration (cluster spec, scheduler,
// SimConfig knobs, seed). That is exactly the information the batch simulator
// needs: BuildReplayInputs() turns a log back into a (trace, failures,
// cancels) triple and replay.h runs it through Simulator::Run. Because the
// live controller and the batch simulator share one SimEngine, a drained
// session's replay produces bit-identical decision CSVs (see
// src/sim/engine.h for the determinism contract); times are serialized with
// max_digits10 so every double round-trips exactly.
//
// Columns:
//   time,kind,job_id,node_id,family,params_billion,global_batch,iterations,
//   requested_gpus,requested_type,deadline,detail
// Kinds: meta | submit | cancel | fail_node | recover_node. Unused columns
// are empty (numeric id columns: -1). The meta row packs its key=value pairs
// into `detail`, semicolon-separated; the cluster spec value contains commas,
// so the field exercises the shared CSV quoting (src/util/csv.h).

#ifndef SRC_SERVE_SESSION_LOG_H_
#define SRC_SERVE_SESSION_LOG_H_

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/fault/failure_injector.h"
#include "src/model/job.h"
#include "src/sim/simulator.h"

namespace crius {

// Everything needed to rebuild the live session's runtime (cluster,
// scheduler, SimConfig) for replay. Serialized into the log's meta row.
struct SessionMeta {
  std::string cluster_spec = "testbed";
  std::string scheduler = "crius";
  uint64_t seed = 1;
  int search_depth = 3;
  bool deadline_aware = false;
  double schedule_interval = 5.0 * kMinute;
  double restart_overhead = 60.0;
  bool charge_profiling = true;
  // Live reconfiguration (src/reconfig) with its default knobs. Recorded so a
  // replay reconstructs the same migration decisions the live session made.
  bool reconfig = false;
  // Power accounting (src/power). The DVFS state changes realized iteration
  // times, so it must round-trip for replay identity; the admission cap is
  // recorded for provenance (rejected submissions never reach the log, so it
  // does not alter the replayed simulation). All three keys are serialized
  // only when `power` is set, keeping default session logs byte-identical to
  // pre-power builds.
  bool power = false;
  std::string dvfs = "nominal";
  double power_cap_watts = 0.0;
};

// Streaming log writer. Each Append* call emits one row and flushes, so a
// crash or signal loses at most the in-flight row.
class SessionLog {
 public:
  // Opens `path` (truncating) and writes the header + meta row. Aborts if the
  // file cannot be opened: a serving daemon without its flight recorder is
  // misconfigured.
  SessionLog(const std::string& path, const SessionMeta& meta);
  // Stream variant for tests / in-process sessions.
  SessionLog(std::ostream& out, const SessionMeta& meta);

  void AppendSubmit(double time, const TrainingJob& job);
  void AppendCancel(double time, int64_t job_id);
  void AppendFailNode(double time, int node_id);
  void AppendRecoverNode(double time, int node_id);

  void Flush();

 private:
  void WriteHeader(const SessionMeta& meta);

  std::ofstream file_;
  std::ostream* out_;  // &file_ or the caller's stream
};

// A parsed session log.
struct Session {
  SessionMeta meta;
  std::vector<TrainingJob> trace;       // submit rows, in log (= id) order
  std::vector<FailureEvent> failures;   // fail_node / recover_node rows
  std::vector<JobCancelEvent> cancels;  // cancel rows
};

// Parses a session log. A final line without its trailing newline is a row
// the writer never finished: it is dropped with a "session log truncated at
// line N" warning. Any other malformed row aborts with a "session log line
// N: ..." diagnostic (same failing-loudly policy as the trace readers).
Session ReadSessionLog(std::istream& in);
Session ReadSessionLogFile(const std::string& path);

// Serializes/parses the meta row's detail payload (exposed for tests).
std::string SerializeSessionMeta(const SessionMeta& meta);
SessionMeta ParseSessionMeta(const std::string& detail, int line_no);

}  // namespace crius

#endif  // SRC_SERVE_SESSION_LOG_H_
