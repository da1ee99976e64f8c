#include "src/serve/session_log.h"

#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>

#include "src/util/check.h"
#include "src/util/csv.h"
#include "src/util/logging.h"

namespace crius {

namespace {

constexpr char kHeader[] =
    "time,kind,job_id,node_id,family,params_billion,global_batch,iterations,"
    "requested_gpus,requested_type,deadline,detail";

// Round-trip-exact double formatting: the replay must feed the engine the
// bit-identical values the live session used.
std::string FmtDouble(double v) {
  std::ostringstream oss;
  oss << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return oss.str();
}

bool ParseBoolField(const std::string& s, const char* what, int line_no) {
  if (s == "1" || s == "true") {
    return true;
  }
  if (s == "0" || s == "false") {
    return false;
  }
  CRIUS_UNREACHABLE("session log line " + std::to_string(line_no) + ": bad " +
                    std::string(what) + " '" + s + "'");
}

}  // namespace

std::string SerializeSessionMeta(const SessionMeta& meta) {
  std::ostringstream oss;
  oss << "cluster=" << meta.cluster_spec << ";scheduler=" << meta.scheduler
      << ";seed=" << meta.seed << ";search_depth=" << meta.search_depth
      << ";deadline_aware=" << (meta.deadline_aware ? 1 : 0)
      << ";schedule_interval=" << FmtDouble(meta.schedule_interval)
      << ";restart_overhead=" << FmtDouble(meta.restart_overhead)
      << ";charge_profiling=" << (meta.charge_profiling ? 1 : 0)
      << ";reconfig=" << (meta.reconfig ? 1 : 0);
  if (meta.power) {
    // Conditional: a session without power accounting serializes the exact
    // pre-power byte sequence (the inertness contract, pinned by tests).
    oss << ";power=1;dvfs=" << meta.dvfs
        << ";power_cap_watts=" << FmtDouble(meta.power_cap_watts);
  }
  return oss.str();
}

SessionMeta ParseSessionMeta(const std::string& detail, int line_no) {
  SessionMeta meta;
  size_t pos = 0;
  while (pos < detail.size()) {
    size_t end = detail.find(';', pos);
    if (end == std::string::npos) {
      end = detail.size();
    }
    const std::string pair = detail.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) {
      continue;
    }
    const size_t eq = pair.find('=');
    CRIUS_CHECK_MSG(eq != std::string::npos, "session log line " << line_no
                                                                 << ": bad meta pair '" << pair
                                                                 << "'");
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "cluster") {
      meta.cluster_spec = value;
    } else if (key == "scheduler") {
      meta.scheduler = value;
    } else if (key == "seed") {
      meta.seed = static_cast<uint64_t>(csv::ParseInt(value, "seed", line_no, "session log"));
    } else if (key == "search_depth") {
      meta.search_depth =
          static_cast<int>(csv::ParseInt(value, "search_depth", line_no, "session log"));
    } else if (key == "deadline_aware") {
      meta.deadline_aware = ParseBoolField(value, "deadline_aware", line_no);
    } else if (key == "incremental") {
      // Written by older builds for a since-removed scheduler knob that never
      // changed decisions: validated, then ignored, so their logs replay.
      ParseBoolField(value, "incremental", line_no);
    } else if (key == "schedule_interval") {
      meta.schedule_interval = csv::ParseDouble(value, "schedule_interval", line_no, "session log");
    } else if (key == "restart_overhead") {
      meta.restart_overhead = csv::ParseDouble(value, "restart_overhead", line_no, "session log");
    } else if (key == "charge_profiling") {
      meta.charge_profiling = ParseBoolField(value, "charge_profiling", line_no);
    } else if (key == "reconfig") {
      meta.reconfig = ParseBoolField(value, "reconfig", line_no);
    } else if (key == "power") {
      meta.power = ParseBoolField(value, "power", line_no);
    } else if (key == "dvfs") {
      meta.dvfs = value;
    } else if (key == "power_cap_watts") {
      meta.power_cap_watts = csv::ParseDouble(value, "power_cap_watts", line_no, "session log");
    } else {
      CRIUS_UNREACHABLE("session log line " + std::to_string(line_no) + ": unknown meta key '" +
                        key + "'");
    }
  }
  return meta;
}

SessionLog::SessionLog(const std::string& path, const SessionMeta& meta)
    : file_(path), out_(&file_) {
  CRIUS_CHECK_MSG(file_.is_open(), "cannot open session log " << path);
  WriteHeader(meta);
}

SessionLog::SessionLog(std::ostream& out, const SessionMeta& meta) : out_(&out) {
  WriteHeader(meta);
}

void SessionLog::WriteHeader(const SessionMeta& meta) {
  *out_ << kHeader << '\n';
  csv::WriteRow(*out_, {"0", "meta", "-1", "-1", "", "", "", "", "", "", "",
                        SerializeSessionMeta(meta)});
  out_->flush();
}

void SessionLog::AppendSubmit(double time, const TrainingJob& job) {
  std::string deadline;
  if (job.deadline.has_value()) {
    deadline = FmtDouble(*job.deadline);
  }
  csv::WriteRow(*out_, {FmtDouble(time), "submit", std::to_string(job.id), "-1",
                        FamilyName(job.spec.family), FmtDouble(job.spec.params_billion),
                        std::to_string(job.spec.global_batch), std::to_string(job.iterations),
                        std::to_string(job.requested_gpus), GpuName(job.requested_type),
                        deadline, ""});
  out_->flush();
}

void SessionLog::AppendCancel(double time, int64_t job_id) {
  csv::WriteRow(*out_, {FmtDouble(time), "cancel", std::to_string(job_id), "-1", "", "", "", "",
                        "", "", "", ""});
  out_->flush();
}

void SessionLog::AppendFailNode(double time, int node_id) {
  csv::WriteRow(*out_, {FmtDouble(time), "fail_node", "-1", std::to_string(node_id), "", "", "",
                        "", "", "", "", ""});
  out_->flush();
}

void SessionLog::AppendRecoverNode(double time, int node_id) {
  csv::WriteRow(*out_, {FmtDouble(time), "recover_node", "-1", std::to_string(node_id), "", "",
                        "", "", "", "", "", ""});
  out_->flush();
}

void SessionLog::Flush() { out_->flush(); }

Session ReadSessionLog(std::istream& in) {
  Session session;
  bool meta_seen = false;
  csv::Reader reader(in, "session log", "time,");
  while (reader.Next()) {
    if (reader.torn()) {
      // The daemon died mid-append. Even a torn row that parses may hold a
      // cut numeric field, so the row is dropped, not trusted.
      LogMessage(LogLevel::kWarning,
                 "session log truncated at line " + std::to_string(reader.line_no()));
      break;
    }
    reader.ExpectFields(12);
    const double time = reader.Double(0, "time");
    const std::string& kind = reader.Field(1);
    if (kind == "meta") {
      CRIUS_CHECK_MSG(!meta_seen,
                      "session log line " << reader.line_no() << ": duplicate meta row");
      session.meta = ParseSessionMeta(reader.Field(11), reader.line_no());
      meta_seen = true;
    } else if (kind == "submit") {
      TrainingJob job;
      job.id = reader.Int(2, "job_id");
      const std::optional<ModelFamily> family = ParseModelFamily(reader.Field(4));
      CRIUS_CHECK_MSG(family.has_value(), "session log line " << reader.line_no()
                                                              << ": unknown family '"
                                                              << reader.Field(4) << "'");
      job.spec.family = *family;
      job.spec.params_billion = reader.Double(5, "params_billion");
      job.spec.global_batch = reader.Int(6, "global_batch");
      job.iterations = reader.Int(7, "iterations");
      job.submit_time = time;
      job.requested_gpus = static_cast<int>(reader.Int(8, "requested_gpus"));
      job.requested_type = ParseGpuType(reader.Field(9));
      if (!reader.Field(10).empty()) {
        job.deadline = reader.Double(10, "deadline");
      }
      session.trace.push_back(job);
    } else if (kind == "cancel") {
      session.cancels.push_back(JobCancelEvent{time, reader.Int(2, "job_id")});
    } else if (kind == "fail_node" || kind == "recover_node") {
      FailureEvent e;
      e.time = time;
      e.kind = kind == "fail_node" ? FailureKind::kNodeFail : FailureKind::kNodeRecover;
      e.node_id = static_cast<int>(reader.Int(3, "node_id"));
      session.failures.push_back(e);
    } else {
      CRIUS_UNREACHABLE("session log line " + std::to_string(reader.line_no()) +
                        ": unknown kind '" + kind + "'");
    }
  }
  CRIUS_CHECK_MSG(meta_seen, "session log: missing meta row");
  return session;
}

Session ReadSessionLogFile(const std::string& path) {
  std::ifstream in(path);
  CRIUS_CHECK_MSG(in.is_open(), "cannot open session log " << path);
  return ReadSessionLog(in);
}

}  // namespace crius
