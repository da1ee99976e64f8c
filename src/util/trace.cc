#include "src/util/trace.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "src/util/json.h"

namespace crius {

namespace {

// Subsystem track of a span name: the prefix before the first '.', or the
// whole name when there is none ("sched.round" -> "sched").
std::string SubsystemOf(const char* name) {
  const std::string full(name);
  const size_t dot = full.find('.');
  return dot == std::string::npos ? full : full.substr(0, dot);
}

std::string FormatNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

double TraceRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch_)
      .count();
}

int TraceRecorder::TrackLocked(int pid, const std::string& name) {
  const auto key = std::make_pair(pid, name);
  auto it = track_ids_.find(key);
  if (it != track_ids_.end()) {
    return it->second;
  }
  TrackInfo info;
  info.pid = pid;
  info.tid = static_cast<int>(tracks_.size()) + 1;
  info.name = name;
  tracks_.push_back(info);
  const int id = static_cast<int>(tracks_.size()) - 1;
  track_ids_.emplace(key, id);
  return id;
}

int TraceRecorder::Track(int pid, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return TrackLocked(pid, name);
}

void TraceRecorder::BeginSpan(const char* name, std::string args_json) {
  if (!enabled()) {
    return;
  }
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  SpanFrame frame;
  frame.track = TrackLocked(kRealtimePid, SubsystemOf(name));
  frame.t0_us = now;
  frame.name = name;
  frame.args_json = std::move(args_json);
  span_stacks_[std::this_thread::get_id()].push_back(std::move(frame));
}

void TraceRecorder::EndSpan() {
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanFrame>& stack = span_stacks_[std::this_thread::get_id()];
  if (stack.empty()) {
    return;  // unbalanced end (e.g. Clear() raced a live span); drop it
  }
  SpanFrame frame = std::move(stack.back());
  stack.pop_back();
  Event e;
  e.phase = 'X';
  e.track = frame.track;
  e.ts_us = frame.t0_us;
  e.dur_us = now - frame.t0_us;
  e.name = std::move(frame.name);
  e.args_json = std::move(frame.args_json);
  events_.push_back(std::move(e));
}

void TraceRecorder::Instant(const std::string& name, std::string args_json) {
  if (!enabled()) {
    return;
  }
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  Event e;
  e.phase = 'i';
  e.track = TrackLocked(kRealtimePid, SubsystemOf(name.c_str()));
  e.ts_us = now;
  e.name = name;
  e.args_json = std::move(args_json);
  events_.push_back(std::move(e));
}

void TraceRecorder::CounterSample(const std::string& name, double value) {
  if (!enabled()) {
    return;
  }
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  Event e;
  e.phase = 'C';
  e.track = TrackLocked(kRealtimePid, "counters");
  e.ts_us = now;
  e.name = name;
  e.args_json = "{\"value\": " + FormatNumber(value) + "}";
  events_.push_back(std::move(e));
}

void TraceRecorder::CompleteEvent(int track, std::string name, double ts_us, double dur_us,
                                  std::string args_json) {
  std::lock_guard<std::mutex> lock(mu_);
  Event e;
  e.phase = 'X';
  e.track = track;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.name = std::move(name);
  e.args_json = std::move(args_json);
  events_.push_back(std::move(e));
}

void TraceRecorder::InstantEvent(int track, std::string name, double ts_us,
                                 std::string args_json) {
  std::lock_guard<std::mutex> lock(mu_);
  Event e;
  e.phase = 'i';
  e.track = track;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.args_json = std::move(args_json);
  events_.push_back(std::move(e));
}

void TraceRecorder::CounterEvent(int track, std::string name, double ts_us, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Event e;
  e.phase = 'C';
  e.track = track;
  e.ts_us = ts_us;
  e.name = std::move(name);
  e.args_json = "{\"value\": " + FormatNumber(value) + "}";
  events_.push_back(std::move(e));
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  tracks_.clear();
  track_ids_.clear();
  span_stacks_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::WriteJson(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n\"displayTimeUnit\": \"ms\",\n";
  // Wall-clock time is confined to this metadata block; the event stream
  // itself is deterministic in structure.
  const int64_t unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count();
  out << "\"otherData\": {\"tool\": \"crius\", \"export_unix_ms\": " << unix_ms << "},\n";
  out << "\"traceEvents\": [";
  bool first = true;
  auto sep = [&] {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n ";
  };
  // Process + track naming metadata.
  bool realtime_named = false;
  bool sim_named = false;
  for (const TrackInfo& t : tracks_) {
    if (t.pid == kRealtimePid && !realtime_named) {
      realtime_named = true;
      sep();
      out << "{\"ph\": \"M\", \"pid\": " << kRealtimePid
          << ", \"name\": \"process_name\", \"args\": {\"name\": \"crius (real time)\"}}";
    }
    if (t.pid == kSimPid && !sim_named) {
      sim_named = true;
      sep();
      out << "{\"ph\": \"M\", \"pid\": " << kSimPid
          << ", \"name\": \"process_name\", \"args\": {\"name\": \"simulation (sim time)\"}}";
    }
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << t.pid << ", \"tid\": " << t.tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": " << Json::EscapeString(t.name)
        << "}}";
  }
  for (const Event& e : events_) {
    const TrackInfo& t = tracks_[static_cast<size_t>(e.track)];
    sep();
    out << "{\"name\": " << Json::EscapeString(e.name) << ", \"ph\": \"" << e.phase
        << "\", \"pid\": " << t.pid << ", \"tid\": " << t.tid
        << ", \"ts\": " << FormatNumber(e.ts_us);
    if (e.phase == 'X') {
      out << ", \"dur\": " << FormatNumber(e.dur_us);
    }
    if (e.phase == 'i') {
      out << ", \"s\": \"t\"";
    }
    if (!e.args_json.empty()) {
      out << ", \"args\": " << e.args_json;
    }
    out << "}";
  }
  out << "\n]\n}\n";
}

bool TraceRecorder::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return false;
  }
  WriteJson(out);
  return out.good();
}

}  // namespace crius
