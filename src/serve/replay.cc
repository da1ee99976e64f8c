#include "src/serve/replay.h"

#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/util/check.h"

namespace crius {

SimConfig SimConfigFromMeta(const SessionMeta& meta) {
  SimConfig config;
  config.schedule_interval = meta.schedule_interval;
  config.restart_overhead = meta.restart_overhead;
  config.charge_profiling = meta.charge_profiling;
  config.record_events = true;
  config.reconfig.enabled = meta.reconfig;
  config.power.enabled = meta.power;
  config.power.dvfs = meta.dvfs;
  return config;
}

bool MakeSessionRuntime(const SessionMeta& meta, SessionRuntime* out, std::string* error) {
  Cluster cluster;
  std::string cluster_error;
  if (!MakeNamedCluster(meta.cluster_spec, &cluster, &cluster_error)) {
    *error = "session meta cluster '" + meta.cluster_spec + "': " + cluster_error;
    return false;
  }
  if (!IsKnownScheduler(meta.scheduler)) {
    *error = "session meta scheduler '" + meta.scheduler + "': unknown scheduler";
    return false;
  }
  out->cluster = std::move(cluster);
  out->oracle = std::make_unique<PerformanceOracle>(out->cluster, meta.seed);
  SchedulerOptions options;
  options.search_depth = meta.search_depth;
  options.deadline_aware = meta.deadline_aware;
  out->scheduler = MakeNamedScheduler(meta.scheduler, out->oracle.get(), options);
  out->sim = SimConfigFromMeta(meta);
  return true;
}

SessionRuntime MakeSessionRuntime(const SessionMeta& meta) {
  SessionRuntime runtime;
  std::string error;
  CRIUS_CHECK_MSG(MakeSessionRuntime(meta, &runtime, &error), error);
  return runtime;
}

SimResult ReplaySession(const Session& session) {
  SessionRuntime runtime = MakeSessionRuntime(session.meta);
  return ReplaySession(session, runtime);
}

SimResult ReplaySession(const Session& session, SessionRuntime& runtime) {
  runtime.sim.failures = session.failures;
  runtime.sim.cancels = session.cancels;
  Simulator simulator(runtime.cluster, runtime.sim);
  return simulator.Run(*runtime.scheduler, *runtime.oracle, session.trace);
}

SimResult ReplaySessionFile(const std::string& path) {
  return ReplaySession(ReadSessionLogFile(path));
}

}  // namespace crius
