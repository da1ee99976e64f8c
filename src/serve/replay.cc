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

SessionRuntime MakeSessionRuntime(const SessionMeta& meta) {
  SessionRuntime runtime;
  runtime.cluster = MakeNamedCluster(meta.cluster_spec);
  runtime.oracle = std::make_unique<PerformanceOracle>(runtime.cluster, meta.seed);
  CRIUS_CHECK_MSG(IsKnownScheduler(meta.scheduler),
                  "session meta names unknown scheduler '" << meta.scheduler << "'");
  SchedulerOptions options;
  options.search_depth = meta.search_depth;
  options.deadline_aware = meta.deadline_aware;
  runtime.scheduler = MakeNamedScheduler(meta.scheduler, runtime.oracle.get(), options);
  runtime.sim = SimConfigFromMeta(meta);
  return runtime;
}

SimResult ReplaySession(const Session& session) {
  SessionRuntime runtime = MakeSessionRuntime(session.meta);
  runtime.sim.failures = session.failures;
  runtime.sim.cancels = session.cancels;
  Simulator simulator(runtime.cluster, runtime.sim);
  return simulator.Run(*runtime.scheduler, *runtime.oracle, session.trace);
}

SimResult ReplaySessionFile(const std::string& path) {
  return ReplaySession(ReadSessionLogFile(path));
}

}  // namespace crius
