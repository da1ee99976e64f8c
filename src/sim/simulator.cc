#include "src/sim/simulator.h"

#include <sstream>
#include <string>

#include "src/sim/engine.h"
#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/trace.h"

namespace crius {

std::vector<std::string> SimConfig::Validate(const Cluster& cluster) const {
  std::vector<std::string> errors;
  auto require = [&errors](bool ok, const std::string& message) {
    if (!ok) {
      errors.push_back(message);
    }
  };
  require(schedule_interval > 0.0, "non-positive schedule_interval");
  require(restart_overhead >= 0.0, "negative restart_overhead");
  require(checkpoint_bandwidth >= 0.0, "negative checkpoint_bandwidth");
  require(max_time_factor >= 0.0, "negative max_time_factor");
  require(execution_jitter >= 0.0, "negative execution_jitter");
  require(checkpoint.interval >= 0.0, "negative checkpoint interval");
  require(checkpoint.cost >= 0.0, "negative checkpoint cost");
  require(node_mtbf >= 0.0, "negative node_mtbf");
  if (reconfig.enabled) {
    require(reconfig.hysteresis_margin >= 0.0, "negative reconfig hysteresis_margin");
    require(reconfig.min_relative_gain >= 0.0, "negative reconfig min_relative_gain");
    require(reconfig.cooldown >= 0.0, "negative reconfig cooldown");
    require(reconfig.max_migrations_per_round >= 0,
            "negative reconfig max_migrations_per_round");
    require(reconfig.arrival_burst >= 1, "reconfig arrival_burst below 1");
    require(reconfig.distress_factor >= 1.0, "reconfig distress_factor below 1");
    require(reconfig.cost.restart_overhead >= 0.0, "negative reconfig restart_overhead");
    require(reconfig.cost.checkpoint_bandwidth >= 0.0,
            "negative reconfig checkpoint_bandwidth");
    require(reconfig.cost.checkpoint_cost >= 0.0, "negative reconfig checkpoint_cost");
    require(reconfig.cost.warmup_base >= 0.0, "negative reconfig warmup_base");
    require(reconfig.cost.warmup_per_gpu >= 0.0, "negative reconfig warmup_per_gpu");
  }
  if (power.enabled) {
    require(IsKnownDvfsState(power.dvfs),
            "unknown DVFS state '" + power.dvfs + "' (want nominal | balanced | powersave)");
  }
  const int num_nodes = static_cast<int>(cluster.nodes().size());
  for (const FailureEvent& e : failures) {
    require(e.time >= 0.0, "failure event with negative time");
    require(e.node_id >= 0 && e.node_id < num_nodes,
            "failure event for unknown node " + std::to_string(e.node_id));
  }
  for (const JobCancelEvent& e : cancels) {
    require(e.time >= 0.0, "cancel event with negative time");
  }
  return errors;
}

Simulator::Simulator(const Cluster& cluster, SimConfig config)
    : cluster_template_(cluster), config_(std::move(config)) {
  const std::vector<std::string> errors = config_.Validate(cluster_template_);
  if (!errors.empty()) {
    std::ostringstream joined;
    for (size_t i = 0; i < errors.size(); ++i) {
      joined << (i > 0 ? "; " : "") << errors[i];
    }
    CRIUS_CHECK_MSG(false, "invalid SimConfig: " << joined.str());
  }
}

SimResult Simulator::Run(Scheduler& scheduler, PerformanceOracle& oracle,
                         const std::vector<TrainingJob>& trace) {
  CRIUS_TRACE_SPAN_ARGS("sim.run", "{\"jobs\": " + std::to_string(trace.size()) + "}");
  CRIUS_COUNTER_INC("sim.runs");

  SimEngine engine(cluster_template_, config_, scheduler, oracle);

  // Startup prepass: per-job profiling delay and reference throughput dominate
  // cold-start time (they fault in the oracle's explorer/estimator caches).
  {
    CRIUS_TRACE_SPAN_ARGS("sim.startup_prepass",
                          "{\"jobs\": " + std::to_string(trace.size()) + "}");
    for (const TrainingJob& job : trace) {
      CRIUS_CHECK_MSG(engine.TryAddJob(job),
                      "trace job " << job.id << ": duplicate id or infeasible on every GPU type");
    }
  }

  engine.Drain();
  return engine.Finish();
}

}  // namespace crius
