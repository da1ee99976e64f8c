#include "src/sched/factory.h"

#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/util/check.h"

namespace crius {

const char kSchedulerNamesHelp[] =
    "crius | crius-na | crius-nh | crius-fair | crius-solver | fcfs | gandiva | "
    "gavel | tiresias | elasticflow | elasticflow-strict";

bool IsKnownScheduler(const std::string& name) {
  for (const char* known :
       {"crius", "crius-na", "crius-nh", "crius-fair", "crius-solver", "fcfs", "gandiva",
        "gavel", "tiresias", "elasticflow", "elasticflow-strict"}) {
    if (name == known) {
      return true;
    }
  }
  return false;
}

std::unique_ptr<Scheduler> MakeNamedScheduler(const std::string& name,
                                              PerformanceOracle* oracle,
                                              const SchedulerOptions& options) {
  if (name == "fcfs") {
    return std::make_unique<FcfsScheduler>(oracle);
  }
  if (name == "tiresias") {
    return std::make_unique<TiresiasScheduler>(oracle);
  }
  if (name == "gandiva") {
    return std::make_unique<GandivaScheduler>(oracle);
  }
  if (name == "gavel") {
    return std::make_unique<GavelScheduler>(oracle);
  }
  if (name == "elasticflow") {
    return std::make_unique<ElasticFlowScheduler>(oracle, ElasticFlowConfig{});
  }
  if (name == "elasticflow-strict") {
    return std::make_unique<ElasticFlowScheduler>(oracle,
                                                  ElasticFlowConfig{.loose_deadlines = false});
  }
  if (name == "crius" || name == "crius-na" || name == "crius-nh" || name == "crius-fair" ||
      name == "crius-solver") {
    CriusConfig config;
    config.search_depth = options.search_depth;
    config.deadline_aware = options.deadline_aware;
    config.objective = options.objective;
    config.adaptivity_scaling = name != "crius-na";
    config.heterogeneity_scaling = name != "crius-nh";
    if (name == "crius-fair") {
      config.objective.fairness = 1.0;
    }
    if (name == "crius-solver") {
      config.placement_order = CriusPlacementOrder::kBestOfAll;
    }
    return std::make_unique<CriusScheduler>(oracle, config);
  }
  CRIUS_UNREACHABLE("unknown scheduler '" + name + "' (want " + kSchedulerNamesHelp + ")");
}

}  // namespace crius
