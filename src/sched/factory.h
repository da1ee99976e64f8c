// Scheduler construction by name.
//
// crius_sim, crius_serve, the session replay path, and the benches all accept
// a --scheduler string; this is the one place that maps it to a Scheduler so
// the vocabulary (and the Crius ablation variants) cannot drift between entry
// points.

#ifndef SRC_SCHED_FACTORY_H_
#define SRC_SCHED_FACTORY_H_

#include <memory>
#include <string>

#include "src/sched/crius_sched.h"
#include "src/sched/scheduler.h"

namespace crius {

// Knobs that thread through from command lines into the Crius variants;
// baselines ignore them.
struct SchedulerOptions {
  int search_depth = 3;
  bool deadline_aware = false;
  // Crius ranking objective (--objective-weights); crius-fair sets its
  // fairness weight to 1.
  CriusObjective objective{};
};

// The accepted names, for --help strings:
// crius | crius-na | crius-nh | crius-fair | crius-solver | fcfs | gandiva |
// gavel | tiresias | elasticflow | elasticflow-strict.
extern const char kSchedulerNamesHelp[];

// True if `name` is one of the accepted scheduler names.
bool IsKnownScheduler(const std::string& name);

// Builds the named scheduler; aborts on an unknown name (callers that handle
// operator input check IsKnownScheduler first).
std::unique_ptr<Scheduler> MakeNamedScheduler(const std::string& name,
                                              PerformanceOracle* oracle,
                                              const SchedulerOptions& options = {});

}  // namespace crius

#endif  // SRC_SCHED_FACTORY_H_
