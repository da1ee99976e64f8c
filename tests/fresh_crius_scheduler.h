// Full-recompute reference for CriusScheduler's ranking memo.
//
// FreshCriusScheduler hands every call to a newly built CriusScheduler, so no
// Cell ranking survives from one round to the next: each round re-ranks every
// job from scratch, which is the literal Algorithm 1. The memoized scheduler
// must make bit-identical decisions (the memo_vs_fresh rows of
// tests/golden_outputs_test.cc); bench/ext_rounds measures what the memo saves
// per round.

#ifndef TESTS_FRESH_CRIUS_SCHEDULER_H_
#define TESTS_FRESH_CRIUS_SCHEDULER_H_

#include <string>

#include "src/sched/crius_sched.h"

namespace crius {

class FreshCriusScheduler : public Scheduler {
 public:
  FreshCriusScheduler(PerformanceOracle* oracle, CriusConfig config)
      : Scheduler(oracle), config_(config) {}

  std::string name() const override { return CriusScheduler(oracle_, config_).name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    return CriusScheduler(oracle_, config_).Schedule(round);
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    return CriusScheduler(oracle_, config_).ProfilingDelay(job, cluster);
  }

 private:
  CriusConfig config_;
};

}  // namespace crius

#endif  // TESTS_FRESH_CRIUS_SCHEDULER_H_
