// Full-recompute reference for CriusScheduler's ranking memo.
//
// FreshCriusScheduler hands every call to a newly built CriusScheduler, so no
// Cell ranking survives from one round to the next: each round re-ranks every
// job from scratch and builds its scaling-search class index anew, which is
// the literal Algorithm 1. The memoized scheduler must make bit-identical
// decisions (the memo_vs_fresh rows of tests/golden_outputs_test.cc and
// CriusMemoVsFreshTest in tests/crius_placement_golden_test.cc);
// bench/ext_rounds measures what the memo saves per round.

#ifndef TESTS_FRESH_CRIUS_SCHEDULER_H_
#define TESTS_FRESH_CRIUS_SCHEDULER_H_

#include <string>
#include <vector>

#include "src/fault/failure_injector.h"
#include "src/sched/crius_sched.h"
#include "src/util/units.h"

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

// The health script memo-vs-fresh comparisons run through: node 0 fails at
// 2 h (caps shrink: dirty re-ranks), node 1 straggles from 2.5 h to 3.5 h (the
// epoch moves with no cap change: keep-only rounds), and node 0 recovers at
// 4 h (caps grow): every branch of the memo's dirty path.
inline std::vector<FailureEvent> FailStraggleRecover() {
  return {FailureEvent{2.0 * kHour, FailureKind::kNodeFail, 0, 0, 1.0},
          FailureEvent{2.5 * kHour, FailureKind::kStragglerStart, 1, 0, 1.8},
          FailureEvent{3.5 * kHour, FailureKind::kStragglerEnd, 1, 0, 1.0},
          FailureEvent{4.0 * kHour, FailureKind::kNodeRecover, 0, 0, 1.0}};
}

}  // namespace crius

#endif  // TESTS_FRESH_CRIUS_SCHEDULER_H_
