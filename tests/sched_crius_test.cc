#include "src/sched/crius_sched.h"

#include <gtest/gtest.h>

#include "src/util/counters.h"
#include "src/util/threadpool.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

const ModelSpec kSmall{ModelFamily::kBert, 0.76, 128};
const ModelSpec kMedium{ModelFamily::kBert, 1.3, 128};

class CriusSchedTest : public SchedTestBase {
 protected:
  CriusSchedTest() : SchedTestBase(MakeSimulatedCluster()) {}

  CriusScheduler Make(CriusConfig config = CriusConfig{}) {
    return CriusScheduler(&oracle_, config);
  }
};

TEST_F(CriusSchedTest, Names) {
  EXPECT_EQ(Make().name(), "Crius");
  EXPECT_EQ(Make(CriusConfig{.adaptivity_scaling = false}).name(), "Crius-NA");
  EXPECT_EQ(Make(CriusConfig{.heterogeneity_scaling = false}).name(), "Crius-NH");
  EXPECT_EQ(Make(CriusConfig{.deadline_aware = true}).name(), "Crius-DDL");
}

TEST_F(CriusSchedTest, AssignmentsCarryCells) {
  CriusScheduler sched = Make();
  AddQueued(0, kMedium, 4, GpuType::kA100, 0.0);
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  CheckCapacity(d);
  ASSERT_TRUE(d.assignments.count(0));
  const Assignment& a = d.assignments.at(0);
  EXPECT_GT(a.nstages, 0);  // Crius schedules Cells, not bare shapes
  EXPECT_GT(a.ngpus, 0);
}

TEST_F(CriusSchedTest, UpscalesLoneJobWithFreeResources) {
  // With an empty 1,280-GPU cluster, the 2 x N_G Cell should win.
  CriusScheduler sched = Make();
  AddQueued(0, kSmall, 4, GpuType::kA100, 0.0);
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_GE(d.assignments.at(0).ngpus, 4);
}

TEST_F(CriusSchedTest, NaPinsGpuCount) {
  CriusScheduler sched = Make(CriusConfig{.adaptivity_scaling = false});
  AddQueued(0, kSmall, 4, GpuType::kA100, 0.0);
  AddQueued(1, kMedium, 8, GpuType::kA40, 1.0);
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  ASSERT_TRUE(d.assignments.count(1));
  EXPECT_EQ(d.assignments.at(0).ngpus, 4);
  EXPECT_EQ(d.assignments.at(1).ngpus, 8);
}

TEST_F(CriusSchedTest, NhPinsGpuType) {
  CriusScheduler sched = Make(CriusConfig{.heterogeneity_scaling = false});
  AddQueued(0, kSmall, 4, GpuType::kV100, 0.0);
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  EXPECT_EQ(d.assignments.at(0).type, GpuType::kV100);
}

TEST_F(CriusSchedTest, DownscalesRunningJobsToAdmitNewOne) {
  // Small testbed: one running job hogs the whole A40 pool; a new arrival
  // should trigger a scaling move that frees room.
  Cluster testbed = MakePhysicalTestbed();
  PerformanceOracle oracle(testbed, 42);
  CriusScheduler sched(&oracle, CriusConfig{});
  // Local states against the testbed.
  std::vector<std::unique_ptr<JobState>> states;
  auto add = [&](int64_t id, JobPhase phase, int ngpus, int nstages, double submit) {
    auto s = std::make_unique<JobState>();
    s->job.id = id;
    s->job.spec = kSmall;
    s->job.requested_gpus = 16;
    s->job.requested_type = GpuType::kA40;
    s->job.submit_time = submit;
    s->job.iterations = 1000;
    s->phase = phase;
    if (phase == JobPhase::kRunning) {
      s->gpu_type = GpuType::kA40;
      s->ngpus = ngpus;
      s->nstages = nstages;
      s->iter_time = 1.0;
    }
    states.push_back(std::move(s));
  };
  add(0, JobPhase::kRunning, 32, 1, 0.0);
  add(1, JobPhase::kQueued, 0, 0, 1.0);
  // A10 pool is full too, to force a scaling move rather than an exchange.
  auto a10 = std::make_unique<JobState>();
  a10->job.id = 2;
  a10->job.spec = kSmall;
  a10->job.requested_gpus = 32;
  a10->job.requested_type = GpuType::kA10;
  a10->job.iterations = 1000;
  a10->phase = JobPhase::kRunning;
  a10->gpu_type = GpuType::kA10;
  a10->ngpus = 32;
  a10->nstages = 1;
  a10->iter_time = 1.0;
  states.push_back(std::move(a10));

  std::vector<const JobState*> views;
  for (const auto& s : states) {
    views.push_back(s.get());
  }
  const ScheduleDecision d = sched.Schedule(RoundFor(10.0, views, testbed));
  // The queued job got in...
  ASSERT_TRUE(d.assignments.count(1));
  // ...which is only possible if some running job shrank or moved.
  int used_a40 = 0;
  int used_a10 = 0;
  for (const auto& [id, a] : d.assignments) {
    if (a.type == GpuType::kA40) {
      used_a40 += a.ngpus;
    } else {
      used_a10 += a.ngpus;
    }
  }
  EXPECT_LE(used_a40, 32);
  EXPECT_LE(used_a10, 32);
}

TEST_F(CriusSchedTest, ZeroSearchDepthDisablesScaling) {
  Cluster testbed = MakePhysicalTestbed();
  PerformanceOracle oracle(testbed, 42);
  CriusScheduler sched(&oracle, CriusConfig{.search_depth = 0});
  std::vector<std::unique_ptr<JobState>> states;
  for (int pool = 0; pool < 2; ++pool) {
    auto s = std::make_unique<JobState>();
    s->job.id = pool;
    s->job.spec = kSmall;
    s->job.requested_gpus = 16;
    s->job.requested_type = pool == 0 ? GpuType::kA40 : GpuType::kA10;
    s->job.iterations = 1000;
    s->phase = JobPhase::kRunning;
    s->gpu_type = s->job.requested_type;
    s->ngpus = 32;
    s->nstages = 1;
    s->iter_time = 1.0;
    states.push_back(std::move(s));
  }
  auto q = std::make_unique<JobState>();
  q->job.id = 9;
  q->job.spec = kSmall;
  q->job.requested_gpus = 8;
  q->job.requested_type = GpuType::kA40;
  q->job.iterations = 100;
  q->phase = JobPhase::kQueued;
  states.push_back(std::move(q));
  std::vector<const JobState*> views;
  for (const auto& s : states) {
    views.push_back(s.get());
  }
  const ScheduleDecision d = sched.Schedule(RoundFor(0.0, views, testbed));
  EXPECT_FALSE(d.assignments.count(9));  // no moves allowed, no room
}

TEST_F(CriusSchedTest, DeadlineAwareDropsImpossibleJobs) {
  CriusScheduler sched = Make(CriusConfig{.deadline_aware = true});
  JobState* hopeless = AddQueued(0, kSmall, 4, GpuType::kA100, 0.0, /*iterations=*/5000000);
  hopeless->job.deadline = 30.0;
  JobState* fine = AddQueued(1, kSmall, 4, GpuType::kA100, 0.0, /*iterations=*/50);
  fine->job.deadline = 30.0 * kDay;
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  EXPECT_EQ(d.dropped, std::vector<int64_t>{0});
  EXPECT_TRUE(d.assignments.count(1));
}

TEST_F(CriusSchedTest, OpportunisticJobsYieldToPendingLargeJob) {
  Cluster small;
  small.AddNodes(GpuType::kA100, 2, 4);  // 8 GPUs total
  PerformanceOracle oracle(small, 42);
  CriusScheduler sched(&oracle, CriusConfig{});

  std::vector<std::unique_ptr<JobState>> states;
  // Large job needs all 8 GPUs (requested 8, min cell 4); small jobs fill 2.
  auto big = std::make_unique<JobState>();
  big->job.id = 0;
  big->job.spec = ModelSpec{ModelFamily::kBert, 6.7, 128};
  big->job.requested_gpus = 8;
  big->job.requested_type = GpuType::kA100;
  big->job.iterations = 1000;
  big->job.submit_time = 0.0;
  big->phase = JobPhase::kQueued;
  states.push_back(std::move(big));
  for (int i = 1; i <= 2; ++i) {
    auto s = std::make_unique<JobState>();
    s->job.id = i;
    s->job.spec = kSmall;
    s->job.requested_gpus = 2;
    s->job.requested_type = GpuType::kA100;
    s->job.iterations = 1000;
    s->job.submit_time = static_cast<double>(i);
    s->phase = JobPhase::kQueued;
    states.push_back(std::move(s));
  }
  std::vector<const JobState*> views;
  for (const auto& s : states) {
    views.push_back(s.get());
  }
  const ScheduleDecision d = sched.Schedule(RoundFor(0.0, views, small));
  // Either the big job runs (possibly after preempting) or, if it fits only
  // pending, the later jobs that DID start are marked opportunistic.
  if (!d.assignments.count(0)) {
    for (const auto& [id, a] : d.assignments) {
      EXPECT_TRUE(a.opportunistic) << "job " << id;
    }
  } else {
    SUCCEED();
  }
}

TEST_F(CriusSchedTest, ProfilingDelayBounded) {
  CriusScheduler sched = Make();
  TrainingJob job;
  job.id = 0;
  job.spec = ModelSpec{ModelFamily::kMoe, 10.0, 256};
  job.requested_gpus = 16;
  job.requested_type = GpuType::kA100;
  const double delay = sched.ProfilingDelay(job, cluster_);
  EXPECT_GT(delay, 0.0);
  EXPECT_LE(delay, 1800.0);  // §8.2: never above 30 minutes
}

TEST_F(CriusSchedTest, KeepsRunningJobWhenNothingBetter) {
  CriusScheduler sched = Make();
  AddRunning(0, kMedium, 8, GpuType::kA100, /*nstages=*/1);
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  ASSERT_TRUE(d.assignments.count(0));
  // With an empty cluster it may upscale, but never below the current shape.
  EXPECT_GE(d.assignments.at(0).ngpus, 4);
}

TEST_F(CriusSchedTest, CapacityRespectedUnderPressure) {
  CriusScheduler sched = Make();
  for (int i = 0; i < 80; ++i) {
    AddQueued(i, kMedium, 16, GpuType::kA100, static_cast<double>(i));
  }
  const ScheduleDecision d = sched.Schedule(Round(0.0));
  CheckCapacity(d);
  EXPECT_GT(d.assignments.size(), 10u);
}

TEST_F(CriusSchedTest, Deterministic) {
  CriusScheduler a = Make();
  CriusScheduler b = Make();
  for (int i = 0; i < 10; ++i) {
    AddQueued(i, kMedium, 8, GpuType::kA40, static_cast<double>(i));
  }
  const ScheduleDecision da = a.Schedule(Round(0.0));
  const ScheduleDecision db = b.Schedule(Round(0.0));
  ASSERT_EQ(da.assignments.size(), db.assignments.size());
  for (const auto& [id, assign] : da.assignments) {
    ASSERT_TRUE(db.assignments.count(id));
    EXPECT_EQ(db.assignments.at(id).type, assign.type);
    EXPECT_EQ(db.assignments.at(id).ngpus, assign.ngpus);
    EXPECT_EQ(db.assignments.at(id).nstages, assign.nstages);
  }
}

TEST_F(CriusSchedTest, MultiMoveSearchFreesRoomAcrossVictims) {
  // Single-type 32-GPU cluster fully held by two BERT-6.7B jobs running at a
  // *suboptimal* Cell (A100x16/P1 -- single-stage is slow for them), so
  // downscaling each to its better A100x8/P2 Cell both frees 8 GPUs and
  // raises total estimated throughput. The incoming MoE-27B only fits on a
  // 16-GPU Cell (its 456-GB optimizer state needs >= 16 x 40-GiB A100s), so
  // placement needs BOTH victims to move: depth 1 fails, depth 2 succeeds.
  Cluster small;
  small.AddNodes(GpuType::kA100, 8, 4);
  PerformanceOracle oracle(small, 42);

  auto make_states = [&]() {
    std::vector<std::unique_ptr<JobState>> states;
    for (int i = 0; i < 2; ++i) {
      auto s = std::make_unique<JobState>();
      s->job.id = i;
      s->job.spec = ModelSpec{ModelFamily::kBert, 6.7, 128};
      s->job.requested_gpus = 16;
      s->job.requested_type = GpuType::kA100;
      s->job.iterations = 1000;
      s->phase = JobPhase::kRunning;
      s->gpu_type = GpuType::kA100;
      s->ngpus = 16;
      s->nstages = 1;
      s->iter_time = 10.0;
      states.push_back(std::move(s));
    }
    auto q = std::make_unique<JobState>();
    q->job.id = 9;
    q->job.spec = ModelSpec{ModelFamily::kMoe, 27.0, 256};
    q->job.requested_gpus = 16;
    q->job.requested_type = GpuType::kA100;
    q->job.iterations = 100;
    q->phase = JobPhase::kQueued;
    states.push_back(std::move(q));
    return states;
  };

  // Sanity for the scenario premise: MoE-27B has no Cell under 16 GPUs here.
  {
    TrainingJob probe;
    probe.spec = ModelSpec{ModelFamily::kMoe, 27.0, 256};
    probe.requested_gpus = 16;
    probe.requested_type = GpuType::kA100;
    for (const Cell& cell : GenerateCells(probe, small)) {
      if (cell.ngpus < 16) {
        EXPECT_LE(oracle.EstimatedThroughput(probe.spec, cell), 0.0)
            << cell.ToString() << " unexpectedly feasible";
      }
    }
  }

  for (int depth : {1, 2, 3}) {
    auto states = make_states();
    std::vector<const JobState*> views;
    for (const auto& s : states) {
      views.push_back(s.get());
    }
    CriusConfig config;
    config.search_depth = depth;
    CriusScheduler sched(&oracle, config);
    const ScheduleDecision d = sched.Schedule(RoundFor(0.0, views, small));
    CheckCapacityFor(small, d);
    if (depth == 1) {
      EXPECT_FALSE(d.assignments.count(9)) << "depth 1 cannot free 16 GPUs";
    } else {
      EXPECT_TRUE(d.assignments.count(9)) << "depth " << depth << " should place the job";
    }
  }
}

TEST_F(CriusSchedTest, PlacementOrdersAreValidAndDeterministic) {
  for (CriusPlacementOrder order :
       {CriusPlacementOrder::kFifo, CriusPlacementOrder::kScoreDensity,
        CriusPlacementOrder::kSmallestFirst, CriusPlacementOrder::kBestOfAll}) {
    states_.clear();
    for (int i = 0; i < 30; ++i) {
      AddQueued(i, (i % 2) ? kMedium : kSmall, (i % 3) ? 16 : 4, GpuType::kA100,
                static_cast<double>(i));
    }
    CriusConfig config;
    config.placement_order = order;
    CriusScheduler a(&oracle_, config);
    CriusScheduler b(&oracle_, config);
    const ScheduleDecision da = a.Schedule(Round(0.0));
    const ScheduleDecision db = b.Schedule(Round(0.0));
    CheckCapacity(da);
    ASSERT_EQ(da.assignments.size(), db.assignments.size());
    for (const auto& [id, assign] : da.assignments) {
      ASSERT_TRUE(db.assignments.count(id));
      EXPECT_EQ(db.assignments.at(id).ngpus, assign.ngpus);
    }
  }
}

namespace {
// Exact equality of two decisions, field by field.
void ExpectSameDecision(const ScheduleDecision& a, const ScheduleDecision& b) {
  EXPECT_EQ(a.dropped, b.dropped);
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (const auto& [id, assign] : a.assignments) {
    ASSERT_TRUE(b.assignments.count(id)) << "job " << id;
    const Assignment& other = b.assignments.at(id);
    EXPECT_EQ(other.type, assign.type) << "job " << id;
    EXPECT_EQ(other.ngpus, assign.ngpus) << "job " << id;
    EXPECT_EQ(other.nstages, assign.nstages) << "job " << id;
    EXPECT_EQ(other.opportunistic, assign.opportunistic) << "job " << id;
  }
}
}  // namespace

TEST_F(CriusSchedTest, FailedScalingSearchLeavesNoSideEffects) {
  // The MultiMoveSearch scenario at depth 1: the search makes one speculative
  // downscale move, cannot place the 16-GPU-minimum MoE-27B, and must roll
  // back. If the rollback restores victim cells and scores exactly, the
  // decision is indistinguishable from never having searched (depth 0).
  Cluster small;
  small.AddNodes(GpuType::kA100, 8, 4);
  PerformanceOracle oracle(small, 42);

  auto decide = [&](int depth) {
    std::vector<std::unique_ptr<JobState>> states;
    for (int i = 0; i < 2; ++i) {
      auto s = std::make_unique<JobState>();
      s->job.id = i;
      s->job.spec = ModelSpec{ModelFamily::kBert, 6.7, 128};
      s->job.requested_gpus = 16;
      s->job.requested_type = GpuType::kA100;
      s->job.iterations = 1000;
      s->phase = JobPhase::kRunning;
      s->gpu_type = GpuType::kA100;
      s->ngpus = 16;
      s->nstages = 1;
      s->iter_time = 10.0;
      states.push_back(std::move(s));
    }
    auto q = std::make_unique<JobState>();
    q->job.id = 9;
    q->job.spec = ModelSpec{ModelFamily::kMoe, 27.0, 256};
    q->job.requested_gpus = 16;
    q->job.requested_type = GpuType::kA100;
    q->job.iterations = 100;
    q->phase = JobPhase::kQueued;
    states.push_back(std::move(q));
    std::vector<const JobState*> views;
    for (const auto& s : states) {
      views.push_back(s.get());
    }
    CriusConfig config;
    config.search_depth = depth;
    CriusScheduler sched(&oracle, config);
    return sched.Schedule(RoundFor(0.0, views, small));
  };

  const ScheduleDecision with_failed_search = decide(1);
  const ScheduleDecision no_search = decide(0);
  EXPECT_FALSE(with_failed_search.assignments.count(9));
  ExpectSameDecision(with_failed_search, no_search);
}

TEST_F(CriusSchedTest, RepeatedScheduleIsIdempotent) {
  // Same scheduler, identical inputs: the second round runs entirely from the
  // warm Cell cache and must reproduce the first decision exactly.
  CriusScheduler sched = Make(CriusConfig{.placement_order = CriusPlacementOrder::kBestOfAll});
  for (int i = 0; i < 20; ++i) {
    AddQueued(i, (i % 2) ? kMedium : kSmall, (i % 3) ? 16 : 4, GpuType::kA100,
              static_cast<double>(i));
  }
  const ScheduleDecision first = sched.Schedule(Round(0.0));
  const ScheduleDecision second = sched.Schedule(Round(0.0));
  ExpectSameDecision(first, second);
}

TEST_F(CriusSchedTest, BestOfAllIdenticalAcrossThreadCounts) {
  // kBestOfAll fans the three placement passes out over the global pool; the
  // chosen decision must be bit-identical to the sequential build.
  for (int i = 0; i < 30; ++i) {
    AddQueued(i, (i % 2) ? kMedium : kSmall, (i % 3) ? 16 : 4, GpuType::kA100,
              static_cast<double>(i));
  }
  CriusConfig config;
  config.placement_order = CriusPlacementOrder::kBestOfAll;

  ThreadPool::SetGlobalThreads(1);
  CriusScheduler sequential(&oracle_, config);
  const ScheduleDecision d1 = sequential.Schedule(Round(0.0));

  ThreadPool::SetGlobalThreads(4);
  CriusScheduler parallel(&oracle_, config);
  const ScheduleDecision d4 = parallel.Schedule(Round(0.0));
  ThreadPool::SetGlobalThreads(1);

  ExpectSameDecision(d1, d4);
}

TEST_F(CriusSchedTest, ClusterHealthChangeInvalidatesCellCache) {
  // A scheduler that lived through a failure + recovery must re-rank from the
  // recovered capacity -- deciding exactly like a scheduler that never saw the
  // degraded cluster. A stale cells_cache_ (built when only 8 GPUs were
  // usable) would lack the larger candidates and diverge.
  Cluster c;
  c.AddNodes(GpuType::kA100, 4, 4);  // 16 GPUs
  PerformanceOracle oracle(c, 42);
  CriusScheduler survivor(&oracle, CriusConfig{});

  auto s = std::make_unique<JobState>();
  s->job.id = 0;
  s->job.spec = kSmall;
  s->job.requested_gpus = 8;
  s->job.requested_type = GpuType::kA100;
  s->job.iterations = 1000;
  s->phase = JobPhase::kQueued;
  std::vector<const JobState*> views = {s.get()};

  c.MarkFailed(2, 0);
  c.MarkFailed(3, 0);  // 8 usable
  const ScheduleDecision degraded = survivor.Schedule(RoundFor(0.0, views, c));
  ASSERT_TRUE(degraded.assignments.count(0));
  EXPECT_LE(degraded.assignments.at(0).ngpus, 8) << "placed beyond usable capacity";

  c.MarkRecovered(2, 0);
  c.MarkRecovered(3, 0);
  const int64_t invalidations_before =
      CounterRegistry::Global().CounterValue("sched.cells_cache_invalidations");
  const ScheduleDecision after_recovery = survivor.Schedule(RoundFor(300.0, views, c));
  EXPECT_EQ(CounterRegistry::Global().CounterValue("sched.cells_cache_invalidations"),
            invalidations_before + 1);

  CriusScheduler fresh(&oracle, CriusConfig{});
  const ScheduleDecision fresh_decision = fresh.Schedule(RoundFor(300.0, views, c));
  ExpectSameDecision(after_recovery, fresh_decision);
  // And the re-ranking actually uses the recovered capacity.
  ASSERT_TRUE(after_recovery.assignments.count(0));
  EXPECT_GE(after_recovery.assignments.at(0).ngpus, degraded.assignments.at(0).ngpus);
}

TEST_F(CriusSchedTest, CompletedJobsEvictedFromCellCache) {
  CriusScheduler sched = Make();
  for (int i = 0; i < 4; ++i) {
    AddQueued(i, kSmall, 4, GpuType::kA100, static_cast<double>(i));
  }
  sched.Schedule(Round(0.0));

  // Jobs 0 and 1 complete: their cache entries must go on the next round.
  states_.erase(states_.begin(), states_.begin() + 2);
  const int64_t evictions_before =
      CounterRegistry::Global().CounterValue("sched.cells_cache_evictions");
  sched.Schedule(Round(300.0));
  EXPECT_EQ(CounterRegistry::Global().CounterValue("sched.cells_cache_evictions"),
            evictions_before + 2);
}

TEST_F(CriusSchedTest, SameSizeJobSwapEvictsInSameRound) {
  // An eventless round whose job set keeps its size but swaps a job must not
  // take the steady fast path: the newcomer is ranked and the departed job's
  // entry is evicted in that same round.
  CriusScheduler sched = Make();
  for (int i = 0; i < 4; ++i) {
    AddQueued(i, kSmall, 4, GpuType::kA100, static_cast<double>(i));
  }
  sched.Schedule(Round(0.0));

  // Job 0 leaves and job 4 takes its place: still four jobs.
  AddQueued(4, kMedium, 16, GpuType::kA100, 4.0);
  states_.front() = std::move(states_.back());
  states_.pop_back();
  const int64_t evictions_before =
      CounterRegistry::Global().CounterValue("sched.cells_cache_evictions");
  const int64_t steady_before =
      CounterRegistry::Global().CounterValue("sched.cells_steady_rounds");
  const ScheduleDecision swapped = sched.Schedule(Round(300.0));
  EXPECT_EQ(CounterRegistry::Global().CounterValue("sched.cells_cache_evictions"),
            evictions_before + 1);
  EXPECT_EQ(CounterRegistry::Global().CounterValue("sched.cells_steady_rounds"), steady_before);

  CriusScheduler fresh = Make();
  ExpectSameDecision(swapped, fresh.Schedule(Round(300.0)));
  ASSERT_TRUE(swapped.assignments.count(4));
}

int64_t Counter(const char* name) { return CounterRegistry::Global().CounterValue(name); }

// Ranking-memo scenario: two queued jobs on a 16-GPU A100 pool. Job 0's
// candidate sizes {1, 2, 4} stay under the pool's cap even with half of it
// failed; job 1's {4, 8, 16} reach the full pool, so losing 8 GPUs changes
// its candidate set.
class CellMemoTest : public ::testing::Test {
 protected:
  CellMemoTest() : cluster_(MakePool()), oracle_(cluster_, 42) {
    const int requested_gpus[] = {2, 8};
    for (int64_t id = 0; id < 2; ++id) {
      auto s = std::make_unique<JobState>();
      s->job.id = id;
      s->job.spec = kSmall;
      s->job.requested_gpus = requested_gpus[id];
      s->job.requested_type = GpuType::kA100;
      s->job.iterations = 1000;
      s->phase = JobPhase::kQueued;
      views_.push_back(s.get());
      states_.push_back(std::move(s));
    }
  }

  static Cluster MakePool() {
    Cluster c;
    c.AddNodes(GpuType::kA100, 4, 4);
    return c;
  }

  RoundContext Round(double now, const Cluster& cluster, std::vector<RoundEvent> events = {},
                     std::vector<const JobState*> jobs = {}) const {
    return RoundContext(now, jobs.empty() ? views_ : std::move(jobs), cluster,
                        std::move(events));
  }

  // Decision of a scheduler that has never seen an earlier round.
  ScheduleDecision Fresh(const RoundContext& round) {
    return CriusScheduler(&oracle_, CriusConfig{}).Schedule(round);
  }

  Cluster cluster_;
  PerformanceOracle oracle_;
  std::vector<std::unique_ptr<JobState>> states_;
  std::vector<const JobState*> views_;
};

TEST_F(CellMemoTest, UnchangedRoundTakesSteadyPath) {
  CriusScheduler sched(&oracle_, CriusConfig{});
  const ScheduleDecision first = sched.Schedule(Round(0.0, cluster_));

  const int64_t steady = Counter("sched.cells_steady_rounds");
  const int64_t full = Counter("sched.cells_full_reranks");
  const int64_t considered = Counter("sched.cells_considered");
  const ScheduleDecision second = sched.Schedule(Round(300.0, cluster_));
  EXPECT_EQ(Counter("sched.cells_steady_rounds"), steady + 1);
  EXPECT_EQ(Counter("sched.cells_full_reranks"), full);
  EXPECT_EQ(Counter("sched.cells_considered"), considered) << "a steady round re-ranked";
  ExpectSameDecision(second, Fresh(Round(300.0, cluster_)));
}

TEST_F(CellMemoTest, ReorderedJobsReuseEntriesWithoutRerank) {
  // Same ids in a different order: the snapshot no longer lines up with the
  // round, so maintenance runs, but every entry is still current.
  CriusScheduler sched(&oracle_, CriusConfig{});
  sched.Schedule(Round(0.0, cluster_));

  const std::vector<const JobState*> reversed(views_.rbegin(), views_.rend());
  const int64_t steady = Counter("sched.cells_steady_rounds");
  const int64_t evictions = Counter("sched.cells_cache_evictions");
  const int64_t considered = Counter("sched.cells_considered");
  const ScheduleDecision reordered = sched.Schedule(Round(300.0, cluster_, {}, reversed));
  EXPECT_EQ(Counter("sched.cells_steady_rounds"), steady);
  EXPECT_EQ(Counter("sched.cells_cache_evictions"), evictions);
  EXPECT_EQ(Counter("sched.cells_considered"), considered) << "a current entry was re-ranked";
  ExpectSameDecision(reordered, Fresh(Round(300.0, cluster_, {}, reversed)));
}

TEST_F(CellMemoTest, SlowdownEpochKeepsEveryEntry) {
  // A straggler moves the health epoch but no capacity cap, so both entries
  // are restamped rather than re-ranked.
  CriusScheduler sched(&oracle_, CriusConfig{});
  sched.Schedule(Round(0.0, cluster_));

  cluster_.SetNodeSlowdown(0, 2.0);
  const std::vector<RoundEvent> events = {RoundEvent::SlowdownChange(0, GpuType::kA100, 2.0)};
  const int64_t kept = Counter("sched.cells_kept_incremental");
  const int64_t dirty = Counter("sched.cells_dirty_reranks");
  const int64_t full = Counter("sched.cells_full_reranks");
  const int64_t considered = Counter("sched.cells_considered");
  const ScheduleDecision slowed = sched.Schedule(Round(300.0, cluster_, events));
  EXPECT_EQ(Counter("sched.cells_kept_incremental"), kept + 2);
  EXPECT_EQ(Counter("sched.cells_dirty_reranks"), dirty);
  EXPECT_EQ(Counter("sched.cells_full_reranks"), full);
  EXPECT_EQ(Counter("sched.cells_considered"), considered);
  ExpectSameDecision(slowed, Fresh(Round(300.0, cluster_, events)));
}

TEST_F(CellMemoTest, CapacityDropReranksOnlyDirtyEntries) {
  // Failing two of the four nodes drops the A100 cap from 16 to 8: only job
  // 1's candidate set changes, so only its entry is erased and re-ranked.
  CriusScheduler sched(&oracle_, CriusConfig{});
  sched.Schedule(Round(0.0, cluster_));

  ASSERT_EQ(cluster_.MarkFailed(2, 0), 4);
  ASSERT_EQ(cluster_.MarkFailed(3, 0), 4);
  const std::vector<RoundEvent> events = {RoundEvent::NodeFail(2, GpuType::kA100),
                                          RoundEvent::NodeFail(3, GpuType::kA100)};
  const int64_t kept = Counter("sched.cells_kept_incremental");
  const int64_t dirty = Counter("sched.cells_dirty_reranks");
  const int64_t full = Counter("sched.cells_full_reranks");
  const int64_t invalidations = Counter("sched.cells_cache_invalidations");
  const ScheduleDecision degraded = sched.Schedule(Round(300.0, cluster_, events));
  EXPECT_EQ(Counter("sched.cells_kept_incremental"), kept + 1);
  EXPECT_EQ(Counter("sched.cells_dirty_reranks"), dirty + 1);
  EXPECT_EQ(Counter("sched.cells_full_reranks"), full);
  EXPECT_EQ(Counter("sched.cells_cache_invalidations"), invalidations);
  ExpectSameDecision(degraded, Fresh(Round(300.0, cluster_, events)));
  ASSERT_TRUE(degraded.assignments.count(1));
  EXPECT_LE(degraded.assignments.at(1).ngpus, 8) << "placed beyond usable capacity";
}

TEST_F(CellMemoTest, DifferentClusterObjectForcesFullRerank) {
  // A copy has the same shape and health epoch but a new identity: rankings
  // kept from the original must not be trusted for it.
  CriusScheduler sched(&oracle_, CriusConfig{});
  sched.Schedule(Round(0.0, cluster_));

  const Cluster other = cluster_;
  ASSERT_EQ(other.health_epoch(), cluster_.health_epoch());
  ASSERT_NE(other.identity(), cluster_.identity());
  const int64_t full = Counter("sched.cells_full_reranks");
  const int64_t invalidations = Counter("sched.cells_cache_invalidations");
  const int64_t steady = Counter("sched.cells_steady_rounds");
  const ScheduleDecision moved = sched.Schedule(Round(300.0, other));
  EXPECT_EQ(Counter("sched.cells_full_reranks"), full + 1);
  EXPECT_EQ(Counter("sched.cells_cache_invalidations"), invalidations + 1);
  EXPECT_EQ(Counter("sched.cells_steady_rounds"), steady);
  ExpectSameDecision(moved, Fresh(Round(300.0, other)));
}

TEST_F(CriusSchedTest, AblationPruningReducesProfilingDelay) {
  // Crius-NA/NH never rank the pruned Cells, so they must not be charged the
  // GPU-seconds to profile them either.
  TrainingJob job;
  job.id = 0;
  job.spec = kMedium;
  job.requested_gpus = 8;
  job.requested_type = GpuType::kA100;
  const double full = Make().ProfilingDelay(job, cluster_);
  const double na = Make(CriusConfig{.adaptivity_scaling = false}).ProfilingDelay(job, cluster_);
  const double nh =
      Make(CriusConfig{.heterogeneity_scaling = false}).ProfilingDelay(job, cluster_);
  ASSERT_LT(full, 1800.0) << "cap would mask the comparison";
  EXPECT_GT(na, 0.0);
  EXPECT_GT(nh, 0.0);
  EXPECT_LT(na, full) << "Crius-NA still pays for pruned sizes";
  // NH profiles exactly one GPU type; pruning the others can only help (LE:
  // the requested type may already dominate the per-type sum).
  EXPECT_LE(nh, full);
}

TEST_F(CriusSchedTest, SmallestFirstPlacesSmallJobsUnderPressure) {
  // One giant request ahead of many small ones on a full-contention pool:
  // smallest-first admits the small jobs that FIFO offers last.
  Cluster testbed = MakePhysicalTestbed();
  PerformanceOracle oracle(testbed, 42);
  std::vector<std::unique_ptr<JobState>> states;
  for (int i = 0; i < 12; ++i) {
    auto s = std::make_unique<JobState>();
    s->job.id = i;
    s->job.spec = kSmall;
    s->job.requested_gpus = i == 0 ? 16 : 2;
    s->job.requested_type = GpuType::kA40;
    s->job.submit_time = static_cast<double>(i);
    s->job.iterations = 100;
    s->phase = JobPhase::kQueued;
    states.push_back(std::move(s));
  }
  std::vector<const JobState*> views;
  for (const auto& s : states) {
    views.push_back(s.get());
  }
  CriusConfig config;
  config.placement_order = CriusPlacementOrder::kSmallestFirst;
  CriusScheduler sched(&oracle, config);
  const ScheduleDecision d = sched.Schedule(RoundFor(0.0, views, testbed));
  CheckCapacityFor(testbed, d);
  int small_placed = 0;
  for (int i = 1; i < 12; ++i) {
    small_placed += d.assignments.count(i);
  }
  EXPECT_EQ(small_placed, 11);
}

}  // namespace
}  // namespace crius
