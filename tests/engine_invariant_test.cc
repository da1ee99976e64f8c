// Property test for SimEngine's live-job bookkeeping.
//
// Drives the engine the way the serve Controller does: at a virtual clock
// that only moves forward, seeded random submissions (TryAddJob), owner
// cancels, node and GPU failures and recoveries are injected at the current
// time, then AdvanceTo(now) catches the engine up; the session ends with
// Drain(). After every AdvanceTo and after the drain the test checks, for
// every scheduler name:
//  - RunningJobs() + QueuedJobs() == LiveJobs();
//  - both counts equal a brute-force count over FindJob of every submitted id;
//  - per GPU type, free + allocated + failed == total, where allocated is
//    the sum of the running jobs' ngpus on that type, and no node holds a
//    negative count.
//
// A failure message names the (seed, iteration) it happened at; the command
// sequence is a pure function of the seed, so rerunning the case reproduces
// it.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/hw/cluster.h"
#include "src/sched/factory.h"
#include "src/sim/engine.h"
#include "src/util/rng.h"

namespace crius {
namespace {

constexpr const char* kSchedulers[] = {
    "crius", "crius-na", "crius-nh", "crius-fair",  "crius-solver",       "fcfs",
    "gandiva", "gavel",  "tiresias", "elasticflow", "elasticflow-strict",
};
constexpr uint64_t kSeeds[] = {1, 2, 3};
constexpr int kIterations = 120;

const ModelSpec kModels[] = {
    {ModelFamily::kBert, 0.76, 256},
    {ModelFamily::kBert, 1.3, 128},
    {ModelFamily::kWideResNet, 1.0, 256},
    {ModelFamily::kMoe, 1.3, 512},
};

// Checks the bookkeeping invariants through the engine's public accessors.
void CheckInvariants(const SimEngine& engine, const std::vector<int64_t>& submitted) {
  const int running = engine.RunningJobs();
  const int queued = engine.QueuedJobs();
  EXPECT_EQ(running + queued, engine.LiveJobs());

  int brute_running = 0;
  int brute_queued = 0;
  std::array<int, kNumGpuTypes> job_gpus{};
  for (int64_t id : submitted) {
    const JobState* state = engine.FindJob(id);
    ASSERT_NE(state, nullptr) << "submitted job " << id << " unknown to the engine";
    if (state->phase == JobPhase::kRunning) {
      ++brute_running;
      job_gpus[static_cast<int>(state->gpu_type)] += state->ngpus;
    } else if (state->phase == JobPhase::kQueued) {
      ++brute_queued;
    }
  }
  EXPECT_EQ(running, brute_running);
  EXPECT_EQ(queued, brute_queued);

  std::array<int, kNumGpuTypes> total{};
  std::array<int, kNumGpuTypes> free{};
  std::array<int, kNumGpuTypes> failed{};
  for (const NodeInfo& node : engine.cluster().nodes()) {
    EXPECT_GE(node.free_gpus, 0) << "node " << node.id;
    EXPECT_GE(node.failed_gpus, 0) << "node " << node.id;
    EXPECT_LE(node.free_gpus + node.failed_gpus, node.total_gpus) << "node " << node.id;
    const int t = static_cast<int>(node.type);
    total[t] += node.total_gpus;
    free[t] += node.free_gpus;
    failed[t] += node.failed_gpus;
  }
  for (int t = 0; t < kNumGpuTypes; ++t) {
    EXPECT_EQ(free[t] + job_gpus[t] + failed[t], total[t])
        << GpuName(static_cast<GpuType>(t)) << ": free " << free[t] << " allocated "
        << job_gpus[t] << " failed " << failed[t];
    EXPECT_EQ(total[t], engine.cluster().TotalGpus(static_cast<GpuType>(t)));
  }
}

struct SessionStats {
  int accepted = 0;
  int cancels = 0;
  int failures = 0;
  int max_running = 0;
};

SessionStats RunSession(const std::string& scheduler_name, uint64_t seed) {
  Cluster cluster = MakeNamedCluster("testbed");
  PerformanceOracle oracle(cluster, seed);
  auto scheduler = MakeNamedScheduler(scheduler_name, &oracle);
  SimConfig config;
  config.checkpoint.interval = 1800.0;
  SimEngine engine(cluster, config, *scheduler, oracle);

  Rng rng(seed, "engine_invariant");
  std::vector<int64_t> submitted;
  std::vector<FailureEvent> failed;  // injected failures not yet recovered
  SessionStats stats;
  double now = 0.0;
  int64_t next_id = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    SCOPED_TRACE("seed " + std::to_string(seed) + ", iteration " + std::to_string(iteration));
    const int commands = static_cast<int>(rng.UniformInt(0, 4));
    for (int c = 0; c < commands; ++c) {
      const double roll = rng.Uniform();
      if (roll < 0.6) {
        TrainingJob job;
        job.id = next_id++;
        job.spec = kModels[rng.UniformInt(0, std::size(kModels) - 1)];
        job.submit_time = now;
        job.iterations = rng.UniformInt(20, 3000);
        job.requested_gpus = 1 << rng.UniformInt(0, 3);
        job.requested_type = rng.Uniform() < 0.5 ? GpuType::kA40 : GpuType::kA10;
        // Only shapes that launch as requested: a strict-FIFO head that can
        // never start would stall the whole session.
        if (!oracle.BestAdaptive(job.spec, job.requested_type, job.requested_gpus)) {
          continue;
        }
        if (engine.TryAddJob(job)) {
          submitted.push_back(job.id);
          ++stats.accepted;
        }
      } else if (roll < 0.75) {
        // Mostly known ids (any phase), sometimes one never submitted.
        const int64_t id = rng.UniformInt(0, next_id + 2);
        engine.InjectCancel(now, id);
        ++stats.cancels;
      } else {
        // Recover a failed node half the time, so failures do not pile up
        // until nothing can run.
        FailureEvent e;
        e.time = now;
        if (!failed.empty() && rng.Uniform() < 0.5) {
          const size_t pick = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(failed.size()) - 1));
          e = failed[pick];
          e.time = now;
          e.kind = e.kind == FailureKind::kNodeFail ? FailureKind::kNodeRecover
                                                     : FailureKind::kGpuRecover;
          failed.erase(failed.begin() + static_cast<ptrdiff_t>(pick));
        } else {
          e.node_id = static_cast<int>(
              rng.UniformInt(0, static_cast<int64_t>(cluster.nodes().size()) - 1));
          e.kind = rng.Uniform() < 0.6 ? FailureKind::kNodeFail : FailureKind::kGpuFail;
          e.gpus = e.kind == FailureKind::kGpuFail ? 1 : 0;
          failed.push_back(e);
        }
        engine.InjectFailure(e);
        ++stats.failures;
      }
    }
    now += rng.Uniform(0.0, 900.0);
    engine.AdvanceTo(now);
    CheckInvariants(engine, submitted);
    stats.max_running = std::max(stats.max_running, engine.RunningJobs());
    if (::testing::Test::HasFailure()) {
      return stats;
    }
  }
  SCOPED_TRACE("seed " + std::to_string(seed) + ", after Drain");
  engine.Drain();
  CheckInvariants(engine, submitted);
  return stats;
}

class EngineInvariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineInvariantTest, LiveCountsAndGpuLedgerHoldUnderRandomCommands) {
  for (uint64_t seed : kSeeds) {
    const SessionStats stats = RunSession(GetParam(), seed);
    if (HasFailure()) {
      return;
    }
    // The session must actually exercise the engine.
    EXPECT_GT(stats.accepted, 50) << "seed " << seed;
    EXPECT_GT(stats.cancels, 0) << "seed " << seed;
    EXPECT_GT(stats.failures, 0) << "seed " << seed;
    EXPECT_GT(stats.max_running, 1) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, EngineInvariantTest, ::testing::ValuesIn(kSchedulers),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             ch = ch == '-' ? '_' : ch;
                           }
                           return name;
                         });

}  // namespace
}  // namespace crius
