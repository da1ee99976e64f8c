// Seeded property test for CriusScheduler's ranking memo
// (CriusScheduler::SyncCellsCache).
//
// Random 10-20-round sequences drive one CriusScheduler, whose memo and class
// index live across the rounds, and FreshCriusScheduler
// (tests/fresh_crius_scheduler.h), which starts both from scratch every
// round. Between rounds the job list changes the ways the engine changes it:
// the previous decision takes effect, jobs arrive at any position of the
// order, depart, are dropped or preempted, and node failures, recoveries and
// stragglers move the health epoch, reported by their events or not. Some
// rounds pass no events at all while they reorder the jobs or swap one for
// another of the same size. After every round the two schedulers must
// resolve to the same target. Every case is reproducible from
// (seed, iteration), printed on failure.
//
// The death test checks that a round listing one job id twice aborts,
// whether the id is a kept job's or an arrival's.
//
// CriusRankingStoreTest covers the ranking store the memo points into (one
// ranking per model config, requested shape and candidate-size set): one
// long-lived scheduler per configuration, whose store outlives every
// sequence, must match FreshCriusScheduler's profiling delay for every job
// and its resolved target after every round, over jobs drawn from all model
// configs while node failures and recoveries move the candidate-size caps.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/model/models.h"
#include "src/sched/crius_sched.h"
#include "src/util/counters.h"
#include "src/util/rng.h"
#include "tests/fresh_crius_scheduler.h"
#include "tests/sched_test_util.h"

namespace crius {
namespace {

constexpr uint64_t kSeed = 20261019;
constexpr int kIterations = 300;

const ModelSpec kSpecs[] = {{ModelFamily::kBert, 0.76, 128},
                            {ModelFamily::kBert, 1.3, 128},
                            {ModelFamily::kWideResNet, 1.0, 256}};
constexpr int kSizes[] = {1, 2, 4, 8};
constexpr GpuType kTypes[] = {GpuType::kA100, GpuType::kA40, GpuType::kV100};

// 36 GPUs over eight nodes: small enough that queued jobs often find no free
// fit and the scaling search runs, and a node failure moves a type's
// candidate-size cap.
Cluster MakeMemoCluster() {
  Cluster c;
  c.AddNodes(GpuType::kA100, 4, 4);
  c.AddNodes(GpuType::kA40, 2, 2);
  c.AddNodes(GpuType::kV100, 2, 8);
  return c;
}

// Crius, its solver, NA and NH, and deadline-aware (EDF order, admission
// drops and deadline-filtered victims).
CriusConfig ConfigFor(int64_t pick) {
  switch (pick) {
    case 0:
      return CriusConfig{};
    case 1:
      return CriusConfig{.placement_order = CriusPlacementOrder::kBestOfAll};
    case 2:
      return CriusConfig{.adaptivity_scaling = false};
    case 3:
      return CriusConfig{.heterogeneity_scaling = false};
    default:
      return CriusConfig{.deadline_aware = true};
  }
}

// One random sequence: the jobs a round shows, in their order, and the
// cluster's health, both mutated between rounds. Arrivals draw their model
// from `specs` and their requested size from `sizes`; job ids start at
// `first_id`.
class Sequence {
 public:
  Sequence(Cluster& cluster, Rng& rng, bool deadlines, std::span<const ModelSpec> specs = kSpecs,
           std::span<const int> sizes = kSizes, int64_t first_id = 0)
      : cluster_(cluster),
        rng_(rng),
        deadlines_(deadlines),
        specs_(specs),
        sizes_(sizes),
        next_id_(first_id) {}

  ~Sequence() {
    // Hand the shared cluster to the next sequence healthy.
    for (size_t node = 0; node < cluster_.nodes().size(); ++node) {
      cluster_.MarkRecovered(static_cast<int>(node), 0);
      cluster_.SetNodeSlowdown(static_cast<int>(node), 1.0);
    }
  }

  std::vector<const JobState*> Jobs() const { return {jobs_.begin(), jobs_.end()}; }
  std::vector<RoundEvent> TakeEvents() { return std::exchange(events_, {}); }
  // The id the next arrival takes.
  int64_t next_id() const { return next_id_; }

  // A new job with a fresh id at a random position of the order.
  void Arrive(double now, int requested_gpus = 0, size_t at = SIZE_MAX) {
    auto state = std::make_unique<JobState>();
    state->job.id = next_id_++;
    state->job.spec = specs_[static_cast<size_t>(rng_.UniformInt(0, specs_.size() - 1))];
    state->job.requested_gpus =
        requested_gpus > 0 ? requested_gpus
                           : sizes_[static_cast<size_t>(rng_.UniformInt(0, sizes_.size() - 1))];
    state->job.requested_type = kTypes[rng_.UniformInt(0, std::size(kTypes) - 1)];
    state->job.submit_time = now;
    state->job.iterations = rng_.UniformInt(500, 20000);
    if (deadlines_ && rng_.Uniform() < 0.5) {
      state->job.deadline = now + rng_.Uniform(600.0, 48.0 * 3600.0);
    }
    if (at == SIZE_MAX) {
      at = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(jobs_.size())));
    }
    jobs_.insert(jobs_.begin() + static_cast<std::ptrdiff_t>(at), state.get());
    events_.push_back(RoundEvent::JobArrival(state->job.id));
    owned_.push_back(std::move(state));
  }

  // Applies a resolved decision the way the engine would: placed jobs run on
  // their grant, the rest queue, dropped jobs leave.
  void Apply(const Resolved& resolved) {
    for (const int64_t id : resolved.decision.dropped) {
      Remove(Find(id), RoundEvent::JobDrop(id));
    }
    for (JobState* js : jobs_) {
      const auto it = resolved.target.find(js->job.id);
      const JobPhase phase = it == resolved.target.end() ? JobPhase::kQueued : JobPhase::kRunning;
      if (phase != js->phase) {
        events_.push_back(RoundEvent::JobPhaseChange(js->job.id));
      }
      js->phase = phase;
      js->ngpus = 0;
      js->nstages = 0;
      js->opportunistic = false;
      if (phase == JobPhase::kRunning) {
        js->gpu_type = it->second.type;
        js->ngpus = it->second.ngpus;
        js->nstages = it->second.nstages;
        js->opportunistic = it->second.opportunistic;
        js->iter_time = 1.0;
      }
    }
  }

  // One random change between rounds.
  void Mutate(double now) {
    switch (rng_.UniformInt(0, 8)) {
      case 0:
      case 1:
        if (jobs_.size() < 24) {
          Arrive(now);
        }
        break;
      case 2:  // completion
        if (jobs_.size() > 2) {
          const size_t at = RandomJob();
          Remove(at, RoundEvent::JobDeparture(jobs_[at]->job.id));
        }
        break;
      case 3:  // admission drop
        if (jobs_.size() > 2) {
          const size_t at = RandomJob();
          Remove(at, RoundEvent::JobDrop(jobs_[at]->job.id));
        }
        break;
      case 4:  // preemption
        for (JobState* js : jobs_) {
          if (js->phase == JobPhase::kRunning && rng_.Uniform() < 0.5) {
            Requeue(js);
            break;
          }
        }
        break;
      case 5:
        FailOrRecover();
        break;
      case 6: {  // straggler starts or ends
        const int node = RandomNode();
        const double factor = rng_.Uniform() < 0.5 ? 1.0 : rng_.Uniform(1.2, 2.0);
        cluster_.SetNodeSlowdown(node, factor);
        events_.push_back(RoundEvent::SlowdownChange(node, cluster_.nodes()[node].type, factor));
        break;
      }
      case 7:  // eventless reorder
        for (size_t i = jobs_.size(); i > 1; --i) {
          std::swap(jobs_[i - 1], jobs_[static_cast<size_t>(rng_.UniformInt(0, i - 1))]);
        }
        break;
      default: {  // eventless same-size swap: one job leaves, another takes its slot
        if (jobs_.empty()) {
          break;
        }
        const size_t at = RandomJob();
        const int requested = jobs_[at]->job.requested_gpus;
        jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(at));
        Arrive(now, requested, at);
        events_.pop_back();
        break;
      }
    }
  }

 private:
  size_t RandomJob() {
    return static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(jobs_.size()) - 1));
  }
  int RandomNode() {
    return static_cast<int>(rng_.UniformInt(0, static_cast<int64_t>(cluster_.nodes().size()) - 1));
  }
  size_t Find(int64_t id) const {
    const auto it = std::find_if(jobs_.begin(), jobs_.end(),
                                 [id](const JobState* js) { return js->job.id == id; });
    return static_cast<size_t>(it - jobs_.begin());
  }
  void Remove(size_t at, RoundEvent event) {
    jobs_.erase(jobs_.begin() + static_cast<std::ptrdiff_t>(at));
    events_.push_back(event);
  }
  void Requeue(JobState* js) {
    js->phase = JobPhase::kQueued;
    js->ngpus = 0;
    js->nstages = 0;
    js->opportunistic = false;
    events_.push_back(RoundEvent::JobPhaseChange(js->job.id));
  }

  // Fails a node (its type's running jobs are killed back to the queue, as
  // the engine kills the jobs on a failed node) or recovers one.
  void FailOrRecover() {
    const int node = RandomNode();
    const GpuType type = cluster_.nodes()[node].type;
    if (cluster_.nodes()[node].failed_gpus > 0) {
      cluster_.MarkRecovered(node, 0);
      events_.push_back(RoundEvent::NodeRecover(node, type));
      return;
    }
    for (JobState* js : jobs_) {
      if (js->phase == JobPhase::kRunning && js->gpu_type == type) {
        Requeue(js);
      }
    }
    cluster_.MarkFailed(node, 0);
    events_.push_back(RoundEvent::NodeFail(node, type));
  }

  Cluster& cluster_;
  Rng& rng_;
  bool deadlines_;
  std::span<const ModelSpec> specs_;
  std::span<const int> sizes_;
  int64_t next_id_;
  std::vector<std::unique_ptr<JobState>> owned_;  // every job ever shown
  std::vector<JobState*> jobs_;
  std::vector<RoundEvent> events_;
};

int64_t Counter(const std::string& name, const MetricLabels& labels = {}) {
  return CounterRegistry::Global().CounterValue(CanonicalMetricName(name, labels));
}

TEST(CriusMemoPropertyTest, MemoMatchesFreshOverRandomRounds) {
  // Only the memoized scheduler keeps entries, so these count its paths.
  const char* const kPaths[] = {"sched.cells_steady_rounds", "sched.cells_kept_incremental",
                                "sched.cells_dirty_reranks", "sched.cells_cache_evictions"};
  std::vector<int64_t> before;
  for (const char* name : kPaths) {
    before.push_back(Counter(name));
  }
  const int64_t full_before = Counter("sched.cells_full_reranks");
  const int64_t searches_before = Counter("sched.searches", {{"outcome", "placed"}});
  int64_t placed = 0;
  int64_t rounds_run = 0;
  Cluster cluster = MakeMemoCluster();
  PerformanceOracle oracle(cluster, 42);
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    SCOPED_TRACE("seed " + std::to_string(kSeed) + ", iteration " + std::to_string(iteration));
    Rng rng(kSeed + static_cast<uint64_t>(iteration));
    const CriusConfig config = ConfigFor(rng.UniformInt(0, 4));
    CriusScheduler memo(&oracle, config);
    FreshCriusScheduler fresh(&oracle, config);
    Sequence seq(cluster, rng, config.deadline_aware);
    for (int i = static_cast<int>(rng.UniformInt(3, 12)); i > 0; --i) {
      seq.Arrive(0.0);
    }
    const int rounds = static_cast<int>(rng.UniformInt(10, 20));
    for (int r = 0; r < rounds; ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      const double now = 300.0 * r;
      std::vector<RoundEvent> events = seq.TakeEvents();
      const double roll = rng.Uniform();
      if (roll < 0.15) {
        events.clear();  // the caller reports nothing, health changes included
      }
      const RoundContext round(now, seq.Jobs(), cluster, std::move(events));
      const Resolved got = Resolve(memo, round);
      const Resolved want = Resolve(fresh, round);
      ASSERT_EQ(got.decision.dropped, want.decision.dropped);
      ASSERT_EQ(got.target, want.target);
      seq.Apply(got);
      placed += static_cast<int64_t>(got.target.size());
      ++rounds_run;
      for (int m = static_cast<int>(rng.UniformInt(0, 3)); m > 0; --m) {
        seq.Mutate(now);
      }
    }
  }
  // The sequences only mean something if they reached every memo path and
  // the scaling search. FreshCriusScheduler re-ranks in full every round, so
  // the memo's own full re-ranks are the rest: each sequence's first round
  // and the health changes no event reported.
  for (size_t i = 0; i < std::size(kPaths); ++i) {
    EXPECT_GT(Counter(kPaths[i]) - before[i], 0) << kPaths[i];
  }
  EXPECT_GT(Counter("sched.cells_full_reranks") - full_before - rounds_run, kIterations);
  EXPECT_GT(Counter("sched.searches", {{"outcome", "placed"}}) - searches_before, 0);
  EXPECT_GT(placed, rounds_run);
}

class CriusMemoWalkTest : public SchedTestBase {
 protected:
  CriusMemoWalkTest() : SchedTestBase(MakeMemoCluster()) {
    for (int64_t id = 0; id < 8; ++id) {
      AddQueued(id, kSpecs[id % 3], kSizes[id % 4], kTypes[id % 3], static_cast<double>(id));
    }
  }

  // The memo lookups one round of `jobs` costs.
  int64_t LookupsFor(CriusScheduler& sched, double now, std::vector<const JobState*> jobs) {
    const int64_t before = Counter("sched.memo_lookups");
    // A phase change keeps every round off the steady path.
    sched.Schedule(RoundContext(now, std::move(jobs), cluster_,
                                {RoundEvent::JobPhaseChange(states_.front()->job.id)}));
    return Counter("sched.memo_lookups") - before;
  }
};

// The walk hashes only where the round's order leaves last round's: a
// departure costs its eviction and one lookup to resume after the gap, an
// arrival one missed lookup and its insert, and the jobs around either
// reuse their entries by position.
TEST_F(CriusMemoWalkTest, LookupsFollowChangesNotJobs) {
  CriusScheduler sched(&oracle_, CriusConfig{});
  std::vector<const JobState*> jobs = Views();
  EXPECT_EQ(LookupsFor(sched, 0.0, jobs), 16) << "first round: eight misses, eight inserts";
  EXPECT_EQ(LookupsFor(sched, 300.0, jobs), 0) << "same order";

  jobs.erase(jobs.begin() + 3);
  EXPECT_EQ(LookupsFor(sched, 600.0, jobs), 2) << "departure mid-order";

  jobs.insert(jobs.begin() + 2, AddQueued(8, kSpecs[0], 2, GpuType::kA100, 8.0));
  EXPECT_EQ(LookupsFor(sched, 900.0, jobs), 2) << "arrival mid-order";

  std::reverse(jobs.begin(), jobs.end());
  EXPECT_EQ(LookupsFor(sched, 1200.0, jobs), 8) << "reversed: no job is where the walk expects it";
}

class CriusMemoDeathTest : public SchedTestBase {
 protected:
  CriusMemoDeathTest() : SchedTestBase(MakeMemoCluster()) {}
};

TEST_F(CriusMemoDeathTest, DuplicateJobIdAborts) {
  const ModelSpec spec = kSpecs[0];
  AddQueued(0, spec, 2, GpuType::kA100);
  AddQueued(1, spec, 4, GpuType::kA100);
  CriusScheduler sched(&oracle_, CriusConfig{});
  sched.Schedule(Round(0.0));

  // A kept job listed twice: the walk resolves its entry twice.
  std::vector<const JobState*> kept_twice = Views();
  kept_twice.push_back(kept_twice.front());
  EXPECT_DEATH(sched.Schedule(RoundFor(300.0, kept_twice, cluster_)),
               "a scheduling round lists a job id twice");

  // An arrival listed twice: both copies miss, and the second insert finds
  // the first.
  std::vector<const JobState*> arrival_twice = Views();
  const JobState* arrival = AddQueued(2, spec, 1, GpuType::kA40);
  arrival_twice.push_back(arrival);
  arrival_twice.push_back(arrival);
  EXPECT_DEATH(sched.Schedule(RoundFor(300.0, arrival_twice, cluster_)),
               "a scheduling round lists a job id twice");
}

// The ranking-store configurations: crius, NA, NH, the solver, deadline-aware
// and a weighted objective.
CriusConfig StoreConfigFor(int64_t pick) {
  switch (pick) {
    case 0:
      return CriusConfig{};
    case 1:
      return CriusConfig{.adaptivity_scaling = false};
    case 2:
      return CriusConfig{.heterogeneity_scaling = false};
    case 3:
      return CriusConfig{.placement_order = CriusPlacementOrder::kBestOfAll};
    case 4:
      return CriusConfig{.deadline_aware = true};
    default:
      return CriusConfig{.objective = *CriusObjective::Parse("1,0.2,0.5,0.3")};
  }
}

constexpr uint64_t kStoreSeed = 20261020;
constexpr int kStoreIterations = 300;
constexpr int kStoreConfigs = 6;
constexpr int kStoreSizes[] = {1, 2, 4, 8, 16};

TEST(CriusRankingStoreTest, StoreMatchesFreshOverRandomRounds) {
  const std::vector<ModelSpec> specs = AllModelConfigs();
  const int64_t dirty_before = Counter("sched.cells_dirty_reranks");
  const int64_t full_before = Counter("sched.cells_full_reranks");
  int64_t kept_computed = 0;  // rankings the long-lived schedulers computed
  int64_t delays_checked = 0;
  int64_t rounds_run = 0;
  Cluster cluster = MakeMemoCluster();
  const Cluster pristine = MakeMemoCluster();  // the engine prices admission on its template
  PerformanceOracle oracle(cluster, 42);
  // One scheduler per configuration for the whole test: its store outlives
  // every sequence, every health change and every full re-rank.
  std::vector<std::unique_ptr<CriusScheduler>> kept;
  for (int c = 0; c < kStoreConfigs; ++c) {
    kept.push_back(std::make_unique<CriusScheduler>(&oracle, StoreConfigFor(c)));
  }
  int64_t next_id = 0;  // job ids stay unique across sequences
  for (int iteration = 0; iteration < kStoreIterations; ++iteration) {
    SCOPED_TRACE("seed " + std::to_string(kStoreSeed) + ", iteration " +
                 std::to_string(iteration));
    Rng rng(kStoreSeed + static_cast<uint64_t>(iteration));
    const int pick = static_cast<int>(rng.UniformInt(0, kStoreConfigs - 1));
    const CriusConfig config = StoreConfigFor(pick);
    CriusScheduler& memo = *kept[static_cast<size_t>(pick)];
    FreshCriusScheduler fresh(&oracle, config);
    Sequence seq(cluster, rng, config.deadline_aware, specs, kStoreSizes, next_id);
    for (int i = static_cast<int>(rng.UniformInt(3, 10)); i > 0; --i) {
      seq.Arrive(0.0);
    }
    const int rounds = static_cast<int>(rng.UniformInt(6, 12));
    for (int r = 0; r < rounds; ++r) {
      SCOPED_TRACE("round " + std::to_string(r));
      const double now = 300.0 * r;
      for (const JobState* js : seq.Jobs()) {
        for (const Cluster* priced : {&pristine, static_cast<const Cluster*>(&cluster)}) {
          const int64_t computed = Counter("sched.rankings_computed");
          const double delay = memo.ProfilingDelay(js->job, *priced);
          kept_computed += Counter("sched.rankings_computed") - computed;
          ASSERT_EQ(delay, fresh.ProfilingDelay(js->job, *priced)) << "job " << js->job.id;
          ++delays_checked;
        }
      }
      const RoundContext round(now, seq.Jobs(), cluster, seq.TakeEvents());
      const int64_t computed = Counter("sched.rankings_computed");
      const Resolved got = Resolve(memo, round);
      kept_computed += Counter("sched.rankings_computed") - computed;
      const Resolved want = Resolve(fresh, round);
      ASSERT_EQ(got.decision.dropped, want.decision.dropped);
      ASSERT_EQ(got.target, want.target);
      seq.Apply(got);
      ++rounds_run;
      for (int m = static_cast<int>(rng.UniformInt(1, 3)); m > 0; --m) {
        seq.Mutate(now);
      }
    }
    next_id = seq.next_id();
  }
  // The sequences must have moved the caps under kept entries and re-ranked
  // in full past the first rounds (FreshCriusScheduler re-ranks in full every
  // round), and the store must have served most pricings from rankings it
  // already held.
  EXPECT_GT(Counter("sched.cells_dirty_reranks") - dirty_before, 0);
  EXPECT_GT(Counter("sched.cells_full_reranks") - full_before - rounds_run, kStoreConfigs);
  EXPECT_LT(kept_computed * 4, delays_checked);
}

class CriusRankingStoreUnitTest : public SchedTestBase {
 protected:
  CriusRankingStoreUnitTest() : SchedTestBase(MakeMemoCluster()) {}

  // The rankings `sched` computes while pricing `job` and running one round
  // over the fixture's jobs.
  int64_t ComputedFor(CriusScheduler& sched, const JobState& js, double now) {
    const int64_t before = Counter("sched.rankings_computed");
    sched.ProfilingDelay(js.job, cluster_);
    sched.Schedule(RoundFor(now, Views(), cluster_));
    return Counter("sched.rankings_computed") - before;
  }
};

// Two jobs with one key share one ranking, for the profiling delay and for
// the round alike; a different requested size computes its own. Under NH
// the requested type prunes the Cells, so a different type computes its own
// too. A cap change moves the key; recovery moves it back to the stored one.
TEST_F(CriusRankingStoreUnitTest, OneRankingPerKey) {
  const ModelSpec spec = kSpecs[1];
  for (const bool nh : {false, true}) {
    SCOPED_TRACE(nh ? "crius-nh" : "crius");
    states_.clear();
    CriusScheduler sched(&oracle_, CriusConfig{.heterogeneity_scaling = !nh});
    const int64_t base = nh ? 100 : 0;
    EXPECT_EQ(ComputedFor(sched, *AddQueued(base + 0, spec, 8, GpuType::kA100), 0.0), 1);
    EXPECT_EQ(ComputedFor(sched, *AddQueued(base + 1, spec, 8, GpuType::kA100, 5.0, 777), 300.0),
              0)
        << "same key";
    EXPECT_EQ(ComputedFor(sched, *AddQueued(base + 2, spec, 4, GpuType::kA100), 600.0), 1)
        << "another requested size";
    if (nh) {
      EXPECT_EQ(ComputedFor(sched, *AddQueued(base + 3, spec, 8, GpuType::kV100), 900.0), 1)
          << "NH prunes by the requested type";
    }
    // A100 is four 4-GPU nodes: one failure drops its cap from 16 to 8, which
    // takes the 16-GPU A100 candidate from every 8-GPU job: one ranking for
    // the two A100 jobs' shared new key, and under NH one for the V100 job,
    // whose set covers every type although NH prunes the A100 Cells.
    cluster_.MarkFailed(0, 0);
    const JobState& first = *states_.front();
    EXPECT_EQ(ComputedFor(sched, first, 1200.0), nh ? 2 : 1)
        << "the failure moved the candidate sizes";
    cluster_.MarkRecovered(0, 0);
    EXPECT_EQ(ComputedFor(sched, first, 1500.0), 0) << "recovery restores a stored key";
  }
}

}  // namespace
}  // namespace crius
