#include <algorithm>
#include <array>
#include <map>

#include "src/sched/baselines.h"
#include "src/util/mathutil.h"

namespace crius {

namespace {

// Per-pool view of one job during an ElasticFlow round.
struct PoolJob {
  const JobState* state = nullptr;
  int min_share = 0;     // (over)estimated minimum GPUs, from the dp profile
  bool elastic = false;  // false = dp profile unavailable, inelastic fallback
  int alloc = 0;
};

}  // namespace

// ElasticFlow manages each GPU type as an independent homogeneous pool
// (adaptivity-aware but heterogeneity-blind). Jobs receive their dp-profiled
// minimum share in admission order, and leftover GPUs go to the job with the
// highest marginal dp-view gain, doubling allocations. Because the minimum
// share comes from the data-parallel memory footprint, large models that only
// fit with tensor/pipeline parallelism get a badly overestimated minimum --
// the §8.3 analysis of why ElasticFlow-LS keeps large jobs pending.
ScheduleDecision ElasticFlowScheduler::Schedule(const RoundContext& round) {
  const double now = round.now();
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();
  std::map<int64_t, Assignment> target;
  std::vector<int64_t> dropped;

  for (GpuType type : AllGpuTypes()) {
    // A type with every GPU down is a pool of capacity 0: it places nothing,
    // and drops nothing until its nodes recover.
    const int capacity = cluster.HasType(type) ? cluster.UsableGpus(type) : 0;
    if (capacity < 1) {
      continue;
    }
    const int cap_pow2 = static_cast<int>(FloorPowerOfTwo(capacity));

    std::vector<PoolJob> pool;
    for (const JobState* js : jobs) {
      if (js->job.requested_type != type ||
          (js->phase != JobPhase::kQueued && js->phase != JobPhase::kRunning)) {
        continue;
      }
      PoolJob pj;
      pj.state = js;
      const std::optional<int> min_share = view_.MinShare(js->job.spec, type, cap_pow2);
      if (min_share.has_value()) {
        pj.min_share = *min_share;
        pj.elastic = true;
      } else {
        // No dp profile fits: treat as an inelastic job at its requested shape
        // (if it can launch at all on this type).
        if (!view_.Launchable(js->job.spec, type, js->job.requested_gpus)) {
          continue;
        }
        pj.min_share = js->job.requested_gpus;
        pj.elastic = false;
      }
      pool.push_back(pj);
    }

    // Admission order: EDF under strict deadlines, FIFO otherwise.
    std::stable_sort(pool.begin(), pool.end(), [&](const PoolJob& a, const PoolJob& b) {
      const TrainingJob& ja = a.state->job;
      const TrainingJob& jb = b.state->job;
      if (!config_.loose_deadlines && ja.deadline.has_value() && jb.deadline.has_value() &&
          *ja.deadline != *jb.deadline) {
        return *ja.deadline < *jb.deadline;
      }
      if (ja.submit_time != jb.submit_time) {
        return ja.submit_time < jb.submit_time;
      }
      return ja.id < jb.id;
    });

    // Estimated time to finish on `n` GPUs through the scheduler's own lens.
    // ElasticFlow's admission control guarantees deadlines from its dp-only
    // throughput function; a job that function cannot model (dp OOM) cannot
    // be certified at all -- exactly the large-model blind spot of §8.5.
    auto completion_seconds = [&](const PoolJob& pj, int n) -> double {
      const double thr =
          pj.elastic ? view_.Throughput(pj.state->job.spec, type, n).value_or(0.0) : 0.0;
      if (thr <= 0.0) {
        return std::numeric_limits<double>::infinity();
      }
      const double iters_per_sec = thr / static_cast<double>(pj.state->job.spec.global_batch);
      return pj.state->remaining_iters() / iters_per_sec;
    };

    // Strict-deadline admission: raise the minimum share until the deadline is
    // met, or drop the job for good.
    if (!config_.loose_deadlines) {
      std::vector<PoolJob> admitted;
      for (PoolJob& pj : pool) {
        if (!pj.state->job.deadline.has_value()) {
          admitted.push_back(pj);
          continue;
        }
        const double slack = *pj.state->job.deadline - now;
        bool ok = false;
        for (int n = pj.min_share; n <= cap_pow2; n *= 2) {
          if (completion_seconds(pj, n) <= slack) {
            pj.min_share = n;
            ok = true;
            break;
          }
          if (!pj.elastic) {
            break;  // inelastic jobs cannot grow
          }
        }
        if (ok) {
          admitted.push_back(pj);
        } else if (pj.state->phase == JobPhase::kQueued) {
          dropped.push_back(pj.state->job.id);
        }  // a running job left out of the target is preempted instead
      }
      pool = std::move(admitted);
    }

    // Pass 1: admission shares in order. ElasticFlow scales jobs down from
    // their request when the workload is high, but not below a useful share:
    // the floor is the dp-profiled minimum, raised to a quarter of the
    // user's request (running an 8-GPU job on 1 GPU serves nobody).
    int remaining = capacity;
    for (PoolJob& pj : pool) {
      int share = pj.min_share;
      if (pj.elastic) {
        share = std::max(share, std::max(1, pj.state->job.requested_gpus / 4));
      }
      if (share <= remaining) {
        pj.alloc = share;
        remaining -= share;
      }
    }

    // Pass 2: distribute leftovers to the globally best marginal dp-view
    // gain, doubling allocations (ElasticFlow's diminishing-returns
    // allocation). Under strict deadlines the policy is guarantee-first:
    // admitted jobs keep their deadline-minimal shares and spare GPUs are
    // held for future admissions rather than spent on speedups nobody asked
    // for.
    while (config_.loose_deadlines && remaining > 0) {
      double best_gain = config_.scale_gain_threshold;
      PoolJob* best = nullptr;
      for (PoolJob& pj : pool) {
        if (!pj.elastic || pj.alloc == 0 || pj.alloc > remaining ||
            pj.alloc * 2 > cap_pow2) {
          continue;
        }
        const auto g_cur = view_.Throughput(pj.state->job.spec, type, pj.alloc);
        const auto g_next = view_.Throughput(pj.state->job.spec, type, pj.alloc * 2);
        if (!g_cur.has_value() || !g_next.has_value() || *g_cur <= 0.0) {
          continue;
        }
        const double gain = (*g_next - *g_cur) / *g_cur;
        if (gain > best_gain) {
          best_gain = gain;
          best = &pj;
        }
      }
      if (best == nullptr) {
        break;
      }
      remaining -= best->alloc;
      best->alloc *= 2;
    }

    // Hysteresis, both directions: a restart is only worth paying for a real
    // dp-view gain, and a running job is never shrunk while the freed GPUs
    // would just sit idle.
    for (PoolJob& pj : pool) {
      if (pj.state->phase != JobPhase::kRunning || pj.alloc == 0) {
        continue;
      }
      if (pj.elastic && pj.alloc > pj.state->ngpus) {
        const auto g_cur = view_.Throughput(pj.state->job.spec, type, pj.state->ngpus);
        const auto g_new = view_.Throughput(pj.state->job.spec, type, pj.alloc);
        if (g_cur.has_value() && g_new.has_value() &&
            (*g_new - *g_cur) / *g_cur <= config_.scale_gain_threshold) {
          remaining += pj.alloc - pj.state->ngpus;
          pj.alloc = pj.state->ngpus;
        }
      } else if (pj.alloc < pj.state->ngpus && pj.state->ngpus - pj.alloc <= remaining) {
        remaining -= pj.state->ngpus - pj.alloc;
        pj.alloc = pj.state->ngpus;
      }
    }

    for (const PoolJob& pj : pool) {
      if (pj.alloc == 0) {
        continue;
      }
      Assignment a;
      a.type = type;
      a.ngpus = pj.alloc;
      target[pj.state->job.id] = a;
    }
  }
  ScheduleDecision decision = DiffAgainstRound(round, target);
  decision.dropped = std::move(dropped);
  return decision;
}

}  // namespace crius
