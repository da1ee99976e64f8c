#include "src/sched/crius_sched.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/mathutil.h"
#include "src/util/rng.h"
#include "src/util/trace.h"

namespace crius {

namespace {

// Minimum relative estimated-throughput gain before a running job is
// re-scheduled in the upscale phase; keeps restart counts low (§8.4).
constexpr double kMoveGainThreshold = 0.05;
// Pending queued jobs that get the full scaling search per round; the rest
// only try free capacity (bounds per-round scheduling overhead).
constexpr int kMaxSearchJobs = 8;

// Per-type candidate-size cap, exactly as GenerateCellsUpTo derives it:
// FloorPowerOfTwo of the usable capacity, 0 when the type is absent or fully
// failed. Cell rankings are a pure function of the job and these caps
// (slowdowns are applied at execution time, never in the oracle's what-if
// estimates), so diffing caps across rounds identifies exactly the entries a
// health change can dirty.
std::array<int, kNumGpuTypes> CandidateCaps(const Cluster& cluster) {
  std::array<int, kNumGpuTypes> caps{};
  for (GpuType type : AllGpuTypes()) {
    if (!cluster.HasType(type)) {
      continue;
    }
    const int usable = cluster.UsableGpus(type);
    caps[static_cast<int>(type)] =
        usable < 1 ? 0 : static_cast<int>(FloorPowerOfTwo(usable));
  }
  return caps;
}

// The §6.1 candidate-size set of a job requesting `requested` GPUs under
// `caps`: bit 3t+k says size k of {N_G/2, N_G, 2*N_G} fits type t's cap. It
// fixes the Cells GenerateCells emits, so it keys the ranking store, and a
// job's ranking is dirty exactly when its set differs under old and new caps.
uint32_t CandidateSizes(int requested, const std::array<int, kNumGpuTypes>& caps) {
  static_assert(3 * kNumGpuTypes <= 32);
  uint32_t sizes = 0;
  for (int t = 0; t < kNumGpuTypes; ++t) {
    int k = 0;
    for (const int ngpus : {requested / 2, requested, requested * 2}) {
      if (ngpus >= 1 && ngpus <= caps[t]) {
        sizes |= 1u << (3 * t + k);
      }
      ++k;
    }
  }
  return sizes;
}

}  // namespace

std::string CriusObjective::ToString() const {
  std::ostringstream oss;
  oss << throughput << "," << energy << "," << fragmentation << "," << fairness;
  return oss.str();
}

std::optional<CriusObjective> CriusObjective::Parse(const std::string& spec) {
  std::array<double, 4> weights{};
  size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    const size_t end = i < 3 ? spec.find(',', pos) : spec.size();
    if (end == std::string::npos) {
      return std::nullopt;
    }
    const std::string field = spec.substr(pos, end - pos);
    if (field.empty()) {
      return std::nullopt;
    }
    char* parse_end = nullptr;
    weights[i] = std::strtod(field.c_str(), &parse_end);
    // Non-finite weights (nan, inf, or an overflow such as 1e400) would make
    // every rank non-finite and so no choice ever win.
    if (parse_end == field.c_str() || *parse_end != '\0' || !std::isfinite(weights[i]) ||
        weights[i] < 0.0) {
      return std::nullopt;
    }
    pos = end + 1;
  }
  return CriusObjective{weights[0], weights[1], weights[2], weights[3]};
}

CriusScheduler::CriusScheduler(PerformanceOracle* oracle, CriusConfig config)
    : Scheduler(oracle), config_(config) {
  CRIUS_CHECK(config_.search_depth >= 0);
}

std::string CriusScheduler::name() const {
  if (config_.deadline_aware) {
    return "Crius-DDL";
  }
  if (config_.objective.fairness > 0.0) {
    return "Crius-Fair";
  }
  if (!config_.adaptivity_scaling && config_.heterogeneity_scaling) {
    return "Crius-NA";
  }
  if (config_.adaptivity_scaling && !config_.heterogeneity_scaling) {
    return "Crius-NH";
  }
  if (!config_.adaptivity_scaling && !config_.heterogeneity_scaling) {
    return "Crius-static";
  }
  return "Crius";
}

size_t CriusScheduler::RankingKeyHash::operator()(const RankingKey& key) const {
  uint64_t h = HashCombine(static_cast<uint64_t>(key.family), key.params_bits);
  h = HashCombine(h, static_cast<uint64_t>(key.global_batch));
  h = HashCombine(h, static_cast<uint64_t>(key.requested_gpus));
  h = HashCombine(h, static_cast<uint64_t>(key.requested_type));
  return static_cast<size_t>(HashCombine(h, key.sizes));
}

const CriusScheduler::Ranking& CriusScheduler::RankingFor(
    const TrainingJob& job, const Cluster& cluster, const std::array<int, kNumGpuTypes>& caps) {
  const RankingKey key{job.spec.family, std::bit_cast<uint64_t>(job.spec.params_billion),
                       job.spec.global_batch, job.requested_gpus, job.requested_type,
                       CandidateSizes(job.requested_gpus, caps)};
  const auto it = rankings_.find(key);
  if (it != rankings_.end()) {
    return it->second;
  }
  return rankings_.emplace(key, ComputeCells(job, cluster)).first->second;
}

CriusScheduler::Ranking CriusScheduler::ComputeCells(const TrainingJob& job,
                                                     const Cluster& cluster) {
  CRIUS_TRACE_SPAN("sched.cells_for");
  CRIUS_COUNTER_INC("sched.rankings_computed");
  Ranking ranking;
  JobCells& jc = ranking.cells;
  const size_t considered = EstimateCandidates(job, cluster);
  CRIUS_COUNTER_ADD("sched.cells_considered", static_cast<int64_t>(considered));
  CRIUS_COUNTER_ADD("sched.cells_pruned",
                    static_cast<int64_t>(considered - candidates_.size()));
  // §8.2: Cells are profiled on one GPU per type, in parallel across types;
  // ablation variants never rank pruned Cells, so they are not charged the
  // GPU-seconds to profile them either.
  std::array<double, kNumGpuTypes> profile_per_type{};
  size_t feasible = 0;
  for (size_t i = 0; i < candidates_.size(); ++i) {
    profile_per_type[static_cast<int>(candidates_[i].gpu_type)] +=
        batch_.estimates[i]->profile_gpu_seconds;
    feasible += batch_.throughput[i] > 0.0 ? 1 : 0;
  }
  // Crius bounds the profiling total at 30 minutes (§8.2).
  ranking.profiling_delay =
      std::min(*std::max_element(profile_per_type.begin(), profile_per_type.end()), 1800.0);
  if (feasible < candidates_.size()) {
    CRIUS_COUNTER_ADD("sched.cells_infeasible",
                      static_cast<int64_t>(candidates_.size() - feasible));
  }
  // Exact size: the store keeps every ranking for the scheduler's lifetime.
  jc.choices.reserve(feasible);
  for (size_t i = 0; i < candidates_.size(); ++i) {
    const double thr = batch_.throughput[i];
    if (thr <= 0.0) {
      continue;  // infeasible Cell
    }
    jc.choices.push_back(CellChoice{candidates_[i], thr});
    if (candidates_[i].ngpus == job.requested_gpus) {
      jc.ref_throughput = std::max(jc.ref_throughput, thr);
    }
  }
  if (jc.ref_throughput <= 0.0 && !jc.choices.empty()) {
    for (const CellChoice& c : jc.choices) {
      jc.ref_throughput = std::max(jc.ref_throughput, c.score);
    }
  }
  // Normalize scores so cluster throughput sums job fractions of their
  // requested-shape performance.
  for (CellChoice& c : jc.choices) {
    c.score = jc.ref_throughput > 0.0 ? c.score / jc.ref_throughput : 0.0;
  }
  std::stable_sort(jc.choices.begin(), jc.choices.end(),
                   [](const CellChoice& a, const CellChoice& b) { return a.score > b.score; });
  jc.fit.Build(jc.choices);
  jc.moves.Build(jc.choices);
  CRIUS_HISTOGRAM_RECORD("sched.cells_per_job", static_cast<double>(jc.choices.size()));
  return ranking;
}

size_t CriusScheduler::EstimateCandidates(const TrainingJob& job, const Cluster& cluster) {
  GenerateCellsInto(job, cluster, &candidates_);
  const size_t generated = candidates_.size();
  PruneAblatedCells(job, &candidates_);
  oracle_->EstimateCellBatch(
      CellBatchRequest{&job.spec, candidates_.data(), candidates_.size()}, &batch_);
  return generated;
}

void CriusScheduler::PruneAblatedCells(const TrainingJob& job,
                                       std::vector<Cell>* candidates) const {
  if (config_.heterogeneity_scaling && config_.adaptivity_scaling) {
    return;
  }
  std::erase_if(*candidates, [&](const Cell& cell) {
    if (!config_.heterogeneity_scaling && cell.gpu_type != job.requested_type) {
      return true;
    }
    return !config_.adaptivity_scaling && cell.ngpus != job.requested_gpus;
  });
}

void CriusScheduler::SyncCellsCache(const RoundContext& round) {
  // Phase breakdown of the round's cache work: everything up to the warm-up
  // is memo maintenance ("memo_restamp"); the ComputeCells warm-up
  // is where the oracle estimates run ("estimator"). Both land in the
  // labeled histogram sched.phase_ms next to the "explorer" phase recorded
  // by Schedule().
  static Histogram& restamp_ms = CounterRegistry::Global().GetHistogram(
      "sched.phase_ms", MetricLabels{{"phase", "memo_restamp"}});
  static Histogram& estimator_ms = CounterRegistry::Global().GetHistogram(
      "sched.phase_ms", MetricLabels{{"phase", "estimator"}});
  const Cluster& cluster = round.cluster();
  const std::vector<const JobState*>& jobs = round.jobs();
  const uint64_t identity = cluster.identity();
  const uint64_t epoch = cluster.health_epoch();

  // 0. Steady-round fast path: same cluster, same health epoch, an empty
  // event delta -- the driver's account that no job arrived, departed, or
  // changed phase since last round -- and exactly last sync's jobs in the
  // same order. The memo and the snapshot are then already current, so skip
  // maintenance entirely (including the phase histograms: sched.phase_ms
  // describes maintenance rounds, sched.cells_steady_rounds counts the
  // skipped ones). The id check covers eventless callers (tests, ad-hoc
  // drivers): any change to their job set, a same-size swap included, takes
  // the maintenance path below.
  if (cells_identity_ == identity && cells_epoch_ == epoch && round.events().empty() &&
      std::equal(jobs.begin(), jobs.end(), cells_snapshot_.begin(), cells_snapshot_.end(),
                 [](const JobState* js, const std::pair<int64_t, MemoEntry*>& entry) {
                   return js->job.id == entry.first;
                 })) {
    CRIUS_COUNTER_INC("sched.cells_steady_rounds");
    return;
  }
  const auto t_enter = std::chrono::steady_clock::now();
  const std::array<int, kNumGpuTypes> caps = CandidateCaps(cluster);

  // 1. Pick the maintenance path. The delta path requires the same cluster
  // object as last round and -- when the health epoch moved -- an event delta
  // that actually reports the health changes (the RoundContext contract). An
  // empty-handed delta or a cluster identity change (the first round, or
  // different hardware; the memo's job-to-ranking map is meaningless) forces
  // the full re-rank, which is always correct. The full re-rank clears the
  // memo but keeps the ranking store: a ranking reads the cluster only
  // through the candidate-size set in its key, and the oracle is fixed per
  // scheduler, so every stored ranking is still exact for its key.
  const bool identity_moved = cells_identity_ != identity;
  const bool epoch_moved = cells_epoch_ != epoch;
  const bool full = identity_moved || (epoch_moved && !round.has_health_events());

  if (full) {
    if ((identity_moved || epoch_moved) && !cells_memo_.empty()) {
      CRIUS_COUNTER_INC("sched.cells_cache_invalidations");
    }
    cells_memo_.clear();
    cells_snapshot_.clear();  // its pointers went with the memo
    move_classes_ = MoveClassIndex{};
    CRIUS_COUNTER_INC("sched.cells_full_reranks");
  }

  // 2. Merge walk of the round's jobs against last sync's snapshot. The
  // engine lists its jobs in slot order every round, so a job is usually the
  // next unconsumed snapshot entry and reuses it with no hash. Only a
  // mismatch looks the id up: a hit resumes the walk after that entry's old
  // position; a miss is an arrival and goes to missing_, as does an entry the
  // dirty test unranks. Every resolved entry takes this sync's
  // stamp, so an entry resolved twice means the round lists its job twice:
  // a job's placement state sits in its memo entry, so two jobs must not
  // share one.
  ++sync_stamp_;
  std::vector<std::pair<int64_t, MemoEntry*>>& last = last_snapshot_;
  last.swap(cells_snapshot_);
  cells_snapshot_.clear();
  missing_.clear();
  int64_t lookups = 0;
  size_t resolved = 0;  // entries of `last` this walk consumed
  size_t cursor = 0;    // the next unconsumed entry of `last`
  for (size_t ji = 0; ji < jobs.size(); ++ji) {
    const TrainingJob& job = jobs[ji]->job;
    MemoEntry* entry = nullptr;
    // The next cursor never waits on the entry's own load when the orders
    // agree, so the walk does not serialize on memo-node cache misses.
    if (cursor < last.size() && last[cursor].first == job.id) {
      entry = last[cursor++].second;
    } else {
      ++lookups;
      const auto it = cells_memo_.find(job.id);
      if (it != cells_memo_.end()) {
        entry = &it->second;
        cursor = entry->pos + 1;
      }
    }
    if (entry != nullptr) {
      CRIUS_CHECK_MSG(entry->stamp != sync_stamp_, "a scheduling round lists a job id twice");
      entry->stamp = sync_stamp_;
      ++resolved;
      entry->pos = ji;
      // Dirty set: after a health change, a kept entry is re-ranked iff the
      // job's §6.1 candidate-size set changed -- only then does GenerateCells
      // emit a different Cell set. Slowdown-only epochs change no caps, so
      // every entry survives.
      if (epoch_moved) {
        if (CandidateSizes(job.requested_gpus, cells_caps_) !=
            CandidateSizes(job.requested_gpus, caps)) {
          // Its placement state indexes the old ranking; the warm-up below
          // points it at the new one.
          Unindex(*entry);
          entry->placement = JobPlacement{};
          missing_.push_back(ji);
          CRIUS_COUNTER_INC("sched.cells_dirty_reranks");
        } else {
          CRIUS_COUNTER_INC("sched.cells_kept_incremental");
        }
      }
    } else {
      missing_.push_back(ji);
      ++lookups;  // the warm-up below inserts its entry
    }
    cells_snapshot_.emplace_back(job.id, entry);
  }
  cells_identity_ = identity;
  cells_epoch_ = epoch;
  cells_caps_ = caps;

  // 3. Evict the entries of last sync's jobs the walk left unstamped: they
  // left the system (completed, killed, or dropped). Without this the memo
  // grows without bound over a trace. The memo holds exactly last sync's
  // jobs, so when the walk resolved all of them nothing departed.
  if (resolved < last.size()) {
    size_t evicted = 0;
    for (const auto& [id, entry] : last) {
      if (entry->stamp != sync_stamp_) {
        Unindex(*entry);
        cells_memo_.erase(id);
        ++lookups;
        ++evicted;
      }
    }
    if (evicted > 0) {
      CRIUS_COUNTER_ADD("sched.cells_cache_evictions", static_cast<int64_t>(evicted));
    }
  }
  CRIUS_COUNTER_ADD("sched.memo_lookups", lookups);
  const auto t_maintained = std::chrono::steady_clock::now();
  restamp_ms.Record(
      std::chrono::duration<double, std::milli>(t_maintained - t_enter).count());
  if (missing_.empty()) {
    estimator_ms.Record(0.0);
    return;
  }

  // 4. Resolve the missing rankings in round order: insert each arrival's
  // entry and point it, or a dirty entry, at the store's ranking for the
  // job's current candidate sizes. Only a store miss computes one.
  CRIUS_TRACE_SPAN_ARGS("sched.cells_warmup",
                        "{\"jobs\": " + std::to_string(missing_.size()) + "}");
  for (const size_t ji : missing_) {
    std::pair<int64_t, MemoEntry*>& slot = cells_snapshot_[ji];
    if (slot.second == nullptr) {
      const auto [it, inserted] = cells_memo_.try_emplace(slot.first);
      // Two missing jobs with one id (an arrival listed twice) meet here.
      CRIUS_CHECK_MSG(inserted, "a scheduling round lists a job id twice");
      slot.second = &it->second;
      slot.second->stamp = sync_stamp_;
      slot.second->pos = ji;
    }
    slot.second->cells = &RankingFor(jobs[ji]->job, cluster, caps).cells;
  }
  estimator_ms.Record(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t_maintained)
                          .count());
}

void CriusScheduler::Unindex(MemoEntry& entry) {
  if (entry.placement.victim >= 0) {
    move_classes_.Erase(entry.placement);
  }
}

double CriusScheduler::ProfilingDelay(const TrainingJob& job, const Cluster& cluster) {
  return RankingFor(job, cluster, CandidateCaps(cluster)).profiling_delay;
}

ScheduleDecision CriusScheduler::Schedule(const RoundContext& round) {
  const double now = round.now();
  const std::vector<const JobState*>& jobs = round.jobs();
  const Cluster& cluster = round.cluster();
  CRIUS_COUNTER_INC("sched.rounds");
  CRIUS_HISTOGRAM_RECORD("sched.round_jobs", static_cast<double>(jobs.size()));
  CRIUS_SCOPED_TIMER_MS("sched.round_ms");
  CRIUS_TRACE_SPAN_ARGS("sched.round",
                        "{\"jobs\": " + std::to_string(jobs.size()) + "}");
  // Round-start memo maintenance + warm-up: after this the snapshot holds
  // every job's ranking, and the passes below only read it.
  SyncCellsCache(round);
  // "explorer" phase: the ScheduleOnce pass(es) that enumerate placements.
  static Histogram& explorer_ms = CounterRegistry::Global().GetHistogram(
      "sched.phase_ms", MetricLabels{{"phase", "explorer"}});
  counters_internal::ScopedTimerMs explorer_timer(explorer_ms);
  if (config_.placement_order != CriusPlacementOrder::kBestOfAll || config_.deadline_aware) {
    return ScheduleOnce(now, jobs, cluster, config_.placement_order).first;
  }
  // Solver-lite: evaluate every ordering virtually and keep the outcome with
  // the highest objective total; the first ordering wins ties.
  std::pair<ScheduleDecision, double> best{ScheduleDecision{},
                                           -std::numeric_limits<double>::infinity()};
  for (const CriusPlacementOrder order :
       {CriusPlacementOrder::kFifo, CriusPlacementOrder::kScoreDensity,
        CriusPlacementOrder::kSmallestFirst}) {
    std::pair<ScheduleDecision, double> candidate = ScheduleOnce(now, jobs, cluster, order);
    if (candidate.second > best.second) {
      best = std::move(candidate);
    }
  }
  return best.first;
}

std::pair<ScheduleDecision, double> CriusScheduler::ScheduleOnce(
    double now, const std::vector<const JobState*>& jobs, const Cluster& cluster,
    CriusPlacementOrder order) {
  CRIUS_TRACE_SPAN("sched.pass");
  ScheduleDecision decision;

  FreeMap free{};
  for (GpuType type : AllGpuTypes()) {
    free[static_cast<int>(type)] = cluster.UsableGpus(type);
  }

  // --- Virtual state: running jobs keep their Cells ------------------------
  // Each job's ranking is read from the positional snapshot SyncCellsCache
  // resolved for exactly these jobs.
  vjobs_.clear();
  queued_order_.clear();
  for (size_t ji = 0; ji < jobs.size(); ++ji) {
    const JobState* js = jobs[ji];
    MemoEntry& entry = *cells_snapshot_[ji].second;
    VirtualJob vj;
    vj.state = js;
    vj.cells = entry.cells;
    vj.placement = &entry.placement;
    vj.fit = &vj.cells->fit;
    if (js->phase == JobPhase::kRunning) {
      const Cell cell{js->gpu_type, js->ngpus, js->nstages};
      JobPlacement& placed = entry.placement;
      if (placed.held != cell) {
        placed.held = cell;
        placed.held_choice = -1;
        for (size_t i = 0; i < vj.cells->choices.size(); ++i) {
          if (vj.cells->choices[i].cell == cell) {
            placed.held_choice = static_cast<int>(i);
            break;
          }
        }
      }
      vj.cell = cell;
      vj.score = placed.held_choice < 0
                     ? 0.0
                     : vj.cells->choices[static_cast<size_t>(placed.held_choice)].score;
      vj.opportunistic = js->opportunistic;
      Take(cell, free);
    } else {
      // Density of a queued job: best estimated score per requested GPU.
      const double best = vj.cells->choices.empty() ? 0.0 : vj.cells->choices.front().score;
      vj.density = best / std::max(1, js->job.requested_gpus);
    }
    vjobs_.push_back(vj);
  }
  for (size_t i = 0; i < vjobs_.size(); ++i) {
    if (!vjobs_[i].cell.has_value()) {
      queued_order_.push_back(i);
    }
  }
  std::stable_sort(queued_order_.begin(), queued_order_.end(), [&](size_t a, size_t b) {
    const TrainingJob& ja = vjobs_[a].state->job;
    const TrainingJob& jb = vjobs_[b].state->job;
    if (config_.deadline_aware && ja.deadline.has_value() && jb.deadline.has_value() &&
        *ja.deadline != *jb.deadline) {
      return *ja.deadline < *jb.deadline;  // earliest deadline first
    }
    if (!config_.deadline_aware) {
      if (order == CriusPlacementOrder::kScoreDensity) {
        if (vjobs_[a].density != vjobs_[b].density) {
          return vjobs_[a].density > vjobs_[b].density;
        }
      } else if (order == CriusPlacementOrder::kSmallestFirst) {
        if (ja.requested_gpus != jb.requested_gpus) {
          return ja.requested_gpus < jb.requested_gpus;
        }
      }
    }
    if (ja.submit_time != jb.submit_time) {
      return ja.submit_time < jb.submit_time;
    }
    return ja.id < jb.id;
  });

  // Estimated completion check for the deadline policy.
  auto meets_deadline = [&](const VirtualJob& vj, const CellChoice& choice) {
    if (!config_.deadline_aware || !vj.state->job.deadline.has_value()) {
      return true;
    }
    const double thr = oracle_->EstimatedThroughput(vj.state->job.spec, choice.cell);
    if (thr <= 0.0) {
      return false;
    }
    const double iters_per_sec = thr / static_cast<double>(vj.state->job.spec.global_batch);
    const double finish = now + vj.state->remaining_iters() / iters_per_sec;
    return finish <= *vj.state->job.deadline;
  };

  // A Cell's rank under the objective: weighted throughput minus the Cell's
  // draw (kW) and the GPU stranding left once `give` (if any) is released from
  // `f` and `cell` placed into it; zero-weight terms are skipped. Without
  // energy or fragmentation weight the rank is monotone in score, so the
  // score order (and with it the FitIndex first fit) is exact.
  const CriusObjective& objective = config_.objective;
  const bool by_score = objective.energy == 0.0 && objective.fragmentation == 0.0;
  auto cell_rank = [&](double score, const Cell& cell, const FreeMap& f, const Cell* give) {
    double rank = objective.throughput * score;
    if (objective.energy > 0.0) {
      rank -= objective.energy * CellWatts(power_model_, cell.gpu_type, cell.ngpus) / 1000.0;
    }
    if (objective.fragmentation > 0.0) {
      rank -= objective.fragmentation * StrandingScore(f, give, &cell);
    }
    return rank;
  };

  // Best feasible Cell for a queued job under `free`: the first fit in score
  // order, read off the job's FitIndex (which in deadline-aware mode covers
  // only its deadline-feasible choices); or, when the rank is not monotone in
  // score, the best-ranked fitting choice (ties keep the earlier =
  // higher-throughput choice, so selection stays deterministic).
  auto best_fitting = [&](const VirtualJob& vj, const FreeMap& f) -> const CellChoice* {
    if (by_score) {
      const int i = vj.fit->FirstFit(vj.cells->choices, f);
      return i < 0 ? nullptr : &vj.cells->choices[i];
    }
    const CellChoice* best = nullptr;
    double best_rank = -std::numeric_limits<double>::infinity();
    for (const CellChoice& c : vj.cells->choices) {
      if (!Fits(c.cell, f) || !meets_deadline(vj, c)) {
        continue;
      }
      const double rank = cell_rank(c.score, c.cell, f, nullptr);
      if (rank > best_rank) {
        best_rank = rank;
        best = &c;
      }
    }
    return best;
  };

  // --- Deadline admission (§8.5): early-drop hopeless jobs ------------------
  // Each queued job with a deadline gets a FitIndex over the choices that
  // meet it, built once per pass; an empty one means the job is hopeless.
  if (config_.deadline_aware) {
    deadline_fits_.resize(vjobs_.size());
    for (size_t qi : queued_order_) {
      VirtualJob& vj = vjobs_[qi];
      if (!vj.state->job.deadline.has_value()) {
        continue;
      }
      const std::vector<CellChoice>& choices = vj.cells->choices;
      deadline_fits_[qi].Build(choices, [&](size_t i) { return meets_deadline(vj, choices[i]); });
      vj.fit = &deadline_fits_[qi];
      if (vj.fit->first() < 0) {
        vj.dropped = true;
        decision.dropped.push_back(vj.state->job.id);
      }
    }
  }

  // --- Place queued jobs (FIFO), scaling running jobs when short (lines
  // 14-20 of Algorithm 1) ----------------------------------------------------
  int searched_jobs = 0;
  bool some_job_pending = false;
  // Scaling-search work, added to the counters once per pass.
  int64_t moves_evaluated = 0;
  int64_t searches_placed = 0;
  int64_t memo_hits = 0;
  const int64_t inserts_before = move_classes_.inserts();
  // The search's move classes, synced to this pass at its first search; from
  // then on every placed job is indexed.
  bool classes_synced = false;
  auto index_victim = [&](size_t vi) { move_classes_.Insert(vjobs_[vi], vi, meets_deadline); };
  // What this pass's failed searches learned since its last placement.
  failed_chain_.Clear();
  {
    CRIUS_TRACE_SPAN("sched.place");
    for (size_t qi : queued_order_) {
      VirtualJob& vj = vjobs_[qi];
      if (vj.dropped) {
        continue;
      }

      if (const CellChoice* c = best_fitting(vj, free)) {
        vj.cell = c->cell;
        vj.score = c->score;
        vj.opportunistic = some_job_pending;
        Take(c->cell, free);
        if (classes_synced) {
          index_victim(qi);
        }
        failed_chain_.Clear();
        continue;
      }

      // Scaling search: up to search_depth moves of running/placed jobs that
      // make room for `vj` while maximizing total estimated throughput. A single
      // downscale often cannot free enough for a large job, so intermediate
      // moves may carry a negative throughput delta; the chain is only kept if
      // the final placement makes the cumulative delta (including the placed
      // job's score) positive.
      bool placed = false;
      if (searched_jobs < kMaxSearchJobs && config_.search_depth > 0) {
        ++searched_jobs;
        if (!classes_synced) {
          // A deadline victim's members hold at `now` only.
          move_classes_.Sync(vjobs_, meets_deadline, [&](const VirtualJob& v) {
            return config_.deadline_aware && v.state->job.deadline.has_value();
          });
          classes_synced = true;
        }
        // The best score vj could realize if capacity were freed; bounds the
        // deficit any intermediate move is allowed to dig.
        const int top = vj.fit->first();
        const double vj_potential =
            top < 0 ? 0.0 : std::max(0.0, vj.cells->choices[top].score);
        auto mine_after = [&](const FreeMap& f) { return best_fitting(vj, f); };
        // A search the pass's failed-chain memo decides makes no moves.
        size_t replayable = 0;
        const bool must_fail = failed_chain_.MustFail(
            config_.search_depth, vj_potential,
            [&](const FreeMap& f) { return mine_after(f) == nullptr; }, &replayable);
        memo_hits += must_fail ? 1 : 0;
        FreeMap trial_free = free;
        search_saved_.clear();
        double cumulative_delta = 0.0;
        for (int depth = 0; !must_fail && depth < config_.search_depth && !placed; ++depth) {
          const auto step = static_cast<size_t>(depth);
          ScalingMove move;
          if (step < replayable) {
            move = failed_chain_.pick(step);
          } else {
            const bool extends = failed_chain_.Extends(step);
            move = move_classes_.BestMove(trial_free, cumulative_delta, vj_potential, mine_after,
                                          &moves_evaluated,
                                          extends ? &search_envelope_ : nullptr);
            if (extends) {
              failed_chain_.Record(step, move, cumulative_delta, search_envelope_);
            }
          }
          if (move.choice < 0 || (move.enables && cumulative_delta + move.delta <= 0.0)) {
            break;  // no move, or completing the chain would lower throughput
          }
          VirtualJob& victim = vjobs_[move.victim];
          const CellChoice& new_cell = victim.cells->choices[move.choice];
          search_saved_.push_back(SavedVictim{move.victim, victim.cell, victim.score,
                                              move_classes_.Erase(*victim.placement)});
          Give(*victim.cell, trial_free);
          Take(new_cell.cell, trial_free);
          cumulative_delta += new_cell.score - victim.score;
          victim.cell = new_cell.cell;
          victim.score = new_cell.score;
          index_victim(move.victim);

          if (const CellChoice* mine = best_fitting(vj, trial_free)) {
            if (cumulative_delta + mine->score > 0.0) {
              vj.cell = mine->cell;
              vj.score = mine->score;
              vj.opportunistic = some_job_pending;
              Take(mine->cell, trial_free);
              index_victim(qi);
              placed = true;
            }
          }
        }

        if (placed) {
          ++searches_placed;
          free = trial_free;
          failed_chain_.Clear();
        } else {
          // Roll back all speculative moves.
          for (auto it = search_saved_.rbegin(); it != search_saved_.rend(); ++it) {
            VirtualJob& victim = vjobs_[it->vi];
            move_classes_.Erase(*victim.placement);
            victim.cell = it->cell;
            victim.score = it->score;
            move_classes_.Restore(*victim.placement, it->indexed);
          }
        }
      }

      if (!placed) {
        some_job_pending = true;
        if (!config_.opportunistic) {
          break;  // strict head-of-line blocking without opportunistic execution
        }
      }
    }
  }
  if (searched_jobs > 0) {
    static Counter& placed_searches = CounterRegistry::Global().GetCounter(
        "sched.searches", MetricLabels{{"outcome", "placed"}});
    static Counter& failed_searches = CounterRegistry::Global().GetCounter(
        "sched.searches", MetricLabels{{"outcome", "failed"}});
    placed_searches.Add(searches_placed);
    failed_searches.Add(searched_jobs - searches_placed);
    CRIUS_COUNTER_ADD("sched.search_moves_evaluated", moves_evaluated);
    CRIUS_COUNTER_ADD("sched.search_memo_hits", memo_hits);
    CRIUS_COUNTER_ADD("sched.class_index_inserts", move_classes_.inserts() - inserts_before);
  }

  // --- Pending-job preemption of opportunistic jobs (§6.1) ------------------
  if (config_.opportunistic && some_job_pending) {
    CRIUS_TRACE_SPAN("sched.preempt_opportunistic");
    // The placed opportunistic jobs in index order, and the free map once all
    // of them are evicted. A preemption evicts a suffix of `evictable` and
    // places one non-opportunistic job, so `released` only loses its Cell.
    std::vector<size_t> evictable;
    FreeMap released = free;
    for (size_t vi = 0; vi < vjobs_.size(); ++vi) {
      if (vjobs_[vi].cell.has_value() && vjobs_[vi].opportunistic) {
        Give(*vjobs_[vi].cell, released);
        evictable.push_back(vi);
      }
    }
    for (size_t qi : queued_order_) {
      VirtualJob& vj = vjobs_[qi];
      if (vj.cell.has_value() || vj.dropped) {
        continue;
      }
      // Would evicting all opportunistic jobs make room?
      const CellChoice* mine = best_fitting(vj, released);
      if (mine == nullptr) {
        continue;
      }
      // Evict only as many opportunistic jobs as needed (latest first).
      FreeMap f3 = free;
      while (!evictable.empty()) {
        VirtualJob& opp = vjobs_[evictable.back()];
        evictable.pop_back();
        Give(*opp.cell, f3);
        opp.cell.reset();
        opp.score = 0.0;
        if (Fits(mine->cell, f3)) {
          break;
        }
      }
      // `mine` fits f3, so this finds a Cell.
      const CellChoice* c = best_fitting(vj, f3);
      CRIUS_CHECK(c != nullptr);
      vj.cell = c->cell;
      vj.score = c->score;
      vj.opportunistic = false;
      Take(c->cell, f3);
      Take(c->cell, released);
      free = f3;
    }
  }

  // --- Upscale phase: feed leftover capacity back (Algorithm 1 line 11) -----
  // A move swaps a placed job's Cell for the alternative with the best
  // relative rank gain; a fairness weight water-fills instead, upgrading the
  // worst-off placed job first with its gain breaking ties.
  CRIUS_TRACE_SPAN("sched.upscale");
  int upscale_moves = 0;
  for (int moves = 0; moves < config_.max_upscale_moves; ++moves) {
    double best_rank = -std::numeric_limits<double>::infinity();
    size_t best_vi = 0;
    const CellChoice* best_cell = nullptr;
    // Ranks `alt`, which fits once vj's held Cell is given back and meets its
    // deadline, as vj's upscale.
    auto consider = [&](size_t vi, const VirtualJob& vj, const CellChoice& alt) {
      const Cell& held = *vj.cell;
      // The held Cell's rank gives it back and takes it again: `free` as is.
      const double gain = (cell_rank(alt.score, alt.cell, free, &held) -
                           cell_rank(vj.score, held, free, &held)) /
                          std::max(vj.score, 1e-9);
      if (gain <= kMoveGainThreshold) {
        return;  // a restart is never worth a marginal gain
      }
      const double rank =
          objective.fairness > 0.0 ? -objective.fairness * vj.score + 1e-3 * gain : gain;
      if (rank > best_rank) {
        best_rank = rank;
        best_vi = vi;
        best_cell = &alt;
      }
    };
    for (size_t vi = 0; vi < vjobs_.size(); ++vi) {
      const VirtualJob& vj = vjobs_[vi];
      if (!vj.cell.has_value()) {
        continue;
      }
      const Cell& held = *vj.cell;
      FreeMap released = free;
      Give(held, released);
      // With a rank monotone in score, the gain and so the rank only fall
      // along the score-descending choices: the job's best upscale is its
      // first fit once the held Cell is given back, if that beats the held
      // score. The FitIndex covers the deadline when it was built over the
      // deadline-feasible choices.
      if (by_score && (!config_.deadline_aware || !vj.state->job.deadline.has_value() ||
                       vj.fit != &vj.cells->fit)) {
        const int i = vj.fit->FirstFit(vj.cells->choices, released);
        if (i >= 0 && vj.cells->choices[i].score > vj.score &&
            vj.cells->choices[i].cell != held) {
          consider(vi, vj, vj.cells->choices[i]);
        }
        continue;
      }
      // Otherwise a lower-throughput Cell can still rank higher (e.g. on
      // energy), so the scan is exhaustive.
      for (const CellChoice& alt : vj.cells->choices) {
        if (by_score && alt.score <= vj.score) {
          break;  // no later alternative improves either
        }
        if (alt.cell != held && Fits(alt.cell, released) && meets_deadline(vj, alt)) {
          consider(vi, vj, alt);
        }
      }
    }
    if (best_cell == nullptr) {
      break;
    }
    VirtualJob& vj = vjobs_[best_vi];
    Give(*vj.cell, free);
    Take(best_cell->cell, free);
    vj.cell = best_cell->cell;
    vj.score = best_cell->score;
    ++upscale_moves;
  }
  CRIUS_HISTOGRAM_RECORD("sched.upscale_moves", static_cast<double>(upscale_moves));

  // --- Emit ------------------------------------------------------------------
  // Only the changes: starts, re-placed running jobs and preemptions. The
  // objective total still sums every placed job.
  double total_score = 0.0;
  double watts_sum = 0.0;
  for (const VirtualJob& vj : vjobs_) {
    const JobState& js = *vj.state;
    if (!vj.cell.has_value()) {
      if (js.phase == JobPhase::kRunning) {
        decision.preempted.push_back(js.job.id);
      }
      continue;
    }
    const Assignment a{vj.cell->gpu_type, vj.cell->ngpus, vj.cell->nstages, vj.opportunistic};
    if (js.phase != JobPhase::kRunning || a != HeldGrant(js)) {
      decision.assignments.emplace(js.job.id, a);
    }
    total_score += vj.score;
    if (objective.energy > 0.0) {
      watts_sum += CellWatts(power_model_, vj.cell->gpu_type, vj.cell->ngpus);
    }
  }
  // The pass's objective total, so kBestOfAll compares orderings under the
  // objective the Cell ranks optimized.
  total_score *= objective.throughput;
  if (objective.energy > 0.0) {
    total_score -= objective.energy * watts_sum / 1000.0;
  }
  if (objective.fragmentation > 0.0) {
    total_score -= objective.fragmentation * StrandingScore(free);
  }
  return {std::move(decision), total_score};
}

}  // namespace crius
