// Seeded property test for the placement pass's Cell index
// (src/sched/placement_index.h).
//
// Random JobCells -- across GPU types, the §6.1 candidate sizes, stage
// counts and coarse scores that force equal-score ties -- and random free maps
// check that
//   * FitIndex::FirstFit equals the linear first-fit scan it replaced (kept
//     here as the reference), for plain, NA/NH-pruned and deadline-filtered
//     choice sets, and
//   * MoveClassIndex, which evaluates each (held shape, alternative shape)
//     class once, picks exactly the move a brute-force scan over every victim
//     and every alternative Cell picks, with the same tie-break (first victim,
//     then lowest choice index), after every step of random sequences of
//     search moves, rollbacks and placements, and a persistent index synced
//     by diff across rounds of outside churn picks what a fresh one does, and
//   * StrandingScore with a Cell given back and one taken equals the score of
//     the free map with both applied, and
//   * FailedChain, the per-pass failed-chain memo, decides only searches that
//     a reference loop over BestMove fails, and the searches it does not
//     decide make the reference's moves.
// Every case is reproducible from (seed, iteration), printed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/placement_index.h"
#include "src/util/rng.h"

namespace crius {
namespace {

constexpr uint64_t kSeed = 20260417;
constexpr int kIterations = 4000;

enum class Pruning { kNone, kNoAdaptivity, kNoHeterogeneity };

// Builds the scored choices GenerateCells + ComputeCells would produce for a
// job requesting `requested` GPUs of `requested_type`: every present type,
// sizes {N/2, N, 2N} under a per-type cap, power-of-two stage counts up to a
// random limit, pruned like Crius-NA / Crius-NH, scores drawn from a coarse
// grid (so ties are common) and stable-sorted descending.
JobCells RandomJobCells(Rng& rng, int requested, GpuType requested_type, Pruning pruning) {
  JobCells jc;
  const int stage_limit = 1 << rng.UniformInt(0, 4);
  for (int t = 0; t < kNumGpuTypes; ++t) {
    if (static_cast<GpuType>(t) != requested_type && rng.Uniform() < 0.3) {
      continue;  // type absent from the cluster
    }
    const int cap = 1 << rng.UniformInt(0, 7);
    for (int ngpus : {requested / 2, requested, requested * 2}) {
      if (ngpus < 1 || ngpus > cap) {
        continue;
      }
      for (int nstages = 1; nstages <= std::min(ngpus, stage_limit); nstages *= 2) {
        const Cell cell{static_cast<GpuType>(t), ngpus, nstages};
        if (pruning == Pruning::kNoAdaptivity && ngpus != requested) {
          continue;
        }
        if (pruning == Pruning::kNoHeterogeneity && cell.gpu_type != requested_type) {
          continue;
        }
        if (rng.Uniform() < 0.1) {
          continue;  // infeasible Cell, dropped by ComputeCells
        }
        jc.choices.push_back(CellChoice{cell, 0.125 * static_cast<double>(rng.UniformInt(1, 12))});
      }
    }
  }
  std::stable_sort(jc.choices.begin(), jc.choices.end(),
                   [](const CellChoice& a, const CellChoice& b) { return a.score > b.score; });
  jc.fit.Build(jc.choices);
  jc.moves.Build(jc.choices);
  return jc;
}

JobCells RandomJobCells(Rng& rng, Pruning pruning) {
  const int requested = 1 << rng.UniformInt(0, 6);
  const auto type = static_cast<GpuType>(rng.UniformInt(0, kNumGpuTypes - 1));
  return RandomJobCells(rng, requested, type, pruning);
}

FreeMap RandomFree(Rng& rng) {
  FreeMap free{};
  for (int& f : free) {
    // Mostly near the candidate sizes, where off-by-one mistakes show.
    f = rng.Uniform() < 0.5 ? static_cast<int>(rng.UniformInt(0, 160))
                            : (1 << rng.UniformInt(0, 7)) + static_cast<int>(rng.UniformInt(-1, 1));
    f = std::max(f, 0);
  }
  return free;
}

// The reference: the linear first-fit scan the index replaced.
template <typename Keep>
int LinearFirstFit(const std::vector<CellChoice>& choices, const FreeMap& free, Keep keep) {
  for (size_t i = 0; i < choices.size(); ++i) {
    if (Fits(choices[i].cell, free) && keep(i)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

template <typename Keep>
int LinearFirstKept(const std::vector<CellChoice>& choices, Keep keep) {
  for (size_t i = 0; i < choices.size(); ++i) {
    if (keep(i)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

void CheckFirstFit(Pruning pruning, bool deadline_filtered) {
  Rng rng(kSeed, "fit_index");
  int fits_found = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    const JobCells jc = RandomJobCells(rng, pruning);
    std::vector<bool> feasible(jc.choices.size(), true);
    if (deadline_filtered) {
      for (size_t i = 0; i < feasible.size(); ++i) {
        feasible[i] = rng.Uniform() < 0.6;
      }
    }
    auto keep = [&](size_t i) { return static_cast<bool>(feasible[i]); };
    FitIndex index;
    if (deadline_filtered) {
      index.Build(jc.choices, keep);
    } else {
      index = jc.fit;
    }
    ASSERT_EQ(index.first(), LinearFirstKept(jc.choices, keep)) << "iteration " << iter;
    for (int probe = 0; probe < 8; ++probe) {
      const FreeMap free = RandomFree(rng);
      const int expected = LinearFirstFit(jc.choices, free, keep);
      ASSERT_EQ(index.FirstFit(jc.choices, free), expected)
          << "iteration " << iter << " probe " << probe;
      fits_found += expected >= 0 ? 1 : 0;
    }
  }
  // Both outcomes must be common, or the comparison proves little.
  EXPECT_GT(fits_found, kIterations);
  EXPECT_LT(fits_found, kIterations * 7);
}

TEST(CriusFitIndexTest, FirstFitMatchesLinearScan) { CheckFirstFit(Pruning::kNone, false); }

TEST(CriusFitIndexTest, FirstFitMatchesLinearScanUnderNaPruning) {
  CheckFirstFit(Pruning::kNoAdaptivity, false);
}

TEST(CriusFitIndexTest, FirstFitMatchesLinearScanUnderNhPruning) {
  CheckFirstFit(Pruning::kNoHeterogeneity, false);
}

TEST(CriusFitIndexTest, FirstFitMatchesLinearScanOverDeadlineFeasibleChoices) {
  CheckFirstFit(Pruning::kNone, true);
}

TEST(CriusFitIndexTest, MoveGroupHeadsAreFirstOfEachTypeAndSize) {
  Rng rng(kSeed, "move_groups");
  for (int iter = 0; iter < kIterations; ++iter) {
    const JobCells jc = RandomJobCells(rng, Pruning::kNone);
    std::vector<size_t> expected;
    for (size_t i = 0; i < jc.choices.size(); ++i) {
      bool seen = false;
      for (size_t j = 0; j < i; ++j) {
        seen = seen || (jc.choices[j].cell.gpu_type == jc.choices[i].cell.gpu_type &&
                        jc.choices[j].cell.ngpus == jc.choices[i].cell.ngpus);
      }
      if (!seen) {
        expected.push_back(i);
      }
    }
    std::vector<size_t> heads;
    for (const MoveGroups::Head& head : jc.moves) {
      const Cell& cell = jc.choices[head.index].cell;
      ASSERT_EQ(cell.gpu_type, head.type);
      ASSERT_EQ(cell.ngpus, head.ngpus);
      heads.push_back(head.index);
    }
    ASSERT_EQ(heads, expected) << "iteration " << iter;
  }
}

// --- Scaling moves ------------------------------------------------------------

// For victims whose members depend on nothing but their Cell and ranking.
bool NeverReindex(const VirtualJob&) { return false; }

// A held Cell for a random placed job: 15% of the time one the ranking no
// longer lists (score 0), else a random choice.
void PlaceRandomly(Rng& rng, const JobCells& jc, std::optional<Cell>* cell, double* score) {
  if (rng.Uniform() < 0.15) {
    *cell = Cell{static_cast<GpuType>(rng.UniformInt(0, kNumGpuTypes - 1)),
                 1 << rng.UniformInt(0, 7), 1};
    *score = 0.0;
  } else {
    const int64_t last = static_cast<int64_t>(jc.choices.size()) - 1;
    const CellChoice& held = jc.choices[static_cast<size_t>(rng.UniformInt(0, last))];
    *cell = held.cell;
    *score = held.score;
  }
}

// Which of a job's choices keep its deadline: all of them, or under
// `deadline_filtered` a random half 70% of the time.
std::vector<bool> RandomDeadlines(Rng& rng, const JobCells& jc, bool deadline_filtered) {
  std::vector<bool> ok(jc.choices.size(), true);
  if (deadline_filtered && rng.Uniform() < 0.7) {
    for (size_t i = 0; i < ok.size(); ++i) {
      ok[i] = rng.Uniform() < 0.5;
    }
  }
  return ok;
}

struct MoveCase {
  std::vector<JobCells> cells;  // owns what vjobs point at
  std::vector<JobPlacement> placements;
  std::vector<VirtualJob> vjobs;
  size_t queued = 0;
  FreeMap trial_free{};
  double cumulative_delta = 0.0;
  double potential = 0.0;
  std::vector<std::vector<bool>> deadline_ok;  // [victim][choice]
};

MoveCase RandomMoveCase(Rng& rng, Pruning pruning, bool deadline_filtered) {
  MoveCase mc;
  const int njobs = static_cast<int>(rng.UniformInt(2, 9));
  mc.cells.reserve(static_cast<size_t>(njobs));
  mc.placements.resize(static_cast<size_t>(njobs));
  for (int j = 0; j < njobs; ++j) {
    mc.cells.push_back(RandomJobCells(rng, pruning));
  }
  mc.queued = static_cast<size_t>(rng.UniformInt(0, njobs - 1));
  for (int j = 0; j < njobs; ++j) {
    const JobCells& jc = mc.cells[static_cast<size_t>(j)];
    VirtualJob vj;
    vj.cells = &jc;
    vj.placement = &mc.placements[static_cast<size_t>(j)];
    vj.fit = &jc.fit;
    const bool placed = static_cast<size_t>(j) != mc.queued && rng.Uniform() < 0.85;
    if (placed && !jc.choices.empty()) {
      PlaceRandomly(rng, jc, &vj.cell, &vj.score);
    }
    mc.vjobs.push_back(vj);
    mc.deadline_ok.push_back(RandomDeadlines(rng, jc, deadline_filtered));
  }
  mc.trial_free = RandomFree(rng);
  mc.cumulative_delta = 0.125 * static_cast<double>(rng.UniformInt(-12, 4));
  const JobCells& q = mc.cells[mc.queued];
  mc.potential = q.choices.empty() ? 0.0 : q.choices.front().score;
  return mc;
}

// The reference: the scaling-search step before move groups, scanning every
// victim and every alternative Cell in order. deadline_ok[vi][i] says whether
// choice i of vjobs[vi] keeps its deadline.
ScalingMove BruteForceMove(const std::vector<VirtualJob>& vjobs, size_t queued,
                           const std::vector<std::vector<bool>>& deadline_ok,
                           const FreeMap& trial_free, double cumulative_delta, double potential) {
  const std::vector<CellChoice>& mine_choices = vjobs[queued].cells->choices;
  auto all = [](size_t) { return true; };
  ScalingMove best;
  for (size_t vi = 0; vi < vjobs.size(); ++vi) {
    const VirtualJob& victim = vjobs[vi];
    if (vi == queued || !victim.cell.has_value()) {
      continue;
    }
    const std::vector<CellChoice>& choices = victim.cells->choices;
    for (size_t i = 0; i < choices.size(); ++i) {
      const CellChoice& alt = choices[i];
      if (alt.cell == *victim.cell) {
        continue;
      }
      const bool frees_capacity =
          alt.cell.gpu_type != victim.cell->gpu_type || alt.cell.ngpus < victim.cell->ngpus;
      if (!frees_capacity) {
        continue;
      }
      FreeMap f2 = trial_free;
      Give(*victim.cell, f2);
      if (!Fits(alt.cell, f2) || !deadline_ok[vi][i]) {
        continue;
      }
      Take(alt.cell, f2);
      const int mine = LinearFirstFit(mine_choices, f2, all);
      const bool enables = mine >= 0;
      const double mine_score = enables ? mine_choices[static_cast<size_t>(mine)].score : 0.0;
      const double delta = alt.score - victim.score + mine_score;
      if (!enables && cumulative_delta + delta + potential <= 0.0) {
        continue;
      }
      if ((enables && !best.enables) || ((enables == best.enables) && delta > best.delta)) {
        best = ScalingMove{vi, static_cast<int>(i), delta, enables};
      }
    }
  }
  return best;
}

ScalingMove BruteForceMove(const MoveCase& mc) {
  return BruteForceMove(mc.vjobs, mc.queued, mc.deadline_ok, mc.trial_free, mc.cumulative_delta,
                        mc.potential);
}

// Moves vjobs[vi] to `cell` the way the placement pass does: erased from the
// index before the change and re-inserted after it. Returns the erased entry.
template <typename MeetsDeadline>
MoveClassIndex::Victim Reassign(std::vector<VirtualJob>& vjobs, size_t vi, const Cell& cell,
                                double score, MeetsDeadline&& meets_deadline,
                                MoveClassIndex* index) {
  const MoveClassIndex::Victim erased = index->Erase(*vjobs[vi].placement);
  vjobs[vi].cell = cell;
  vjobs[vi].score = score;
  index->Insert(vjobs[vi], vi, meets_deadline);
  return erased;
}

// Rolls vjobs[vi] back to `cell` the way a failed search does: erased, then
// restored to the entry Reassign erased.
void RollBack(std::vector<VirtualJob>& vjobs, size_t vi, const Cell& cell, double score,
              const MoveClassIndex::Victim& erased, MoveClassIndex* index) {
  index->Erase(*vjobs[vi].placement);
  vjobs[vi].cell = cell;
  vjobs[vi].score = score;
  index->Restore(*vjobs[vi].placement, erased);
}

// meets_deadline for an index over `vjobs`: deadline_ok by position.
auto DeadlinesOf(const std::vector<VirtualJob>& vjobs,
                 const std::vector<std::vector<bool>>& deadline_ok) {
  return [&vjobs, &deadline_ok](const VirtualJob& victim, const CellChoice& choice) {
    const auto vi = static_cast<size_t>(&victim - vjobs.data());
    return static_cast<bool>(
        deadline_ok[vi][static_cast<size_t>(&choice - victim.cells->choices.data())]);
  };
}

// A random walk through one pass: from a random virtual state, each step
// checks the index's pick against BruteForceMove and then applies the pick (a
// search move), rolls back the moves made so far (Restore), places an unplaced job, or
// moves a random victim to a random choice. The queued job, free map and
// cumulative delta are redrawn between steps.
void CheckMoveSequences(Pruning pruning, bool deadline_filtered) {
  constexpr int kSteps = 6;
  Rng rng(kSeed, "scaling_moves");
  int checks = 0;
  int moves_found = 0;
  int enabling = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    MoveCase mc = RandomMoveCase(rng, pruning, deadline_filtered);
    const auto meets_deadline = DeadlinesOf(mc.vjobs, mc.deadline_ok);
    MoveClassIndex index;
    index.Sync(mc.vjobs, meets_deadline, NeverReindex);
    struct Saved {
      size_t vi;
      Cell cell;
      double score;
      MoveClassIndex::Victim erased;
    };
    std::vector<Saved> saved;
    for (int step = 0; step < kSteps; ++step) {
      const VirtualJob& queued = mc.vjobs[mc.queued];
      auto best_fitting = [&](const FreeMap& free) -> const CellChoice* {
        const int i = queued.fit->FirstFit(queued.cells->choices, free);
        return i < 0 ? nullptr : &queued.cells->choices[static_cast<size_t>(i)];
      };
      int64_t evaluated = 0;
      const ScalingMove got = index.BestMove(mc.trial_free, mc.cumulative_delta, mc.potential,
                                             best_fitting, &evaluated);
      const ScalingMove want = BruteForceMove(mc);
      ++checks;
      ASSERT_EQ(got.choice, want.choice) << "iteration " << iter << " step " << step;
      if (want.choice >= 0) {
        ++moves_found;
        enabling += want.enables ? 1 : 0;
        ASSERT_EQ(got.victim, want.victim) << "iteration " << iter << " step " << step;
        ASSERT_EQ(got.enables, want.enables) << "iteration " << iter << " step " << step;
        ASSERT_EQ(got.delta, want.delta) << "iteration " << iter << " step " << step;
        ASSERT_GT(evaluated, 0);
      }

      std::vector<size_t> placed;
      std::vector<size_t> unplaced;  // besides the queued job
      for (size_t vi = 0; vi < mc.vjobs.size(); ++vi) {
        if (mc.vjobs[vi].cell.has_value()) {
          placed.push_back(vi);
        } else if (vi != mc.queued && !mc.cells[vi].choices.empty()) {
          unplaced.push_back(vi);
        }
      }
      const double op = rng.Uniform();
      if (op < 0.4 && want.choice >= 0) {
        VirtualJob& victim = mc.vjobs[want.victim];
        const Cell held = *victim.cell;
        const double held_score = victim.score;
        const CellChoice& alt = victim.cells->choices[static_cast<size_t>(want.choice)];
        saved.push_back(Saved{want.victim, held, held_score,
                              Reassign(mc.vjobs, want.victim, alt.cell, alt.score,
                                       meets_deadline, &index)});
      } else if (op < 0.6 && !saved.empty()) {
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          RollBack(mc.vjobs, it->vi, it->cell, it->score, it->erased, &index);
        }
        saved.clear();
      } else if (op < 0.8 && !unplaced.empty()) {
        const size_t vi = unplaced[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(unplaced.size()) - 1))];
        const std::vector<CellChoice>& choices = mc.cells[vi].choices;
        const CellChoice& c = choices[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(choices.size()) - 1))];
        mc.vjobs[vi].cell = c.cell;
        mc.vjobs[vi].score = c.score;
        index.Insert(mc.vjobs[vi], vi, meets_deadline);
      } else if (!placed.empty()) {
        const size_t vi = placed[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(placed.size()) - 1))];
        const std::vector<CellChoice>& choices = mc.cells[vi].choices;
        const CellChoice& c = choices[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(choices.size()) - 1))];
        const Cell held = *mc.vjobs[vi].cell;
        const double held_score = mc.vjobs[vi].score;
        saved.push_back(Saved{vi, held, held_score,
                              Reassign(mc.vjobs, vi, c.cell, c.score, meets_deadline, &index)});
      }

      // The next search: any unplaced job may be the queued one.
      unplaced.push_back(mc.queued);
      std::erase_if(unplaced, [&](size_t vi) { return mc.vjobs[vi].cell.has_value(); });
      mc.queued = unplaced[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(unplaced.size()) - 1))];
      const JobCells& q = mc.cells[mc.queued];
      mc.potential = q.choices.empty() ? 0.0 : q.choices.front().score;
      mc.trial_free = RandomFree(rng);
      mc.cumulative_delta = 0.125 * static_cast<double>(rng.UniformInt(-12, 4));
    }
  }
  // Both kinds of pick, and the no-move outcome, must all be common.
  EXPECT_GT(enabling, checks / 10);
  EXPECT_GT(moves_found - enabling, checks / 20);
  EXPECT_LT(moves_found, checks - checks / 20);
}

TEST(CriusFitIndexTest, ClassMovesMatchBruteForce) { CheckMoveSequences(Pruning::kNone, false); }

TEST(CriusFitIndexTest, ClassMovesMatchBruteForceUnderNaPruning) {
  CheckMoveSequences(Pruning::kNoAdaptivity, false);
}

TEST(CriusFitIndexTest, ClassMovesMatchBruteForceUnderNhPruning) {
  CheckMoveSequences(Pruning::kNoHeterogeneity, false);
}

TEST(CriusFitIndexTest, ClassMovesMatchBruteForceWithDeadlineFilteredAlternatives) {
  CheckMoveSequences(Pruning::kNone, true);
}

// One job of a multi-round case, at a stable address: its ranking, the
// placement state the persistent index keeps with it, and its Cell between
// passes.
struct RoundJob {
  JobCells cells;
  JobPlacement placement;
  std::optional<Cell> cell;
  double score = 0.0;
  std::vector<bool> deadline_ok;
  // Its deadline test is redrawn every round, so every sync reindexes it.
  bool time_dependent = false;
};

std::unique_ptr<RoundJob> RandomRoundJob(Rng& rng, double placed_probability,
                                         bool deadline_filtered) {
  auto job = std::make_unique<RoundJob>();
  job->cells = RandomJobCells(rng, Pruning::kNone);
  if (!job->cells.choices.empty() && rng.Uniform() < placed_probability) {
    PlaceRandomly(rng, job->cells, &job->cell, &job->score);
  }
  job->deadline_ok = RandomDeadlines(rng, job->cells, deadline_filtered);
  job->time_dependent = deadline_filtered && rng.Uniform() < 0.3;
  return job;
}

// Between-round changes the persistent index only learns of at its next
// sync, counted so the test can require each to be common.
struct Churn {
  int departures = 0;
  int arrivals = 0;
  int moved_outside = 0;
  int replaced_cells = 0;
  int swaps = 0;
  int compactions = 0;
};

// Applies one round's worth of outside changes to `jobs`. As the scheduler
// does when a memo entry leaves, a job that departs or whose JobCells are
// replaced is erased from `index` first.
void ChurnJobs(Rng& rng, bool deadline_filtered, std::vector<std::unique_ptr<RoundJob>>& jobs,
               MoveClassIndex& index, Churn& churn) {
  auto random_job = [&] {
    return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(jobs.size()) - 1));
  };
  auto unindex = [&](RoundJob& job) {
    if (job.placement.victim >= 0) {
      index.Erase(job.placement);
    }
  };
  for (int64_t n = rng.UniformInt(0, 2); n > 0 && jobs.size() > 1; --n) {
    const size_t j = random_job();
    unindex(*jobs[j]);
    jobs.erase(jobs.begin() + static_cast<std::ptrdiff_t>(j));
    ++churn.departures;
  }
  for (int64_t n = rng.UniformInt(0, 2); n > 0; --n) {
    const auto at = static_cast<std::ptrdiff_t>(
        rng.UniformInt(0, static_cast<int64_t>(jobs.size())));
    jobs.insert(jobs.begin() + at, RandomRoundJob(rng, 0.3, deadline_filtered));
    ++churn.arrivals;
  }
  // Preemptions, upscales and starts the index did not see.
  for (std::unique_ptr<RoundJob>& job : jobs) {
    if (job->cells.choices.empty() || rng.Uniform() >= 0.25) {
      continue;
    }
    if (job->cell.has_value() && rng.Uniform() < 0.3) {
      job->cell.reset();
      job->score = 0.0;
    } else {
      PlaceRandomly(rng, job->cells, &job->cell, &job->score);
    }
    ++churn.moved_outside;
  }
  if (rng.Uniform() < 0.3) {
    RoundJob& job = *jobs[random_job()];
    unindex(job);
    job.cells = RandomJobCells(rng, Pruning::kNone);
    job.placement = JobPlacement{};
    job.cell.reset();
    job.score = 0.0;
    if (!job.cells.choices.empty() && rng.Uniform() < 0.7) {
      PlaceRandomly(rng, job.cells, &job.cell, &job.score);
    }
    job.deadline_ok = RandomDeadlines(rng, job.cells, deadline_filtered);
    ++churn.replaced_cells;
  }
  if (jobs.size() > 1 && rng.Uniform() < 0.3) {
    std::swap(jobs[random_job()], jobs[random_job()]);
    ++churn.swaps;
  }
  for (std::unique_ptr<RoundJob>& job : jobs) {
    if (job->time_dependent) {
      job->deadline_ok = RandomDeadlines(rng, job->cells, deadline_filtered);
    }
  }
}

// Multi-round sequences on one persistent index. Each round is a pass: the
// persistent index syncs to the round's jobs by diff, a fresh index syncs from
// empty, and a few search steps check both against BruteForceMove and each
// other (the pick and the classes evaluated), applying search moves,
// rollbacks and placements to both. Between rounds, ChurnJobs changes the
// jobs behind the persistent index's back. Each iteration draws from its own
// stream, so a failure reproduces from (seed, iteration).
void CheckPersistentIndex(bool deadline_filtered) {
  constexpr int kPersistentIterations = 400;
  constexpr int kRounds = 10;
  constexpr int kSteps = 4;
  int checks = 0;
  int moves_found = 0;
  int enabling = 0;
  Churn churn;
  for (int iter = 0; iter < kPersistentIterations; ++iter) {
    const uint64_t seed = kSeed + static_cast<uint64_t>(iter);
    Rng rng(seed, "persistent_classes");
    std::vector<std::unique_ptr<RoundJob>> jobs;
    for (int64_t n = rng.UniformInt(3, 10); n > 0; --n) {
      jobs.push_back(RandomRoundJob(rng, 0.8, deadline_filtered));
    }
    MoveClassIndex persistent;
    for (int round = 0; round < kRounds; ++round) {
      if (round > 0) {
        ChurnJobs(rng, deadline_filtered, jobs, persistent, churn);
      }
      const std::string where = "seed " + std::to_string(seed) + " iteration " +
                                std::to_string(iter) + " round " + std::to_string(round);
      std::vector<VirtualJob> vjobs(jobs.size());
      std::vector<VirtualJob> fresh_vjobs(jobs.size());
      std::vector<JobPlacement> fresh_placements(jobs.size());
      std::vector<std::vector<bool>> deadline_ok;
      for (size_t j = 0; j < jobs.size(); ++j) {
        RoundJob& job = *jobs[j];
        vjobs[j].cells = &job.cells;
        vjobs[j].fit = &job.cells.fit;
        vjobs[j].placement = &job.placement;
        vjobs[j].cell = job.cell;
        vjobs[j].score = job.score;
        fresh_vjobs[j] = vjobs[j];
        fresh_vjobs[j].placement = &fresh_placements[j];
        deadline_ok.push_back(job.deadline_ok);
      }
      const auto meets_deadline = DeadlinesOf(vjobs, deadline_ok);
      const auto fresh_meets_deadline = DeadlinesOf(fresh_vjobs, deadline_ok);
      const size_t stored_before = persistent.stored_members();
      persistent.Sync(vjobs, meets_deadline, [&](const VirtualJob& vj) {
        return jobs[static_cast<size_t>(&vj - vjobs.data())]->time_dependent;
      });
      MoveClassIndex fresh;
      fresh.Sync(fresh_vjobs, fresh_meets_deadline, NeverReindex);
      // Compaction keeps no more dead members than live ones.
      ASSERT_LE(persistent.stored_members(), 2 * fresh.stored_members()) << where;
      churn.compactions += persistent.stored_members() < stored_before ? 1 : 0;

      // Search moves to roll back: the victim, its Cell and score before, and
      // the persistent index's entry for it then.
      struct Saved {
        size_t vi;
        CellChoice held;
        MoveClassIndex::Victim erased;
      };
      std::vector<Saved> saved;
      for (int step = 0; step < kSteps; ++step) {
        std::vector<size_t> unplaced;
        for (size_t vi = 0; vi < vjobs.size(); ++vi) {
          if (!vjobs[vi].cell.has_value() && !vjobs[vi].cells->choices.empty()) {
            unplaced.push_back(vi);
          }
        }
        if (unplaced.empty()) {
          break;
        }
        const size_t queued = unplaced[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(unplaced.size()) - 1))];
        const JobCells& q = *vjobs[queued].cells;
        auto best_fitting = [&](const FreeMap& free) -> const CellChoice* {
          const int i = q.fit.FirstFit(q.choices, free);
          return i < 0 ? nullptr : &q.choices[static_cast<size_t>(i)];
        };
        // Often no GPU free at all, so only a downscale of the held type can
        // make room and the no-move outcome stays common with many victims.
        const FreeMap trial_free = rng.Uniform() < 0.5 ? RandomFree(rng) : FreeMap{};
        const double cumulative_delta = 0.125 * static_cast<double>(rng.UniformInt(-12, 4));
        const double potential = q.choices.front().score;
        int64_t evaluated = 0;
        int64_t fresh_evaluated = 0;
        const ScalingMove got = persistent.BestMove(trial_free, cumulative_delta, potential,
                                                    best_fitting, &evaluated);
        const ScalingMove fresh_got = fresh.BestMove(trial_free, cumulative_delta, potential,
                                                     best_fitting, &fresh_evaluated);
        const ScalingMove want = BruteForceMove(vjobs, queued, deadline_ok, trial_free,
                                                cumulative_delta, potential);
        const std::string at = where + " step " + std::to_string(step);
        ++checks;
        ASSERT_EQ(evaluated, fresh_evaluated) << at;
        ASSERT_EQ(got.choice, want.choice) << at;
        ASSERT_EQ(fresh_got.choice, want.choice) << at;
        if (want.choice >= 0) {
          ++moves_found;
          enabling += want.enables ? 1 : 0;
          ASSERT_EQ(got.victim, want.victim) << at;
          ASSERT_EQ(got.enables, want.enables) << at;
          ASSERT_EQ(got.delta, want.delta) << at;
          ASSERT_EQ(fresh_got.victim, want.victim) << at;
        }

        // Apply the same change to both indexes: the search move, a rollback,
        // or the queued job's placement.
        const double op = rng.Uniform();
        if (op < 0.5 && want.choice >= 0) {
          const CellChoice& alt =
              vjobs[want.victim].cells->choices[static_cast<size_t>(want.choice)];
          const CellChoice held{*vjobs[want.victim].cell, vjobs[want.victim].score};
          saved.push_back(Saved{want.victim, held,
                                Reassign(vjobs, want.victim, alt.cell, alt.score, meets_deadline,
                                         &persistent)});
          Reassign(fresh_vjobs, want.victim, alt.cell, alt.score, fresh_meets_deadline, &fresh);
        } else if (op < 0.7 && !saved.empty()) {
          // The persistent index restores, the fresh one re-inserts.
          for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
            RollBack(vjobs, it->vi, it->held.cell, it->held.score, it->erased, &persistent);
            Reassign(fresh_vjobs, it->vi, it->held.cell, it->held.score, fresh_meets_deadline,
                     &fresh);
          }
          saved.clear();
        } else {
          const CellChoice& c = q.choices[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(q.choices.size()) - 1))];
          for (std::vector<VirtualJob>* pass : {&vjobs, &fresh_vjobs}) {
            (*pass)[queued].cell = c.cell;
            (*pass)[queued].score = c.score;
          }
          persistent.Insert(vjobs[queued], queued, meets_deadline);
          fresh.Insert(fresh_vjobs[queued], queued, fresh_meets_deadline);
        }
      }
      // The pass's outcome is the next round's running state.
      for (size_t j = 0; j < jobs.size(); ++j) {
        jobs[j]->cell = vjobs[j].cell;
        jobs[j]->score = vjobs[j].score;
      }
    }
  }
  // Both kinds of pick, the no-move outcome, and every kind of churn must be
  // common.
  EXPECT_GT(enabling, checks / 10);
  EXPECT_GT(moves_found - enabling, checks / 20);
  EXPECT_LT(moves_found, checks - checks / 20);
  EXPECT_GT(churn.departures, kPersistentIterations);
  EXPECT_GT(churn.arrivals, kPersistentIterations);
  EXPECT_GT(churn.moved_outside, kPersistentIterations);
  EXPECT_GT(churn.replaced_cells, kPersistentIterations);
  EXPECT_GT(churn.swaps, kPersistentIterations);
  EXPECT_GT(churn.compactions, kPersistentIterations);
  std::printf("checks %d, moves %d (%d enabling); departures %d, arrivals %d, moved %d, "
              "replaced %d, swaps %d, compactions %d\n",
              checks, moves_found, enabling, churn.departures, churn.arrivals,
              churn.moved_outside, churn.replaced_cells, churn.swaps, churn.compactions);
}

TEST(CriusFitIndexTest, PersistentIndexMatchesFreshAcrossRounds) { CheckPersistentIndex(false); }

TEST(CriusFitIndexTest, PersistentIndexMatchesFreshAcrossRoundsWithDeadlines) {
  CheckPersistentIndex(true);
}

TEST(CriusFitIndexTest, EqualDeltasBreakTiesByVictimThenChoiceIndex) {
  // Two victims, each holding an 8-GPU A100 Cell, each able to step down to
  // a 4-GPU A100 Cell or exchange to an 8-GPU A40 Cell of the same score:
  // every move has the same delta, so the pick is victim 0's lowest index.
  JobCells victim_cells;
  victim_cells.choices = {CellChoice{Cell{GpuType::kA100, 8, 1}, 1.0},
                          CellChoice{Cell{GpuType::kA40, 8, 1}, 0.5},
                          CellChoice{Cell{GpuType::kA100, 4, 1}, 0.5}};
  victim_cells.fit.Build(victim_cells.choices);
  victim_cells.moves.Build(victim_cells.choices);
  JobCells queued_cells;
  queued_cells.choices = {CellChoice{Cell{GpuType::kA100, 4, 1}, 1.0}};
  queued_cells.fit.Build(queued_cells.choices);
  queued_cells.moves.Build(queued_cells.choices);

  std::vector<JobPlacement> placements(3);
  std::vector<VirtualJob> vjobs(3);
  for (size_t i = 0; i < 2; ++i) {
    vjobs[i].cells = &victim_cells;
    vjobs[i].fit = &victim_cells.fit;
    vjobs[i].cell = victim_cells.choices[0].cell;
    vjobs[i].score = 1.0;
  }
  vjobs[2].cells = &queued_cells;
  vjobs[2].fit = &queued_cells.fit;
  for (size_t i = 0; i < 3; ++i) {
    vjobs[i].placement = &placements[i];
  }

  FreeMap free{};
  free[static_cast<int>(GpuType::kA40)] = 8;
  auto any_deadline = [](const VirtualJob&, const CellChoice&) { return true; };
  auto best_fitting = [&](const FreeMap& f) -> const CellChoice* {
    const int i = queued_cells.fit.FirstFit(queued_cells.choices, f);
    return i < 0 ? nullptr : &queued_cells.choices[static_cast<size_t>(i)];
  };
  MoveClassIndex index;
  index.Sync(vjobs, any_deadline, NeverReindex);
  int64_t evaluated = 0;
  const ScalingMove move = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(move.victim, 0u);
  EXPECT_EQ(move.choice, 1);
  EXPECT_TRUE(move.enables);
  EXPECT_EQ(move.delta, 0.5);
  // One evaluation per class: (A100 x8 -> A40 x8) and (A100 x8 -> A100 x4).
  EXPECT_EQ(evaluated, 2);

  // A deadline that rules the exchange out leaves the downscale, once the
  // sync reindexes the victims under it.
  auto no_exchange = [](const VirtualJob&, const CellChoice& c) {
    return c.cell.gpu_type == GpuType::kA100;
  };
  index.Sync(vjobs, no_exchange, [](const VirtualJob&) { return true; });
  const ScalingMove downscale = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(downscale.victim, 0u);
  EXPECT_EQ(downscale.choice, 2);
}

TEST(CriusFitIndexTest, SwappedVictimsSwapTheTieBreak) {
  // Victims A and B hold the same 8-GPU A100 Cell with the same ranking, so
  // their moves tie and the lower position wins. Once a sync sees them in the
  // other order, the class's best must follow: position 0 is now B.
  JobCells cells;
  cells.choices = {CellChoice{Cell{GpuType::kA100, 8, 1}, 1.0},
                   CellChoice{Cell{GpuType::kA100, 4, 1}, 0.5}};
  cells.fit.Build(cells.choices);
  cells.moves.Build(cells.choices);
  JobCells queued_cells;
  queued_cells.choices = {CellChoice{Cell{GpuType::kA100, 4, 1}, 1.0}};
  queued_cells.fit.Build(queued_cells.choices);
  queued_cells.moves.Build(queued_cells.choices);

  std::vector<JobPlacement> placements(3);  // A, B, queued
  auto pass = [&](size_t first, size_t second) {
    std::vector<VirtualJob> vjobs(3);
    for (const auto& [vi, job] : {std::pair{size_t{0}, first}, std::pair{size_t{1}, second}}) {
      vjobs[vi].cells = &cells;
      vjobs[vi].fit = &cells.fit;
      vjobs[vi].placement = &placements[job];
      vjobs[vi].cell = cells.choices[0].cell;
      vjobs[vi].score = 1.0;
    }
    vjobs[2].cells = &queued_cells;
    vjobs[2].fit = &queued_cells.fit;
    vjobs[2].placement = &placements[2];
    return vjobs;
  };
  auto any_deadline = [](const VirtualJob&, const CellChoice&) { return true; };
  auto best_fitting = [&](const FreeMap& f) -> const CellChoice* {
    const int i = queued_cells.fit.FirstFit(queued_cells.choices, f);
    return i < 0 ? nullptr : &queued_cells.choices[static_cast<size_t>(i)];
  };
  MoveClassIndex index;
  const FreeMap free{};
  int64_t evaluated = 0;
  const std::vector<VirtualJob> a_first = pass(0, 1);
  index.Sync(a_first, any_deadline, NeverReindex);
  EXPECT_EQ(index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated).victim, 0u);
  const int32_t slot_a = placements[0].victim;

  const std::vector<VirtualJob> b_first = pass(1, 0);
  index.Sync(b_first, any_deadline, NeverReindex);
  EXPECT_EQ(placements[0].victim, slot_a);  // A survived the sync
  const ScalingMove move = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(move.victim, 0u);
  EXPECT_EQ(move.choice, 1);
  EXPECT_EQ(evaluated, 2);
}

TEST(CriusFitIndexTest, RoundingTieGoesToTheLowerVictimIndex) {
  // Victims 0 and 1 both hold an 8-GPU A100 Cell at score 0.25 and can step
  // down to 4 GPUs: victim 0 at the same score (gain 0), victim 1 at
  // 0.25 + 2^-54 (gain 2^-54, one ulp of 0.25). Once the queued job's score
  // 1.0 is added both deltas round to 1.0, so the lower victim index must win
  // even though the class's best member by gain is victim 1.
  const double ulp = std::ldexp(1.0, -54);
  ASSERT_EQ((0.25 + ulp) - 0.25, ulp);
  ASSERT_EQ(ulp + 1.0, 0.0 + 1.0);
  JobCells low_gain;
  low_gain.choices = {CellChoice{Cell{GpuType::kA100, 8, 1}, 0.25},
                      CellChoice{Cell{GpuType::kA100, 4, 1}, 0.25}};
  JobCells high_gain;
  high_gain.choices = {CellChoice{Cell{GpuType::kA100, 4, 1}, 0.25 + ulp},
                       CellChoice{Cell{GpuType::kA100, 8, 1}, 0.25}};
  JobCells queued_cells;
  queued_cells.choices = {CellChoice{Cell{GpuType::kA100, 4, 1}, 1.0}};
  for (JobCells* jc : {&low_gain, &high_gain, &queued_cells}) {
    jc->fit.Build(jc->choices);
    jc->moves.Build(jc->choices);
  }

  std::vector<JobPlacement> placements(3);
  std::vector<VirtualJob> vjobs(3);
  vjobs[0].cells = &low_gain;
  vjobs[1].cells = &high_gain;
  vjobs[2].cells = &queued_cells;
  for (size_t i = 0; i < 3; ++i) {
    vjobs[i].fit = &vjobs[i].cells->fit;
    vjobs[i].placement = &placements[i];
  }
  for (size_t i = 0; i < 2; ++i) {
    vjobs[i].cell = Cell{GpuType::kA100, 8, 1};
    vjobs[i].score = 0.25;
  }

  auto any_deadline = [](const VirtualJob&, const CellChoice&) { return true; };
  auto best_fitting = [&](const FreeMap& f) -> const CellChoice* {
    const int i = queued_cells.fit.FirstFit(queued_cells.choices, f);
    return i < 0 ? nullptr : &queued_cells.choices[static_cast<size_t>(i)];
  };
  MoveClassIndex index;
  index.Sync(vjobs, any_deadline, NeverReindex);
  const FreeMap free{};
  int64_t evaluated = 0;
  const ScalingMove move = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(evaluated, 1);
  EXPECT_TRUE(move.enables);
  EXPECT_EQ(move.delta, 1.0);
  EXPECT_EQ(move.victim, 0u);
  EXPECT_EQ(move.choice, 1);

  // The same pick once victim 1, the class's best member, has left and come
  // back, so the class recomputes its best.
  index.Erase(placements[1]);
  index.Insert(vjobs[1], 1, any_deadline);
  const ScalingMove again = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(again.victim, 0u);
  EXPECT_EQ(again.choice, 1);

  // And when victim 0 is placed only after the sync, so it joins the class
  // below its best member.
  vjobs[0].cell.reset();
  index.Sync(vjobs, any_deadline, NeverReindex);
  vjobs[0].cell = Cell{GpuType::kA100, 8, 1};
  index.Insert(vjobs[0], 0, any_deadline);
  const ScalingMove late = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(late.victim, 0u);
  EXPECT_EQ(late.choice, 1);
}

TEST(StrandingScoreTest, PowerOfTwoPoolsScoreZero) {
  EXPECT_DOUBLE_EQ(StrandingScore({0, 0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(StrandingScore({8, 4, 2, 1}), 0.0);
  // 3 free = biggest power-of-two cell is 2, one GPU stranded.
  EXPECT_NEAR(StrandingScore({3, 0, 0, 0}), 1.0 / 3.0, 1e-12);
  // 6 + 5 free: 2 + 1 stranded over 11.
  EXPECT_NEAR(StrandingScore({6, 5, 0, 0}), 3.0 / 11.0, 1e-12);
}

TEST(StrandingScoreTest, GiveAndTakeMatchTheUpdatedMap) {
  Rng rng(kSeed);
  for (int iter = 0; iter < kIterations; ++iter) {
    FreeMap free{};
    for (int& f : free) {
      f = static_cast<int>(rng.UniformInt(0, 16));
    }
    const Cell give{static_cast<GpuType>(rng.UniformInt(0, kNumGpuTypes - 1)),
                    1 << rng.UniformInt(0, 3), 1};
    FreeMap after = free;
    Give(give, after);
    const GpuType take_type = static_cast<GpuType>(rng.UniformInt(0, kNumGpuTypes - 1));
    const int room = after[static_cast<int>(take_type)];
    if (room < 1) {
      continue;
    }
    const Cell take{take_type, static_cast<int>(rng.UniformInt(1, room)), 1};
    FreeMap taken = free;
    if (Fits(take, taken)) {
      Take(take, taken);
      EXPECT_EQ(StrandingScore(free, nullptr, &take), StrandingScore(taken)) << "iter " << iter;
    }
    EXPECT_EQ(StrandingScore(free, &give, nullptr), StrandingScore(after)) << "iter " << iter;
    Take(take, after);
    EXPECT_EQ(StrandingScore(free, &give, &take), StrandingScore(after)) << "iter " << iter;
  }
}

// --- Failed-chain memo ----------------------------------------------------------

// One placement pass's state for the failed-chain memo: placed victims, a
// queue of up to 8 unplaced jobs, a mostly exhausted free map, and the class
// index over the victims. `cells` is filled before `vjobs` points into it.
struct ChainPass {
  std::vector<JobCells> cells;
  std::vector<JobPlacement> placements;
  std::vector<VirtualJob> vjobs;
  std::vector<std::vector<bool>> deadline_ok;  // [job][choice]
  std::vector<size_t> queue;                   // the queued jobs, in placement order
  FreeMap free{};
  MoveClassIndex index;
};

void RandomChainPass(Rng& rng, bool deadline_filtered, ChainPass* pass) {
  const auto victims = static_cast<size_t>(rng.UniformInt(3, 12));
  const auto queued = static_cast<size_t>(rng.UniformInt(1, 8));
  const size_t njobs = victims + queued;
  pass->cells.reserve(njobs);
  for (size_t j = 0; j < njobs; ++j) {
    pass->cells.push_back(RandomJobCells(rng, Pruning::kNone));
  }
  pass->placements.resize(njobs);
  for (size_t j = 0; j < njobs; ++j) {
    const JobCells& jc = pass->cells[j];
    VirtualJob vj;
    vj.cells = &jc;
    vj.placement = &pass->placements[j];
    vj.fit = &jc.fit;
    if (j < victims && !jc.choices.empty()) {
      PlaceRandomly(rng, jc, &vj.cell, &vj.score);
    } else if (j >= victims) {
      pass->queue.push_back(j);
    }
    pass->vjobs.push_back(vj);
    pass->deadline_ok.push_back(RandomDeadlines(rng, jc, deadline_filtered));
  }
  for (int& f : pass->free) {
    f = rng.Uniform() < 0.5 ? 0 : static_cast<int>(rng.UniformInt(0, 16));
  }
}

// A scaling search's outcome: whether the chain decided it, whether it
// placed the job, and the moves it made as (victim, choice).
struct ChainSearch {
  bool memo_hit = false;
  bool placed = false;
  std::vector<std::pair<size_t, int>> moves;
};

// One scaling search for vjobs[qi], in the loop CriusScheduler::ScheduleOnce
// runs. Without a chain it is the reference: every step runs BestMove, and
// the moves are rolled back whatever the outcome. With one, the chain may
// decide the search; otherwise the search replays the steps MustFail allows,
// records at the chain's end, and a placement is kept (and clears the chain)
// while a failure rolls back.
template <typename MeetsDeadline>
ChainSearch RunChainSearch(ChainPass& pass, size_t qi, int depth,
                           const MeetsDeadline& meets_deadline, FailedChain* chain,
                           int64_t* evaluated) {
  VirtualJob& vj = pass.vjobs[qi];
  auto mine_after = [&](const FreeMap& f) -> const CellChoice* {
    const int i = vj.fit->FirstFit(vj.cells->choices, f);
    return i < 0 ? nullptr : &vj.cells->choices[static_cast<size_t>(i)];
  };
  const int top = vj.fit->first();
  const double potential =
      top < 0 ? 0.0 : std::max(0.0, vj.cells->choices[static_cast<size_t>(top)].score);
  ChainSearch out;
  size_t replayable = 0;
  if (chain != nullptr &&
      chain->MustFail(depth, potential, [&](const FreeMap& f) { return mine_after(f) == nullptr; },
                      &replayable)) {
    out.memo_hit = true;
    return out;
  }
  struct Saved {
    size_t vi;
    CellChoice held;
    MoveClassIndex::Victim erased;
  };
  std::vector<Saved> saved;
  FreeMap trial = pass.free;
  FreeMap envelope{};
  double cumulative_delta = 0.0;
  const CellChoice* mine = nullptr;
  for (int d = 0; d < depth && !out.placed; ++d) {
    const auto step = static_cast<size_t>(d);
    ScalingMove move;
    if (step < replayable) {
      move = chain->pick(step);
    } else {
      const bool extends = chain != nullptr && chain->Extends(step);
      move = pass.index.BestMove(trial, cumulative_delta, potential, mine_after, evaluated,
                                 extends ? &envelope : nullptr);
      if (extends) {
        chain->Record(step, move, cumulative_delta, envelope);
      }
    }
    if (move.choice < 0 || (move.enables && cumulative_delta + move.delta <= 0.0)) {
      break;
    }
    out.moves.emplace_back(move.victim, move.choice);
    const CellChoice& alt = pass.vjobs[move.victim].cells->choices[static_cast<size_t>(move.choice)];
    const CellChoice held{*pass.vjobs[move.victim].cell, pass.vjobs[move.victim].score};
    Give(held.cell, trial);
    Take(alt.cell, trial);
    cumulative_delta += alt.score - held.score;
    saved.push_back(Saved{move.victim, held,
                          Reassign(pass.vjobs, move.victim, alt.cell, alt.score, meets_deadline,
                                   &pass.index)});
    mine = mine_after(trial);
    out.placed = mine != nullptr && cumulative_delta + mine->score > 0.0;
  }
  if (out.placed && chain != nullptr) {
    vj.cell = mine->cell;
    vj.score = mine->score;
    Take(mine->cell, trial);
    pass.index.Insert(vj, qi, meets_deadline);
    pass.free = trial;
    chain->Clear();
  } else {
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      RollBack(pass.vjobs, it->vi, it->held.cell, it->held.score, it->erased, &pass.index);
    }
  }
  return out;
}

// Random passes at depths 1 to 5: every queued job either takes a free fit
// (which clears the chain) or is searched twice from the same state, once by
// the reference and once through the chain. A search the chain decides must
// fail the reference; any other must make the reference's moves and outcome,
// with no more classes evaluated. Each iteration draws from its own stream,
// so a failure reproduces from (seed, iteration).
void CheckFailedChain(bool deadline_filtered) {
  constexpr int kChainIterations = 3000;
  int searches = 0;
  int failed = 0;
  int hits = 0;
  int replayed = 0;  // searches the chain did not decide but shortened
  for (int iter = 0; iter < kChainIterations; ++iter) {
    const uint64_t seed = kSeed + static_cast<uint64_t>(iter);
    Rng rng(seed, "failed_chain");
    const int depth = static_cast<int>(rng.UniformInt(1, 5));
    ChainPass pass;
    RandomChainPass(rng, deadline_filtered, &pass);
    const auto meets_deadline = DeadlinesOf(pass.vjobs, pass.deadline_ok);
    pass.index.Sync(pass.vjobs, meets_deadline, NeverReindex);
    FailedChain chain;
    for (size_t qi : pass.queue) {
      VirtualJob& vj = pass.vjobs[qi];
      const std::string where = "seed " + std::to_string(seed) + " iteration " +
                                std::to_string(iter) + " depth " + std::to_string(depth) +
                                " job " + std::to_string(qi);
      const int fit = vj.fit->FirstFit(vj.cells->choices, pass.free);
      if (fit >= 0) {
        const CellChoice& c = vj.cells->choices[static_cast<size_t>(fit)];
        vj.cell = c.cell;
        vj.score = c.score;
        Take(c.cell, pass.free);
        pass.index.Insert(vj, qi, meets_deadline);
        chain.Clear();
        continue;
      }
      int64_t reference_evaluated = 0;
      int64_t chain_evaluated = 0;
      const ChainSearch want =
          RunChainSearch(pass, qi, depth, meets_deadline, nullptr, &reference_evaluated);
      const bool chain_empty = chain.Extends(0);
      const ChainSearch got =
          RunChainSearch(pass, qi, depth, meets_deadline, &chain, &chain_evaluated);
      ++searches;
      failed += want.placed ? 0 : 1;
      if (got.memo_hit) {
        ++hits;
        ASSERT_FALSE(want.placed) << where << ": the chain decided a search that places";
        continue;
      }
      ASSERT_EQ(got.placed, want.placed) << where;
      ASSERT_EQ(got.moves, want.moves) << where;
      ASSERT_LE(chain_evaluated, reference_evaluated) << where;
      replayed += !chain_empty && chain_evaluated < reference_evaluated ? 1 : 0;
    }
  }
  std::printf("searches %d, failed %d, decided by the chain %d, shortened %d\n", searches,
              failed, hits, replayed);
  // The memo must decide many failures, and both outcomes must stay common.
  EXPECT_GT(hits, failed / 8);
  EXPECT_GT(failed, searches / 4);
  EXPECT_GT(searches - failed, searches / 20);
  EXPECT_GT(replayed, 0);
}

TEST(CriusFailedChainTest, DecidedSearchesFailTheReference) { CheckFailedChain(false); }

TEST(CriusFailedChainTest, DecidedSearchesFailTheReferenceWithDeadlineFilteredAlternatives) {
  CheckFailedChain(true);
}

}  // namespace
}  // namespace crius
