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
//     search moves, rollbacks and placements, and
//   * StrandingScore with a Cell given back and one taken equals the score of
//     the free map with both applied.
// Every case is reproducible from (seed, iteration), printed on failure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
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

struct MoveCase {
  std::vector<JobCells> cells;  // owns what vjobs point at
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
  for (int j = 0; j < njobs; ++j) {
    mc.cells.push_back(RandomJobCells(rng, pruning));
  }
  mc.queued = static_cast<size_t>(rng.UniformInt(0, njobs - 1));
  for (int j = 0; j < njobs; ++j) {
    const JobCells& jc = mc.cells[static_cast<size_t>(j)];
    VirtualJob vj;
    vj.cells = &jc;
    vj.fit = &jc.fit;
    const bool placed = static_cast<size_t>(j) != mc.queued && rng.Uniform() < 0.85;
    if (placed && !jc.choices.empty()) {
      if (rng.Uniform() < 0.15) {
        // A running Cell the ranking no longer lists scores 0.
        vj.cell = Cell{static_cast<GpuType>(rng.UniformInt(0, kNumGpuTypes - 1)),
                       1 << rng.UniformInt(0, 7), 1};
        vj.score = 0.0;
      } else {
        const int64_t last = static_cast<int64_t>(jc.choices.size()) - 1;
        const CellChoice& held = jc.choices[static_cast<size_t>(rng.UniformInt(0, last))];
        vj.cell = held.cell;
        vj.score = held.score;
      }
    }
    mc.vjobs.push_back(vj);
    std::vector<bool> ok(jc.choices.size(), true);
    if (deadline_filtered && rng.Uniform() < 0.7) {
      for (size_t i = 0; i < ok.size(); ++i) {
        ok[i] = rng.Uniform() < 0.5;
      }
    }
    mc.deadline_ok.push_back(ok);
  }
  mc.trial_free = RandomFree(rng);
  mc.cumulative_delta = 0.125 * static_cast<double>(rng.UniformInt(-12, 4));
  const JobCells& q = mc.cells[mc.queued];
  mc.potential = q.choices.empty() ? 0.0 : q.choices.front().score;
  return mc;
}

// The reference: the scaling-search step before move groups, scanning every
// victim and every alternative Cell in order.
ScalingMove BruteForceMove(const MoveCase& mc) {
  const std::vector<CellChoice>& mine_choices = mc.cells[mc.queued].choices;
  auto all = [](size_t) { return true; };
  ScalingMove best;
  for (size_t vi = 0; vi < mc.vjobs.size(); ++vi) {
    const VirtualJob& victim = mc.vjobs[vi];
    if (vi == mc.queued || !victim.cell.has_value()) {
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
      FreeMap f2 = mc.trial_free;
      Give(*victim.cell, f2);
      if (!Fits(alt.cell, f2) || !mc.deadline_ok[vi][i]) {
        continue;
      }
      Take(alt.cell, f2);
      const int mine = LinearFirstFit(mine_choices, f2, all);
      const bool enables = mine >= 0;
      const double mine_score = enables ? mine_choices[static_cast<size_t>(mine)].score : 0.0;
      const double delta = alt.score - victim.score + mine_score;
      if (!enables && mc.cumulative_delta + delta + mc.potential <= 0.0) {
        continue;
      }
      if ((enables && !best.enables) || ((enables == best.enables) && delta > best.delta)) {
        best = ScalingMove{vi, static_cast<int>(i), delta, enables};
      }
    }
  }
  return best;
}

// Moves vjobs[vi] to `cell` the way the placement pass does: erased from the
// index before the change and re-inserted after it.
template <typename MeetsDeadline>
void Reassign(std::vector<VirtualJob>& vjobs, size_t vi, std::optional<Cell> cell, double score,
              MeetsDeadline&& meets_deadline, MoveClassIndex* index) {
  index->Erase(vi);
  vjobs[vi].cell = cell;
  vjobs[vi].score = score;
  index->Insert(vjobs, vi, meets_deadline);
}

// A random walk through one pass: from a random virtual state, each step
// checks the index's pick against BruteForceMove and then applies the pick (a
// search move), rolls back the moves made so far, places an unplaced job, or
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
    auto meets_deadline = [&](const VirtualJob& victim, const CellChoice& choice) {
      const size_t vi = static_cast<size_t>(&victim - mc.vjobs.data());
      return static_cast<bool>(
          mc.deadline_ok[vi][static_cast<size_t>(&choice - victim.cells->choices.data())]);
    };
    MoveClassIndex index;
    index.Build(mc.vjobs, meets_deadline);
    struct Saved {
      size_t vi;
      std::optional<Cell> cell;
      double score;
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
        saved.push_back(Saved{want.victim, victim.cell, victim.score});
        const CellChoice& alt = victim.cells->choices[static_cast<size_t>(want.choice)];
        Reassign(mc.vjobs, want.victim, alt.cell, alt.score, meets_deadline, &index);
      } else if (op < 0.6 && !saved.empty()) {
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          Reassign(mc.vjobs, it->vi, it->cell, it->score, meets_deadline, &index);
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
        index.Insert(mc.vjobs, vi, meets_deadline);
      } else if (!placed.empty()) {
        const size_t vi = placed[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(placed.size()) - 1))];
        const std::vector<CellChoice>& choices = mc.cells[vi].choices;
        const CellChoice& c = choices[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(choices.size()) - 1))];
        saved.push_back(Saved{vi, mc.vjobs[vi].cell, mc.vjobs[vi].score});
        Reassign(mc.vjobs, vi, c.cell, c.score, meets_deadline, &index);
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

  std::vector<VirtualJob> vjobs(3);
  for (size_t i = 0; i < 2; ++i) {
    vjobs[i].cells = &victim_cells;
    vjobs[i].fit = &victim_cells.fit;
    vjobs[i].cell = victim_cells.choices[0].cell;
    vjobs[i].score = 1.0;
  }
  vjobs[2].cells = &queued_cells;
  vjobs[2].fit = &queued_cells.fit;

  FreeMap free{};
  free[static_cast<int>(GpuType::kA40)] = 8;
  auto any_deadline = [](const VirtualJob&, const CellChoice&) { return true; };
  auto best_fitting = [&](const FreeMap& f) -> const CellChoice* {
    const int i = queued_cells.fit.FirstFit(queued_cells.choices, f);
    return i < 0 ? nullptr : &queued_cells.choices[static_cast<size_t>(i)];
  };
  MoveClassIndex index;
  index.Build(vjobs, any_deadline);
  int64_t evaluated = 0;
  const ScalingMove move = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(move.victim, 0u);
  EXPECT_EQ(move.choice, 1);
  EXPECT_TRUE(move.enables);
  EXPECT_EQ(move.delta, 0.5);
  // One evaluation per class: (A100 x8 -> A40 x8) and (A100 x8 -> A100 x4).
  EXPECT_EQ(evaluated, 2);

  // A deadline that rules the exchange out leaves the downscale.
  auto no_exchange = [](const VirtualJob&, const CellChoice& c) {
    return c.cell.gpu_type == GpuType::kA100;
  };
  index.Build(vjobs, no_exchange);
  const ScalingMove downscale = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(downscale.victim, 0u);
  EXPECT_EQ(downscale.choice, 2);
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

  std::vector<VirtualJob> vjobs(3);
  vjobs[0].cells = &low_gain;
  vjobs[1].cells = &high_gain;
  vjobs[2].cells = &queued_cells;
  for (VirtualJob& vj : vjobs) {
    vj.fit = &vj.cells->fit;
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
  index.Build(vjobs, any_deadline);
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
  index.Erase(1);
  index.Insert(vjobs, 1, any_deadline);
  const ScalingMove again = index.BestMove(free, 0.0, 1.0, best_fitting, &evaluated);
  EXPECT_EQ(again.victim, 0u);
  EXPECT_EQ(again.choice, 1);

  // And when victim 0 is placed only after the index was built, so it joins
  // the class below its best member.
  vjobs[0].cell.reset();
  index.Build(vjobs, any_deadline);
  vjobs[0].cell = Cell{GpuType::kA100, 8, 1};
  index.Insert(vjobs, 0, any_deadline);
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

}  // namespace
}  // namespace crius
