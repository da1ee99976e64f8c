// Allocation-free index over one job's ranked Cell choices, and the
// Algorithm-1 scaling-search step that runs on it (DESIGN.md "Indexed
// placement pass").
//
// CriusScheduler memoizes each job's scored Cells per (job, cluster health)
// and builds this index next to them, so its cost follows change, not rounds.
// The placement pass asks two questions millions of times per trace:
//
//   * First fit: which is the highest-scoring choice that fits a free map?
//     Within one GPU type a choice can only be the first fit if its GPU count
//     is a new running minimum in score order -- an earlier choice needing no
//     more GPUs would fit first. The §6.1 candidate sizes {N/2, N, 2N} give at
//     most three such counts per type, so a lookup reads at most 3 entries
//     per type (FitIndex).
//   * Best scaling move: which (victim, alternative Cell) pair maximizes
//     (enables placement, throughput delta)? Everything an evaluation reads
//     except the alternative's own score -- whether it frees capacity,
//     whether it fits, the free map it leaves and so the queued job's best
//     fit -- depends only on the alternative's (type, ngpus). Within such a
//     group the highest-scoring member has the highest delta and the lowest
//     choice index, so the search walks group heads only (MoveGroups,
//     BestScalingMove).

#ifndef SRC_SCHED_PLACEMENT_INDEX_H_
#define SRC_SCHED_PLACEMENT_INDEX_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/core/cell.h"
#include "src/hw/gpu.h"
#include "src/sched/scheduler.h"
#include "src/util/check.h"

namespace crius {

// Free GPUs per type during a virtual placement pass.
using FreeMap = std::array<int, kNumGpuTypes>;

inline bool Fits(const Cell& cell, const FreeMap& free) {
  return free[static_cast<int>(cell.gpu_type)] >= cell.ngpus;
}

inline void Take(const Cell& cell, FreeMap& free) {
  free[static_cast<int>(cell.gpu_type)] -= cell.ngpus;
  CRIUS_CHECK(free[static_cast<int>(cell.gpu_type)] >= 0);
}

inline void Give(const Cell& cell, FreeMap& free) {
  free[static_cast<int>(cell.gpu_type)] += cell.ngpus;
}

struct CellChoice {
  Cell cell;
  double score = 0.0;  // estimated normalized throughput
};

// First-fit lookup over a score-descending choice list, or over the subset of
// it a filter keeps (deadline-feasible choices). Holds choice indices only
// (one byte each), so it adds little to a memo entry.
class FitIndex {
 public:
  // Distinct GPU counts per type: the §6.1 candidate sizes {N/2, N, 2N}.
  static constexpr int kMaxSizesPerType = 3;

  FitIndex() { entries_.fill(kNone); }

  // Indexes choices[i] for every i with keep(i) true.
  template <typename Keep>
  void Build(const std::vector<CellChoice>& choices, Keep&& keep) {
    CRIUS_CHECK(choices.size() < kNone);
    *this = FitIndex{};
    std::array<int, kNumGpuTypes> count{};
    for (size_t i = 0; i < choices.size(); ++i) {
      if (!keep(i)) {
        continue;
      }
      const Cell& cell = choices[i].cell;
      if (first_ == kNone) {
        first_ = static_cast<uint8_t>(i);
      }
      const int t = static_cast<int>(cell.gpu_type);
      uint8_t* slots = &entries_[static_cast<size_t>(t * kMaxSizesPerType)];
      if (count[t] > 0 && choices[slots[count[t] - 1]].cell.ngpus <= cell.ngpus) {
        continue;  // an earlier choice of this type fits whenever this one does
      }
      CRIUS_CHECK(count[t] < kMaxSizesPerType);
      slots[count[t]++] = static_cast<uint8_t>(i);
    }
  }
  void Build(const std::vector<CellChoice>& choices) {
    Build(choices, [](size_t) { return true; });
  }

  // Index of the highest-scoring indexed choice that fits `free`, or -1.
  // `choices` is the list the index was built over.
  int FirstFit(const std::vector<CellChoice>& choices, const FreeMap& free) const {
    int best = kNone;
    for (int t = 0; t < kNumGpuTypes; ++t) {
      // A type's entries run in score order with strictly falling GPU counts,
      // so the first that fits is the type's earliest fitting choice.
      for (int k = 0; k < kMaxSizesPerType; ++k) {
        const uint8_t i = entries_[static_cast<size_t>(t * kMaxSizesPerType + k)];
        if (i == kNone) {
          break;
        }
        if (free[t] >= choices[i].cell.ngpus) {
          best = std::min<int>(best, i);
          break;
        }
      }
    }
    return best == kNone ? -1 : best;
  }

  // Index of the highest-scoring indexed choice, or -1 when none is indexed.
  int first() const { return first_ == kNone ? -1 : first_; }

 private:
  static constexpr uint8_t kNone = std::numeric_limits<uint8_t>::max();
  // Per type, the choice indices where ngpus reaches a new running minimum.
  std::array<uint8_t, kNumGpuTypes * kMaxSizesPerType> entries_;
  uint8_t first_ = kNone;
};

// The choices' move groups: for each distinct (type, ngpus), its head -- the
// first, highest-scoring choice -- in choice order. A head carries its
// group's type and size, so the search can skip a group without touching the
// choice list.
class MoveGroups {
 public:
  static constexpr int kMaxGroups = kNumGpuTypes * FitIndex::kMaxSizesPerType;

  struct Head {
    uint8_t index = 0;  // into the choice list
    GpuType type = GpuType::kA100;
    uint16_t ngpus = 0;
  };

  void Build(const std::vector<CellChoice>& choices) {
    CRIUS_CHECK(choices.size() <= std::numeric_limits<uint8_t>::max());
    count_ = 0;
    for (size_t i = 0; i < choices.size(); ++i) {
      const Cell& cell = choices[i].cell;
      bool seen = false;
      for (int g = 0; g < count_ && !seen; ++g) {
        seen = heads_[g].type == cell.gpu_type && heads_[g].ngpus == cell.ngpus;
      }
      if (!seen) {
        CRIUS_CHECK(count_ < kMaxGroups);
        CRIUS_CHECK(cell.ngpus <= std::numeric_limits<uint16_t>::max());
        heads_[count_++] =
            Head{static_cast<uint8_t>(i), cell.gpu_type, static_cast<uint16_t>(cell.ngpus)};
      }
    }
  }

  const Head* begin() const { return heads_.data(); }
  const Head* end() const { return heads_.data() + count_; }

 private:
  std::array<Head, kMaxGroups> heads_{};
  uint8_t count_ = 0;
};

// A job's scored Cell candidates and their index.
struct JobCells {
  std::vector<CellChoice> choices;  // sorted by score, descending
  double ref_throughput = 0.0;      // estimate at the requested shape
  FitIndex fit;
  MoveGroups moves;
};

// Virtual placement of one job during a scheduling pass. `cells` caches the
// job's memoized ranking, resolved exactly once per pass, so the placement
// loops (including the density sort comparator) never re-enter the memo's
// shard locks mid-pass.
struct VirtualJob {
  const JobState* state = nullptr;
  const JobCells* cells = nullptr;
  // The index best-fit lookups search: cells->fit, or in deadline-aware mode
  // an index over the queued job's deadline-feasible choices.
  const FitIndex* fit = nullptr;
  double density = 0.0;  // best score per requested GPU (kScoreDensity order)
  std::optional<Cell> cell;
  double score = 0.0;
  bool opportunistic = false;
  bool dropped = false;  // deadline admission dropped the job this pass
};

// One scaling-search step's pick. `choice` indexes the victim's choices; -1
// means no move is admissible.
struct ScalingMove {
  size_t victim = 0;
  int choice = -1;
  double delta = -std::numeric_limits<double>::infinity();
  bool enables = false;  // the queued job fits once the move is made
};

// One step of the Algorithm-1 scaling search for queued job vjobs[queued]
// under `trial_free`: the move of a placed job (victim) to another of its
// Cells that frees capacity and maximizes (enables placement, delta), where
// delta = new score - victim's score + the queued job's best fit afterwards.
// A move that does not enable placement is only admissible while
// cumulative_delta + delta + potential > 0. Ties go to the first victim, then
// to its lowest choice index: exactly the pick of a scan over every victim
// and every alternative Cell in order, but only move-group heads are
// evaluated. meets_deadline(victim, choice) filters alternatives (a group's
// candidate is its first member that passes); best_fitting(free) returns the
// queued job's best-fitting choice under `free`, or null. Each evaluated move
// adds one to *evaluated.
template <typename MeetsDeadline, typename BestFitting>
ScalingMove BestScalingMove(const std::vector<VirtualJob>& vjobs, size_t queued,
                            const FreeMap& trial_free, double cumulative_delta,
                            double potential, MeetsDeadline&& meets_deadline,
                            BestFitting&& best_fitting, int64_t* evaluated) {
  ScalingMove best;
  for (size_t vi = 0; vi < vjobs.size(); ++vi) {
    const VirtualJob& victim = vjobs[vi];
    if (vi == queued || !victim.cell.has_value()) {
      continue;
    }
    const Cell& held = *victim.cell;
    FreeMap released = trial_free;
    Give(held, released);
    const std::vector<CellChoice>& choices = victim.cells->choices;
    for (const MoveGroups::Head& head : victim.cells->moves) {
      // The move must shrink usage of some type (downscale or exchange); this
      // also skips the held Cell's own group.
      if (head.type == held.gpu_type && head.ngpus >= held.ngpus) {
        continue;
      }
      if (released[static_cast<int>(head.type)] < head.ngpus) {
        continue;
      }
      // The group's candidate: its first member that keeps the victim's
      // deadline (the head itself unless a deadline rules it out).
      int choice = -1;
      for (size_t i = head.index; i < choices.size(); ++i) {
        const Cell& member = choices[i].cell;
        if (member.gpu_type == head.type && member.ngpus == head.ngpus &&
            meets_deadline(victim, choices[i])) {
          choice = static_cast<int>(i);
          break;
        }
      }
      if (choice < 0) {
        continue;
      }
      const CellChoice& alt = choices[choice];
      FreeMap after = released;
      Take(alt.cell, after);
      const CellChoice* mine = best_fitting(after);
      ++*evaluated;
      const bool enables = mine != nullptr;
      const double delta = alt.score - victim.score + (enables ? mine->score : 0.0);
      // Never dig deeper than the placed job could pay back.
      if (!enables && cumulative_delta + delta + potential <= 0.0) {
        continue;
      }
      if ((enables && !best.enables) ||
          (enables == best.enables &&
           (delta > best.delta ||
            (delta == best.delta && vi == best.victim && choice < best.choice)))) {
        best = ScalingMove{vi, choice, delta, enables};
      }
    }
  }
  return best;
}

}  // namespace crius

#endif  // SRC_SCHED_PLACEMENT_INDEX_H_
