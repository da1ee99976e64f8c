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
//     except the gain in score -- whether the move frees capacity, whether
//     it fits, the free map it leaves and so the queued job's best fit --
//     depends only on the held shape and the alternative's shape. The
//     scheduler keeps the placed jobs grouped into these (held, alternative)
//     classes across passes and rounds, and a search step evaluates each
//     class once, on its best member (MoveGroups, MoveClassIndex).

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
#include "src/util/mathutil.h"

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

// GPU-stranding fragmentation score in [0, 1] of `free` with `give` released
// and `take` placed (either may be null): the fraction of free GPUs that
// cannot serve a maximal power-of-two Cell of their type (free -
// FloorPowerOfTwo(free) per type, summed, over total free). 0 = every free
// pool is a power of two. Reads the map in place, so ranking a choice copies
// nothing.
inline double StrandingScore(const FreeMap& free, const Cell* give = nullptr,
                             const Cell* take = nullptr) {
  int free_total = 0;
  int stranded = 0;
  for (int t = 0; t < kNumGpuTypes; ++t) {
    int f = free[t];
    if (give != nullptr && static_cast<int>(give->gpu_type) == t) {
      f += give->ngpus;
    }
    if (take != nullptr && static_cast<int>(take->gpu_type) == t) {
      f -= take->ngpus;
    }
    if (f > 0) {
      free_total += f;
      stranded += f - static_cast<int>(FloorPowerOfTwo(f));
    }
  }
  return free_total > 0 ? static_cast<double>(stranded) / free_total : 0.0;
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

// Placement state that outlives a pass. Its owner keeps it next to the job's
// JobCells and drops it with them.
struct JobPlacement {
  int32_t victim = -1;  // slot in the MoveClassIndex; -1 while not indexed
  // The last running Cell looked up in the choices, and its index there (-1
  // if the ranking does not list it).
  std::optional<Cell> held;
  int held_choice = -1;
};

// Virtual placement of one job during a scheduling pass. `cells` points at
// the job's memoized ranking, resolved once per round by the memo sync, so
// the placement loops (including the density sort comparator) never look the
// job up in the memo.
struct VirtualJob {
  const JobState* state = nullptr;
  const JobCells* cells = nullptr;
  JobPlacement* placement = nullptr;  // kept with *cells
  // The index best-fit lookups search: cells->fit, or in deadline-aware mode
  // an index over the queued job's deadline-feasible choices.
  const FitIndex* fit = nullptr;
  double density = 0.0;  // best score per requested GPU (kScoreDensity order)
  std::optional<Cell> cell;
  double score = 0.0;
  bool opportunistic = false;
  bool dropped = false;  // deadline admission dropped the job this pass
};

// One scaling-search step's pick. `victim` is the victim's position in the
// pass's jobs and `choice` indexes its choices; -1 means no move is
// admissible.
struct ScalingMove {
  size_t victim = 0;
  int choice = -1;
  double delta = -std::numeric_limits<double>::infinity();
  bool enables = false;  // the queued job fits once the move is made
};

// The Algorithm-1 scaling search, indexed by move class.
//
// A search step for a queued job under `trial_free` picks the move of a
// placed job (victim) to another of its Cells that frees capacity and
// maximizes (enables placement, delta), where delta = (alternative's score -
// victim's score) + the queued job's best fit afterwards. Ties go to the
// lowest victim position, then the lowest choice index. A move that does not
// enable placement is only admissible while
// cumulative_delta + delta + potential > 0.
//
// For a victim holding shape H = (type, ngpus) and an alternative of shape A,
// everything but the gain (alternative's score - victim's score) depends on
// (H, A) alone: whether the move frees capacity, whether A fits under
// trial_free + H, the free map it leaves and so the queued job's best fit,
// `enables` and the deficit test. Each victim contributes one member to each
// of its classes (H, A): its first, highest-scoring choice of shape A that
// keeps its deadline. A step evaluates each live class once, on its best
// member (highest gain, then lowest victim position): delta = gain + mine is
// monotone in the gain, so no other member reaches a higher delta. A lower
// gain can still round to the same delta, and then the lower position must
// win. So each class also keeps an upper bound on its highest gain strictly
// below the best, and when that bound rounds to the same delta the class
// rescans its members (the tie guard).
//
// The index lives as long as its owner; see Sync for how it follows the
// passes. Within a pass, a search move erases the victim before its Cell
// changes and re-inserts it afterwards, a rollback erases it and restores
// the entry the move erased, and a job placed after the sync is inserted.
// Erasing a class's best member marks the class stale, and
// a stale class recomputes its best from the victims holding H when it is
// next evaluated.
class MoveClassIndex {
 public:
  // A job's entry in the index, as Erase returns it for Restore.
  struct Victim {
    int held = -1;          // slot in held_; -1 while the slot is free
    uint32_t pos = 0;       // in held_[held].victims
    uint32_t position = 0;  // in the pass's jobs: the tie-break order
    double score = 0.0;     // the held Cell's score, which the gains are relative to
    uint32_t first = 0;     // the victim's members: members_[first, first + count)
    uint32_t count = 0;
  };

  // Brings the index to the placed jobs of `vjobs`, by diff. Each job's
  // victim slot is in its JobPlacement; a job that left `vjobs`, or whose
  // JobCells were replaced, must have been erased already. Erases each
  // indexed job that is no longer placed, whose held shape or score changed,
  // or for which reindex(vj) holds (members that depend on more than the
  // job's Cell and ranking, such as a deadline test at the current time).
  // Inserts every placed job not indexed, and records each victim's position
  // in `vjobs`, the tie-break order. If the surviving victims' relative order
  // changed, every class recomputes its best on demand. meets_deadline(victim,
  // choice) filters the victims' alternatives and must not change until the
  // next sync.
  template <typename MeetsDeadline, typename Reindex>
  void Sync(const std::vector<VirtualJob>& vjobs, MeetsDeadline&& meets_deadline,
            Reindex&& reindex) {
    bool reordered = false;
    int64_t last = -1;  // the previous survivor's old position
    for (size_t vi = 0; vi < vjobs.size(); ++vi) {
      const VirtualJob& vj = vjobs[vi];
      if (vj.placement->victim < 0) {
        continue;
      }
      Victim& v = victims_[static_cast<size_t>(vj.placement->victim)];
      const Held& held = held_[static_cast<size_t>(v.held)];
      if (!vj.cell.has_value() || vj.cell->gpu_type != held.type ||
          vj.cell->ngpus != held.ngpus || vj.score != v.score || reindex(vj)) {
        Erase(*vj.placement);
        continue;
      }
      reordered = reordered || v.position < last;
      last = v.position;
      v.position = static_cast<uint32_t>(vi);
    }
    if (reordered) {
      for (Held& held : held_) {
        for (Class& cls : held.classes) {
          cls.stale = true;
        }
      }
    }
    for (size_t vi = 0; vi < vjobs.size(); ++vi) {
      if (vjobs[vi].cell.has_value() && vjobs[vi].placement->victim < 0) {
        Insert(vjobs[vi], vi, meets_deadline);
      }
    }
    // Every erase leaves its members behind; keep at most as many dead
    // members as live ones.
    if (2 * dead_ > members_.size()) {
      Compact();
    }
  }

  // Adds placed job `victim`, at `position` in the pass's jobs, which is not
  // indexed.
  template <typename MeetsDeadline>
  void Insert(const VirtualJob& victim, size_t position, MeetsDeadline&& meets_deadline) {
    CRIUS_CHECK(victim.cell.has_value());
    const uint32_t slot = TakeSlot(*victim.placement);
    ++inserts_;
    Victim& v = victims_[slot];
    const Cell& held_cell = *victim.cell;
    v.held = HeldSlot(held_cell);
    v.position = static_cast<uint32_t>(position);
    v.score = victim.score;
    Held& held = held_[static_cast<size_t>(v.held)];
    v.pos = static_cast<uint32_t>(held.victims.size());
    held.victims.push_back(slot);
    v.first = static_cast<uint32_t>(members_.size());
    const std::vector<CellChoice>& choices = victim.cells->choices;
    for (const MoveGroups::Head& head : victim.cells->moves) {
      // The move must shrink usage of some type (downscale or exchange); this
      // also skips the held Cell's own group.
      if (head.type == held_cell.gpu_type && head.ngpus >= held_cell.ngpus) {
        continue;
      }
      // The member: the group's first choice that keeps the victim's deadline
      // (the head itself unless a deadline rules it out).
      int choice = -1;
      for (size_t i = head.index; i < choices.size(); ++i) {
        const Cell& alt = choices[i].cell;
        if (alt.gpu_type == head.type && alt.ngpus == head.ngpus &&
            meets_deadline(victim, choices[i])) {
          choice = static_cast<int>(i);
          break;
        }
      }
      if (choice < 0) {
        continue;
      }
      const Member member{ClassSlot(held, head.type, head.ngpus), static_cast<uint8_t>(choice),
                          choices[static_cast<size_t>(choice)].score - victim.score};
      members_.push_back(member);
      Join(held, slot, member);
    }
    v.count = static_cast<uint32_t>(members_.size()) - v.first;
  }

  // Re-adds a job that Erase removed, with the members it had then; `erased`
  // is what that Erase returned. Valid until the next Sync, which may compact
  // those members away. A failed search's rollback restores its victims this
  // way instead of deriving their members again.
  void Restore(JobPlacement& placement, const Victim& erased) {
    const uint32_t slot = TakeSlot(placement);
    Victim& v = victims_[slot];
    v = erased;
    Held& held = held_[static_cast<size_t>(v.held)];
    v.pos = static_cast<uint32_t>(held.victims.size());
    held.victims.push_back(slot);
    dead_ -= v.count;
    for (uint32_t i = v.first; i < v.first + v.count; ++i) {
      Join(held, slot, members_[i]);
    }
  }

  // Removes the job whose placement this is, which must be indexed, and
  // returns its entry as it was.
  Victim Erase(JobPlacement& placement) {
    CRIUS_CHECK(placement.victim >= 0);
    const auto slot = static_cast<uint32_t>(placement.victim);
    Victim& v = victims_[slot];
    const Victim erased = v;
    Held& held = held_[static_cast<size_t>(v.held)];
    for (uint32_t i = v.first; i < v.first + v.count; ++i) {
      Class& cls = held.classes[members_[i].cls];
      --cls.members;
      if (cls.victim == slot) {
        cls.stale = true;
      }
    }
    const uint32_t moved = held.victims.back();
    held.victims[v.pos] = moved;
    victims_[moved].pos = v.pos;
    held.victims.pop_back();
    v.held = -1;
    dead_ += v.count;
    free_slots_.push_back(slot);
    placement.victim = -1;
    return erased;
  }

  // One search step: the best admissible move under `trial_free`.
  // best_fitting(free) returns the queued job's best-fitting choice under
  // `free`, or null. Each evaluated class adds one to *evaluated. A non-null
  // `envelope` receives the pointwise max of the free maps the evaluated
  // classes leave (every entry INT_MIN if none is evaluated): which classes
  // are evaluated, and what they leave, does not depend on the queued job.
  template <typename BestFitting>
  ScalingMove BestMove(const FreeMap& trial_free, double cumulative_delta, double potential,
                       BestFitting&& best_fitting, int64_t* evaluated,
                       FreeMap* envelope = nullptr) {
    ScalingMove best;
    if (envelope != nullptr) {
      envelope->fill(std::numeric_limits<int>::min());
    }
    for (Held& held : held_) {
      if (held.victims.empty()) {
        continue;
      }
      FreeMap released = trial_free;
      released[static_cast<int>(held.type)] += held.ngpus;
      for (size_t k = 0; k < held.classes.size(); ++k) {
        Class& cls = held.classes[k];
        if (cls.members == 0 || released[static_cast<int>(cls.type)] < cls.ngpus) {
          continue;
        }
        if (cls.stale) {
          Recompute(held, k);
        }
        FreeMap after = released;
        after[static_cast<int>(cls.type)] -= cls.ngpus;
        if (envelope != nullptr) {
          for (int t = 0; t < kNumGpuTypes; ++t) {
            (*envelope)[t] = std::max((*envelope)[t], after[t]);
          }
        }
        const CellChoice* mine = best_fitting(after);
        ++*evaluated;
        const bool enables = mine != nullptr;
        const double mine_score = enables ? mine->score : 0.0;
        const double delta = cls.gain + mine_score;
        // Never dig deeper than the placed job could pay back.
        if (!enables && cumulative_delta + delta + potential <= 0.0) {
          continue;
        }
        uint32_t slot = cls.victim;
        int choice = cls.choice;
        if (cls.second + mine_score == delta) {
          slot = LowestTiedVictim(held, k, mine_score, delta);
          choice = MemberOf(slot, k)->choice;
        }
        const size_t position = victims_[slot].position;
        if (enables != best.enables  ? enables
            : delta != best.delta    ? delta > best.delta
            : position != best.victim ? position < best.victim
                                      : choice < best.choice) {
          best = ScalingMove{position, choice, delta, enables};
        }
      }
    }
    return best;
  }

  // Insert calls so far (the sched.class_index_inserts work count).
  int64_t inserts() const { return inserts_; }
  // Members held, erased victims' included until compaction.
  size_t stored_members() const { return members_.size(); }

 private:
  struct Member {
    uint16_t cls = 0;    // class slot in the victim's Held
    uint8_t choice = 0;  // into the victim's choices
    double gain = 0.0;   // alternative's score - victim's score
  };
  // The victims of one move class (H, A) and its best member.
  struct Class {
    GpuType type = GpuType::kA100;  // A
    int ngpus = 0;
    uint32_t members = 0;
    bool stale = true;  // the best member below was erased
    uint8_t choice = 0;
    uint32_t victim = 0;  // slot
    double gain = 0.0;
    // At least the highest member gain strictly below `gain`; -inf if none.
    double second = 0.0;
  };
  // The victims holding one shape H, in no particular order, and H's classes.
  struct Held {
    GpuType type = GpuType::kA100;
    int ngpus = 0;
    std::vector<uint32_t> victims;  // slots
    std::vector<Class> classes;
    std::vector<uint64_t> class_keys;  // ShapeKey of each class's A
  };
  // A shape as one word, so slot lookups scan a dense key array.
  static uint64_t ShapeKey(GpuType type, int ngpus) {
    return (static_cast<uint64_t>(type) << 32) | static_cast<uint32_t>(ngpus);
  }

  // A free victim slot, now the placement's, which must not be indexed.
  uint32_t TakeSlot(JobPlacement& placement) {
    CRIUS_CHECK(placement.victim < 0);
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(victims_.size());
      victims_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    placement.victim = static_cast<int32_t>(slot);
    return slot;
  }

  // Adds the member of the victim in `slot` to its class.
  void Join(Held& held, uint32_t slot, const Member& member) {
    Class& cls = held.classes[member.cls];
    if (cls.members++ == 0) {
      cls.stale = false;
      cls.gain = -std::numeric_limits<double>::infinity();
      cls.second = -std::numeric_limits<double>::infinity();
    }
    if (!cls.stale) {
      Offer(cls, slot, member);
    }
  }

  int HeldSlot(const Cell& cell) {
    const uint64_t key = ShapeKey(cell.gpu_type, cell.ngpus);
    for (size_t h = 0; h < held_keys_.size(); ++h) {
      if (held_keys_[h] == key) {
        return static_cast<int>(h);
      }
    }
    held_keys_.push_back(key);
    held_.push_back(Held{cell.gpu_type, cell.ngpus, {}, {}, {}});
    return static_cast<int>(held_.size() - 1);
  }

  static uint16_t ClassSlot(Held& held, GpuType type, int ngpus) {
    const uint64_t key = ShapeKey(type, ngpus);
    for (size_t k = 0; k < held.class_keys.size(); ++k) {
      if (held.class_keys[k] == key) {
        return static_cast<uint16_t>(k);
      }
    }
    CRIUS_CHECK(held.classes.size() < std::numeric_limits<uint16_t>::max());
    held.class_keys.push_back(key);
    held.classes.push_back(Class{type, ngpus});
    return static_cast<uint16_t>(held.classes.size() - 1);
  }

  // The member of class k of the victim in `slot`, or null.
  const Member* MemberOf(uint32_t slot, size_t k) const {
    const Victim& v = victims_[slot];
    for (uint32_t i = v.first; i < v.first + v.count; ++i) {
      if (members_[i].cls == k) {
        return &members_[i];
      }
    }
    return nullptr;
  }

  void Offer(Class& cls, uint32_t slot, const Member& member) const {
    if (member.gain > cls.gain ||
        (member.gain == cls.gain && victims_[slot].position < victims_[cls.victim].position)) {
      if (member.gain > cls.gain) {
        cls.second = cls.gain;
      }
      cls.victim = slot;
      cls.choice = member.choice;
      cls.gain = member.gain;
    } else if (member.gain < cls.gain) {
      cls.second = std::max(cls.second, member.gain);
    }
  }

  void Recompute(Held& held, size_t k) {
    Class& cls = held.classes[k];
    cls.gain = -std::numeric_limits<double>::infinity();
    cls.second = -std::numeric_limits<double>::infinity();
    for (const uint32_t slot : held.victims) {
      if (const Member* member = MemberOf(slot, k)) {
        Offer(cls, slot, *member);
      }
    }
    cls.stale = false;
  }

  // The slot of the lowest-positioned victim whose member of class k reaches
  // `delta`.
  uint32_t LowestTiedVictim(const Held& held, size_t k, double mine_score, double delta) const {
    uint32_t lowest = 0;
    uint32_t lowest_position = std::numeric_limits<uint32_t>::max();
    for (const uint32_t slot : held.victims) {
      const Member* member = MemberOf(slot, k);
      if (member != nullptr && member->gain + mine_score == delta &&
          victims_[slot].position < lowest_position) {
        lowest = slot;
        lowest_position = victims_[slot].position;
      }
    }
    return lowest;
  }

  // Moves the live victims' members to the front of members_, dropping the
  // dead ones.
  void Compact() {
    spare_.clear();
    for (Victim& v : victims_) {
      if (v.held >= 0) {
        const auto first = static_cast<uint32_t>(spare_.size());
        spare_.insert(spare_.end(), members_.begin() + v.first,
                      members_.begin() + v.first + v.count);
        v.first = first;
      }
    }
    members_.swap(spare_);
    dead_ = 0;
  }

  std::vector<Held> held_;
  std::vector<uint64_t> held_keys_;  // ShapeKey of each Held's H
  std::vector<Victim> victims_;      // by slot
  std::vector<uint32_t> free_slots_;
  std::vector<Member> members_;  // every insert appends; Compact drops the dead
  std::vector<Member> spare_;    // Compact's scratch
  size_t dead_ = 0;              // members_ entries of erased victims
  int64_t inserts_ = 0;
};

// The failed-chain memo: what one pass's failed scaling searches learned,
// so a later search of the same pass that must fail the same way is decided
// without running MoveClassIndex::BestMove (DESIGN.md §14 "Failed-chain
// memo").
//
// Holds the chain of picks a failed search made that did not enable its job
// -- step k's pick, the cumulative delta before it, and its envelope: the
// pointwise max of the free maps every class evaluated at step k leaves. It
// is valid while the pass state (free map, placed Cells, class index) is the
// one the chain started from, so the owner clears it whenever the pass places
// a job. Why a job j that fits nothing under step k's envelope takes step k
// of the chain whenever it is admissible:
//   1. A failed search's rollback restores the pass state, so every search
//      between two placements starts from the same state, and a search that
//      has taken steps 0..k-1 of the chain is at the chain's state k.
//   2. Which classes a step evaluates and the free maps they leave depend on
//      the state alone. Fitting nothing is monotone in the free map, so j
//      fits nothing under any of them: no class enables j.
//   3. With no class enabling, a class's delta is its gain (job-independent),
//      and BestMove's pick is the (delta, position, choice) maximum among the
//      admissible classes. Admissibility (cumulative + delta + potential > 0)
//      is upward-closed in delta, so the pick is the maximum of all evaluated
//      classes -- the recorded pick, which enabled nothing either -- when it
//      is admissible for j's potential, and no move otherwise.
//   4. After a pick that enables nothing the search cannot place j.
// So j's search fails if, along the chain, it reaches a step whose pick is
// inadmissible for j, or takes `search_depth` steps. Otherwise (a step whose
// envelope j fits, or the end of the chain) the search runs, and replays the
// steps before that one without BestMove.
class FailedChain {
 public:
  void Clear() { steps_.clear(); }

  // Whether a search of `search_depth` steps for a job with `potential` (the
  // bound BestMove's admissibility test adds) must fail. fits_nothing(free)
  // says whether the job fits no choice under `free`. When it returns false,
  // *replayable is the number of leading steps the search takes as recorded
  // (step(k).move for k < *replayable).
  template <typename FitsNothing>
  bool MustFail(int search_depth, double potential, FitsNothing&& fits_nothing,
                size_t* replayable) const {
    for (size_t k = 0;; ++k) {
      if (k == static_cast<size_t>(search_depth)) {
        return true;  // search_depth moves, none of which places the job
      }
      if (k == steps_.size() || !fits_nothing(steps_[k].envelope)) {
        *replayable = k;
        return false;
      }
      // BestMove's admissibility test, in its order of operations.
      if (steps_[k].cumulative_delta + steps_[k].move.delta + potential <= 0.0) {
        return true;  // no admissible move
      }
    }
  }

  // The pick recorded at step k.
  const ScalingMove& pick(size_t k) const { return steps_[k].move; }

  // Whether step k of a search on the chain extends it; the caller then asks
  // BestMove for the step's envelope and passes it to Record.
  bool Extends(size_t k) const { return k == steps_.size(); }

  // Records the pick `move` that a search made at step k, with
  // `cumulative_delta` before it, under `envelope` (see BestMove). Keeps only
  // a pick that extends the chain and enables nothing.
  void Record(size_t k, const ScalingMove& move, double cumulative_delta,
              const FreeMap& envelope) {
    if (Extends(k) && move.choice >= 0 && !move.enables) {
      steps_.push_back(Step{move, cumulative_delta, envelope});
    }
  }

 private:
  struct Step {
    ScalingMove move;
    double cumulative_delta = 0.0;
    FreeMap envelope{};
  };
  std::vector<Step> steps_;  // cleared, never shrunk: reused across passes
};

}  // namespace crius

#endif  // SRC_SCHED_PLACEMENT_INDEX_H_
