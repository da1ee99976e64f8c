// Power & multi-objective subsystem (ROADMAP open item 1; DESIGN.md §15).
//
// Three pieces, all inert unless explicitly enabled:
//
//   * PowerModel -- per-GPU-type idle/active wattage (public TDP-class
//     figures for the four Table-1 types) plus an optional discrete DVFS
//     operating point that scales active power down in exchange for a
//     throughput reduction.
//   * PowerLedger -- integrates energy over the simulation timeline. Per
//     node it splits every interval into active (busy GPUs at dvfs-scaled
//     active watts), idle (usable-but-unallocated GPUs at idle watts), and
//     failed (zero draw: the device is powered off, not idling). Per job it
//     accumulates the active joules of every allocation segment and, via the
//     same useful-work split the GPU-seconds ledger uses, the fraction that
//     produced surviving iterations. Cluster-wide the invariant
//         total_joules == useful_joules + idle_joules + lost_joules
//     holds exactly: `lost` is defined as all active energy that did not
//     yield surviving work (rolled-back iterations AND restart / checkpoint /
//     straggler overhead), so the split is a partition by construction.
//   * MultiObjectiveConfig -- a weight vector (throughput, energy,
//     fragmentation, fairness) CriusScheduler folds into its placement and
//     upscale passes alongside the existing CriusObjective. The default
//     vector (1,0,0,0) is pinned to produce bit-identical decisions to the
//     pre-existing throughput-only code path.
//
// The ledger is driven exclusively from the single-threaded SimEngine step
// path (src/sim/engine.cc), so it needs no synchronization and its sums are
// bit-identical from run to run and through serve-session replay.

#ifndef SRC_POWER_POWER_H_
#define SRC_POWER_POWER_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/hw/cluster.h"
#include "src/hw/gpu.h"

namespace crius {

// One discrete DVFS operating point: active power scales by `power_scale`,
// realized throughput by `throughput_scale` (iteration times stretch by its
// inverse). Idle power is unaffected -- parked clocks already run at the
// floor.
struct DvfsState {
  std::string name = "nominal";
  double power_scale = 1.0;
  double throughput_scale = 1.0;
};

// The known operating points: nominal (1.0/1.0), balanced (0.80/0.92),
// powersave (0.62/0.80). Power drops faster than throughput, so the lower
// states trade longer runs for net energy savings on compute-bound work.
const std::vector<DvfsState>& KnownDvfsStates();
bool IsKnownDvfsState(const std::string& name);
// Aborts on unknown names (callers that handle operator input check
// IsKnownDvfsState first).
DvfsState DvfsStateByName(const std::string& name);

// Per-GPU-type wattage table plus the applied DVFS state.
struct PowerModel {
  // Indexed by static_cast<int>(GpuType).
  std::array<double, kNumGpuTypes> idle_watts{};
  std::array<double, kNumGpuTypes> active_watts{};
  DvfsState dvfs;

  // The built-in TDP-class table under the named DVFS state.
  static PowerModel Default(const std::string& dvfs_name = "nominal");

  // DVFS-scaled draw of one busy device of `type`.
  double ActiveWatts(GpuType type) const {
    return active_watts[static_cast<int>(type)] * dvfs.power_scale;
  }
  double IdleWatts(GpuType type) const { return idle_watts[static_cast<int>(type)]; }
};

// SimConfig knob block (src/sim/simulator.h). Disabled by default: with
// enabled == false no ledger is constructed and every existing output byte is
// unchanged (pinned by tests/power_test.cc).
struct PowerConfig {
  bool enabled = false;
  // Named DVFS state applied cluster-wide; non-nominal states change realized
  // iteration times and therefore must round-trip through the serve session
  // meta row for replay identity.
  std::string dvfs = "nominal";
};

// Weight vector for CriusScheduler's multi-objective scoring. The energy,
// fragmentation, and fairness terms are penalties/bonuses folded into the
// pass-level score (and the per-move upscale rank); throughput is the
// paper's original objective.
struct MultiObjectiveConfig {
  double throughput = 1.0;
  double energy = 0.0;
  double fragmentation = 0.0;
  double fairness = 0.0;

  // True for (1,0,0,0): the scheduler then takes the pre-existing
  // throughput-only code paths, bit-identically.
  bool IsDefault() const {
    return throughput == 1.0 && energy == 0.0 && fragmentation == 0.0 && fairness == 0.0;
  }
  std::string ToString() const;
  // Parses "thr,energy,frag,fair" (four comma-separated non-negative
  // doubles, e.g. "1,0.5,0.2,0"). std::nullopt on malformed input.
  static std::optional<MultiObjectiveConfig> Parse(const std::string& spec);
};

// Jain's fairness index over `values` (1.0 = perfectly even; 1.0 for empty
// or all-zero inputs so degenerate rounds read as neutral).
double JainIndex(const std::vector<double>& values);

// Per-type GPU-stranding fragmentation score in [0, 1]: the fraction of free
// GPUs that cannot serve a maximal power-of-two cell of their type
// (free - FloorPowerOfTwo(free) per type, summed, over total free). 0 = every
// free pool is exactly a power of two; higher = more stranded capacity.
double StrandingScore(const std::array<int, kNumGpuTypes>& free_by_type);

// DVFS-scaled active watts of an `ngpus`-device cell of `type`.
double CellWatts(const PowerModel& model, GpuType type, int ngpus);

// Energy ledger over a simulation timeline. Single-threaded by contract: all
// calls come from the engine's step path, in event order.
class PowerLedger {
 public:
  // Registers every node of `cluster` (its health state at construction; the
  // engine constructs the ledger before any failure applies).
  PowerLedger(PowerModel model, const Cluster& cluster);

  // Integrates energy from the last advance time to `t` using the current
  // busy/failed counts. Called once per engine step, before any transition
  // at `t` mutates the counts.
  void AdvanceTo(double t);

  // Allocation transitions (after AdvanceTo reached the transition time).
  void OnAllocate(const Allocation& alloc);
  void OnRelease(const Allocation& alloc);
  // Re-syncs one node's failed-device count from the cluster after a
  // MarkFailed/MarkRecovered; failed devices leave the idle pool and draw
  // zero.
  void SyncNode(const Cluster& cluster, int node_id);

  // Closes one job allocation segment: `held_gpu_seconds` of active energy
  // are attributed to `job_id`, of which `useful_gpu_seconds` produced
  // surviving iterations (same split as SimResult's GPU-seconds ledger).
  void SettleSegment(int64_t job_id, GpuType type, double held_gpu_seconds,
                     double useful_gpu_seconds);

  // Instantaneous cluster draw at the current busy/failed counts (the serve
  // daemon's power-cap admission signal).
  double CurrentDrawWatts() const;

  // Cluster-wide totals. total == useful + idle + lost exactly (see the
  // header comment).
  double total_joules() const { return active_joules_ + idle_joules_; }
  double useful_joules() const { return useful_joules_; }
  double idle_joules() const { return idle_joules_; }
  double lost_joules() const {
    const double lost = active_joules_ - useful_joules_;
    return lost > 0.0 ? lost : 0.0;
  }

  // Active joules attributed to `job_id` across its settled segments; 0.0
  // for jobs that never ran.
  double JobJoules(int64_t job_id) const;

  struct NodeUsage {
    int node_id = 0;
    GpuType type = GpuType::kA100;
    int total_gpus = 0;
    int busy_gpus = 0;
    int failed_gpus = 0;
    // Energy integrated on this node so far (active + idle).
    double joules = 0.0;
  };
  const std::vector<NodeUsage>& nodes() const { return nodes_; }

  const PowerModel& model() const { return model_; }
  double last_time() const { return last_time_; }

 private:
  PowerModel model_;
  std::vector<NodeUsage> nodes_;
  std::unordered_map<int64_t, double> job_joules_;
  double last_time_ = 0.0;
  double active_joules_ = 0.0;
  double idle_joules_ = 0.0;
  double useful_joules_ = 0.0;
};

}  // namespace crius

#endif  // SRC_POWER_POWER_H_
