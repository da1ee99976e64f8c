// Power subsystem (DESIGN.md §15).
//
// Two pieces, both inert unless explicitly enabled:
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
//
// CriusScheduler's energy objective weight (src/sched/crius_sched.h) ranks
// Cells by CellWatts.
//
// The ledger is driven exclusively from the single-threaded SimEngine step
// path (src/sim/engine.cc), so it needs no synchronization and its sums are
// bit-identical from run to run and through serve-session replay.

#ifndef SRC_POWER_POWER_H_
#define SRC_POWER_POWER_H_

#include <array>
#include <cstdint>
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
