// Umbrella header: the public surface of the Crius library in one include.
//
// Tools, examples, and external users include this file instead of reaching
// into per-directory headers; the per-directory headers stay the unit of
// ownership inside src/ itself. The library holds the scheduler, estimator,
// simulator and serve daemon that the product binaries run. Bench reports,
// terminal charts and the event-level pipeline model (which crius_plan links
// for its Gantt and --chrome-trace) are bench/ libraries; test-only helpers
// live in tests/. Exports, by layer:
//
//   util     -- flags, tables, counters/trace observability, stats, threadpool
//   hw       -- GpuType, Cluster (incl. health state), interconnect topology
//   model    -- ModelSpec, TrainingJob, op graphs, the paper's model zoo
//   parallel -- parallelism plans, explorer, performance model, stage partition
//   core     -- Cells, estimator/tuner, PerformanceOracle
//   fault    -- failure injection, failure traces, checkpoint model
//   sched    -- Scheduler API (RoundContext/RoundEvent), Crius + baselines
//   sim      -- Simulator, SimConfig, traces, metrics, CSV/Chrome exports
//   serve    -- cluster-controller daemon: event queue, controller, protocol,
//               session log + deterministic replay

#ifndef SRC_CRIUS_H_
#define SRC_CRIUS_H_

// --- util -------------------------------------------------------------------
#include "src/util/check.h"
#include "src/util/counters.h"
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/logging.h"
#include "src/util/mathutil.h"
#include "src/util/rng.h"
#include "src/util/shutdown.h"
#include "src/util/stats.h"
#include "src/util/table.h"
#include "src/util/threadpool.h"
#include "src/util/trace.h"
#include "src/util/units.h"

// --- hw ---------------------------------------------------------------------
#include "src/hw/cluster.h"
#include "src/hw/gpu.h"
#include "src/hw/interconnect.h"

// --- model ------------------------------------------------------------------
#include "src/model/job.h"
#include "src/model/models.h"
#include "src/model/opgraph.h"

// --- parallel ---------------------------------------------------------------
#include "src/parallel/explorer.h"
#include "src/parallel/perf_model.h"
#include "src/parallel/plan.h"
#include "src/parallel/stage_partition.h"

// --- core -------------------------------------------------------------------
#include "src/core/cell.h"
#include "src/core/comm_profile.h"
#include "src/core/estimator.h"
#include "src/core/oracle.h"
#include "src/core/tuner.h"

// --- fault ------------------------------------------------------------------
#include "src/fault/checkpoint.h"
#include "src/fault/failure_injector.h"
#include "src/fault/fault_trace_io.h"

// --- sched ------------------------------------------------------------------
#include "src/sched/baselines.h"
#include "src/sched/crius_sched.h"
#include "src/sched/factory.h"
#include "src/sched/scheduler.h"

// --- sim --------------------------------------------------------------------
#include "src/sim/chrome_export.h"
#include "src/sim/engine.h"
#include "src/sim/metrics.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/sim/trace_io.h"

// --- serve ------------------------------------------------------------------
#include "src/serve/client.h"
#include "src/serve/controller.h"
#include "src/serve/event_queue.h"
#include "src/serve/protocol.h"
#include "src/serve/replay.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/serve/session_log.h"

#endif  // SRC_CRIUS_H_
