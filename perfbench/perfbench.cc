// crius_perfbench: runs one benchmark workload through the same public calls
// crius_sim and crius_serve make, checks the outputs, and prints one JSON
// result line.
//
//   crius_perfbench --workload week-heavy|pai-churn|serve-open --seed N
//                    --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics (setup_s, peak_rss_mb,
// jobs_per_s, latency_ms; the times host-normalised, see HostGauge).
// --trace 1 makes a separate traced run that times
// each layer from outside -- a delegating Scheduler around Schedule /
// ProfilingDelay, a wrapped serve::Server::Handler, and a stopwatch around
// every other library call -- and reads the program's own counters and
// histograms from CounterRegistry::Global(). Nothing inside src/ is changed.
//
// The process works in the current directory (session logs, CSV outputs, the
// Unix socket) and exits 1 when any output check fails.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/crius.h"

namespace crius {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double PercentileOr0(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : Percentile(v, p);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Result line and output checks.

class Report {
 public:
  void Add(const std::string& name, double value) {
    metrics_.emplace_back(name, std::isfinite(value) ? value : 0.0);
  }
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool correct() const { return failures_.empty(); }

  void Print(int64_t attempted, int64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].second);
      out += (i == 0 ? "\"" : ", \"") + metrics_[i].first + "\": " + value;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Host-speed gauge.
//
// On a shared VM the program's speed moves by up to 2x from one minute, or
// one run, to the next while steal time stays under 1%: neighbours share the
// physical core and its caches, and no hardware counters are exposed to
// count instructions instead. A fixed reference burst -- integer and branch
// work, a small sort and std::map churn, all code of this file, so it never
// changes with src/ -- run on the measuring thread every 50 ms slows down
// with the program. Over 81 week-heavy reps on a 4-core Sapphire Rapids VM,
// each of its three parts correlated 0.88-0.92 with Simulator::Run time,
// and Run time divided by their sum varied 4% against 10% for Run time
// alone; a pure multiply chain (0.5) or a pointer chase (0.3) on the same
// thread, or any probe on another core, did not track it.
//
// The gated times are therefore host-normalised: burst time is cut out of
// the measured interval, and the rest is scaled by kGaugeNominalMs / (mean
// burst time in the same interval). They read as seconds on a host where
// one burst takes kGaugeNominalMs. The raw figures go to stderr, and the
// traced run reports them unscaled.

constexpr double kGaugeNominalMs = 1.0;
constexpr auto kGaugePeriod = std::chrono::milliseconds(50);

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

class HostGauge {
 public:
  explicit HostGauge(uint64_t salt) : salt_(salt), sort_input_(4096) {
    for (size_t i = 0; i < sort_input_.size(); ++i) {
      sort_input_[i] = Mix64(salt_ + i);
    }
  }

  // Runs one reference burst (about 1 ms) and records its duration.
  void Burst() {
    const auto t0 = Clock::now();
    uint64_t a = 0;
    uint64_t b = 0;
    uint64_t c = 0;
    for (uint64_t j = 0; j < 200000; ++j) {
      const uint64_t v = Mix64(salt_ + j);
      a += (v & 1) != 0 ? v : v >> 3;
      b ^= v << 1;
      c += v % 7 == 0 ? 1 : 0;
    }
    std::vector<uint64_t> sorted(sort_input_);
    std::sort(sorted.begin(), sorted.end());
    std::map<uint64_t, uint64_t> churn;
    for (uint64_t j = 0; j < 1500; ++j) {
      churn[Mix64(salt_ ^ j) % 2500] += j;
    }
    for (uint64_t j = 0; j < 1500; ++j) {
      c += churn.count(Mix64(salt_ ^ (j * 7)) % 2500);
    }
    checksum_ += a + b + c + sorted[7];
    const double s = SecondsSince(t0);
    burst_ms_.push_back(s * 1000.0);
    spent_s_ += s;
    last_ = Clock::now();
  }

  // A burst if kGaugePeriod has passed since the last one, unless paused.
  void MaybeBurst() {
    if (!paused_.load() && Clock::now() - last_ >= kGaugePeriod) {
      Burst();
    }
  }

  // Pausing is the one call another thread may make while bursts run.
  void set_paused(bool paused) { paused_.store(paused); }

  size_t mark() const { return burst_ms_.size(); }
  double spent_s() const { return spent_s_; }
  uint64_t checksum() const { return checksum_; }

  // Mean burst time over bursts [from, mark()); 0 when there are none.
  double MeanMsSince(size_t from) const {
    const std::vector<double> window(burst_ms_.begin() + static_cast<std::ptrdiff_t>(from),
                                     burst_ms_.end());
    return window.empty() ? 0.0 : Sum(window) / static_cast<double>(window.size());
  }

  // Nominal-host seconds per measured second over bursts [from, mark()).
  double ScaleSince(size_t from) const { return Ratio(kGaugeNominalMs, MeanMsSince(from)); }

 private:
  uint64_t salt_;
  std::vector<uint64_t> sort_input_;
  std::vector<double> burst_ms_;
  double spent_s_ = 0.0;
  uint64_t checksum_ = 0;
  Clock::time_point last_ = Clock::now();
  std::atomic<bool> paused_{false};
};

// ---------------------------------------------------------------------------
// Scheduler wrapper: benchmark-side timing around the library's Scheduler.

struct SchedTiming {
  std::vector<double> round_ms;
  int64_t jobs_seen = 0;
  int64_t empty_delta_rounds = 0;
  int64_t assignments = 0;
  int64_t profile_calls = 0;
  double profile_busy_s = 0.0;

  double busy_s() const { return Sum(round_ms) / 1000.0; }
};

// Delegates every call to `inner`. With `timing` it times Schedule /
// ProfilingDelay (traced runs); with `gauge` it runs a gauge burst between
// rounds when one is due (untraced runs).
class WrappedScheduler final : public Scheduler {
 public:
  WrappedScheduler(Scheduler& inner, SchedTiming* timing, HostGauge* gauge)
      : Scheduler(nullptr), inner_(inner), timing_(timing), gauge_(gauge) {}

  std::string name() const override { return inner_.name(); }

  ScheduleDecision Schedule(const RoundContext& round) override {
    if (gauge_ != nullptr) {
      gauge_->MaybeBurst();
    }
    if (timing_ == nullptr) {
      return inner_.Schedule(round);
    }
    const auto t0 = Clock::now();
    ScheduleDecision decision = inner_.Schedule(round);
    timing_->round_ms.push_back(Ms(t0, Clock::now()));
    timing_->jobs_seen += static_cast<int64_t>(round.jobs().size());
    timing_->empty_delta_rounds += round.events().empty() ? 1 : 0;
    timing_->assignments += static_cast<int64_t>(decision.assignments.size());
    return decision;
  }

  double ProfilingDelay(const TrainingJob& job, const Cluster& cluster) override {
    if (timing_ == nullptr) {
      return inner_.ProfilingDelay(job, cluster);
    }
    const auto t0 = Clock::now();
    const double delay = inner_.ProfilingDelay(job, cluster);
    timing_->profile_busy_s += SecondsSince(t0);
    ++timing_->profile_calls;
    return delay;
  }

 private:
  Scheduler& inner_;
  SchedTiming* timing_;
  HostGauge* gauge_;
};

int64_t Counter(const std::string& name) {
  return CounterRegistry::Global().CounterValue(name);
}

HistogramSnapshot Hist(const std::string& name, const MetricLabels& labels = {}) {
  return CounterRegistry::Global().HistogramValues(CanonicalMetricName(name, labels));
}

// ---------------------------------------------------------------------------
// Simulation workloads (week-heavy, pai-churn).

struct SimSpec {
  bool pai = false;               // pai trace style; else philly-week
  int jobs = 0;                   // 0 = the trace style's default
  double node_mtbf_hours = 0.0;   // 0 = no failures
  double straggler_rate = 0.0;
  double checkpoint_interval = 0.0;
};

struct SimRep {
  double cluster_s = 0.0;
  double oracle_s = 0.0;
  double trace_s = 0.0;
  double fault_s = 0.0;
  double sched_make_s = 0.0;
  double run_s = 0.0;    // Simulator::Run, gauge bursts excluded
  double write_s = 0.0;
  double wall_s = 0.0;   // whole rep, output read-back included
  // Host-speed scale of the set-up and of Run + writing (1 without a gauge).
  double setup_scale = 1.0;
  double run_scale = 1.0;
  size_t trace_jobs = 0;
  SimResult result;
  std::string jobs_csv;
  std::string timeline_csv;
  bool wrote = false;

  double setup_s() const { return cluster_s + oracle_s + trace_s + fault_s + sched_make_s; }
  double jobs_per_s() const { return Ratio(static_cast<double>(trace_jobs), run_s + write_s); }
  // Host-normalised figures (see HostGauge).
  double norm_setup_s() const { return setup_s() * setup_scale; }
  double norm_jobs_per_s() const { return jobs_per_s() / run_scale; }
  // One whole crius_sim-equivalent run: set-up, Run and writing.
  double norm_latency_s() const { return norm_setup_s() + (run_s + write_s) * run_scale; }
};

// Both simulation workloads replay one fixed arrival trace (crius_sim's
// default seed) so that run time measures the program, not the trace: traces
// of other seeds differ up to 2.5x in Simulator::Run time. The workload seed
// drives the oracle's profiling noise -- and with it every estimate and
// decision -- and the failure schedule. At --seed 42 a rep reproduces
// `crius_sim --seed 42` exactly.
constexpr uint64_t kTraceSeed = 42;

// Gauge bursts taken on each side of a rep's set-up.
constexpr int kSetupBursts = 2;

// Everything a rep builds before Simulator::Run.
struct SimInputs {
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<PerformanceOracle> oracle;
  std::vector<TrainingJob> trace;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<Simulator> sim;
};

// The set-up of one crius_sim-equivalent run: cluster, oracle, trace,
// failure schedule, scheduler and simulator. Fills `rep`'s set-up timings;
// with a `gauge`, bursts on each side of it give rep.setup_scale.
SimInputs SetUpSim(const SimSpec& spec, uint64_t seed, HostGauge* gauge, SimRep& rep) {
  SimInputs in;
  const size_t setup_mark = gauge != nullptr ? gauge->mark() : 0;
  for (int b = 0; gauge != nullptr && b < kSetupBursts; ++b) {
    gauge->Burst();
  }
  const auto t0 = Clock::now();
  in.cluster = std::make_unique<Cluster>(MakeNamedCluster("simulated"));
  const auto t1 = Clock::now();
  in.oracle = std::make_unique<PerformanceOracle>(*in.cluster, seed);
  const auto t2 = Clock::now();
  TraceConfig trace_config = spec.pai ? PaiLowConfig() : PhillyWeekHeavyConfig();
  trace_config.seed = kTraceSeed;
  if (spec.jobs > 0) {
    trace_config.num_jobs = spec.jobs;
  }
  in.trace = GenerateTrace(*in.cluster, *in.oracle, trace_config);
  const auto t3 = Clock::now();
  SimConfig sim_config;
  sim_config.checkpoint.interval = spec.checkpoint_interval;
  sim_config.checkpoint.cost = 30.0;
  sim_config.node_mtbf = spec.node_mtbf_hours * kHour;
  if (spec.node_mtbf_hours > 0.0 || spec.straggler_rate > 0.0) {
    FailureInjectorConfig fault_config;
    fault_config.node_mtbf_hours = spec.node_mtbf_hours;
    fault_config.straggler_rate = spec.straggler_rate;
    fault_config.seed = seed;
    double trace_end = 0.0;
    for (const TrainingJob& job : in.trace) {
      trace_end = std::max(trace_end, job.submit_time);
    }
    fault_config.horizon =
        std::max(trace_end, 1.0) * sim_config.max_time_factor + 24.0 * kHour;
    sim_config.failures = GenerateFailureSchedule(*in.cluster, fault_config);
  }
  const auto t4 = Clock::now();
  in.scheduler = MakeNamedScheduler("crius", in.oracle.get());
  in.sim = std::make_unique<Simulator>(*in.cluster, sim_config);
  const auto t5 = Clock::now();
  for (int b = 0; gauge != nullptr && b < kSetupBursts; ++b) {
    gauge->Burst();
  }
  if (gauge != nullptr) {
    rep.setup_scale = gauge->ScaleSince(setup_mark);
  }
  rep.cluster_s = Seconds(t0, t1);
  rep.oracle_s = Seconds(t1, t2);
  rep.trace_s = Seconds(t2, t3);
  rep.fault_s = Seconds(t3, t4);
  rep.sched_make_s = Seconds(t4, t5);
  rep.trace_jobs = in.trace.size();
  return in;
}

// One crius_sim-equivalent run: SetUpSim, Simulator::Run and the CSV
// writers. `timing` non-null = traced; `gauge` non-null = host-normalised
// (untraced runs).
SimRep RunSimRep(const SimSpec& spec, uint64_t seed, SchedTiming* timing, HostGauge* gauge) {
  SimRep rep;
  const auto t0 = Clock::now();
  const SimInputs in = SetUpSim(spec, seed, gauge, rep);
  WrappedScheduler wrapped(*in.scheduler, timing, gauge);
  const size_t run_mark = gauge != nullptr ? gauge->mark() : 0;
  const double spent_before_s = gauge != nullptr ? gauge->spent_s() : 0.0;
  const auto t_run = Clock::now();
  rep.result = in.sim->Run(wrapped, *in.oracle, in.trace);
  const auto t_ran = Clock::now();
  rep.wrote = WriteJobRecordsCsvFile(rep.result, "jobs.csv") &&
              WriteTimelineCsvFile(rep.result, "timeline.csv");
  const auto t_written = Clock::now();
  rep.run_s = Seconds(t_run, t_ran);
  rep.write_s = Seconds(t_ran, t_written);
  if (gauge != nullptr) {
    rep.run_s -= gauge->spent_s() - spent_before_s;
    gauge->Burst();  // at least one burst inside the window
    rep.run_scale = gauge->ScaleSince(run_mark);
  }
  rep.jobs_csv = ReadFileBytes("jobs.csv");
  rep.timeline_csv = ReadFileBytes("timeline.csv");
  // Wall time of the whole rep, read-back for the output checks included,
  // so the timed pieces leave a remainder (unaccounted_s). Only traced reps,
  // which take no gauge bursts, report it.
  rep.wall_s = SecondsSince(t0);
  return rep;
}

void CheckSimRep(const SimRep& rep, Report& report) {
  const SimResult& r = rep.result;
  report.Check(rep.wrote && !rep.jobs_csv.empty() && !rep.timeline_csv.empty(),
               "jobs/timeline CSVs written");
  report.Check(static_cast<size_t>(r.finished_jobs + r.unfinished_jobs + r.dropped_jobs) ==
                   rep.trace_jobs,
               "finished + unfinished + dropped == trace size");
  report.Check(r.jobs.size() == rep.trace_jobs, "one job record per trace job");
}

int64_t SimFailed(const SimResult& r) { return r.unfinished_jobs + r.dropped_jobs; }

// Profiling-noise seeds one untraced run averages over. The oracle seed
// alone moves Simulator::Run time by about +-15% on the fixed trace, so a
// run that used only its own seed would measure the seed as much as the
// program. Input 0 is the workload seed; inputs 1-7 are a fixed panel that
// every seed shares, so seven eighths of the work is the same whatever the
// seed.
constexpr int kSimInputs = 8;
constexpr int kSimMaxReps = 64;
// Set-up samples per untraced run: the reps' own set-ups, topped up with
// set-up-only samples.
constexpr size_t kSimSetupSamples = 12;

uint64_t InputSeed(uint64_t seed, int k) {
  return k == 0 ? seed : Mix64(static_cast<uint64_t>(k)) % 1000000007ull;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

// Cycles through the kSimInputs inputs (at least once) until `seconds` have
// passed. Each input's figure is the median over its reps; the run reports
// the mean over inputs, and setup_s the median over kSimSetupSamples
// set-ups. All three are host-normalised (see HostGauge).
int RunSimUntraced(const SimSpec& spec, uint64_t seed, double seconds) {
  Report report;
  HostGauge gauge(seed);
  std::vector<double> setup_s;
  std::vector<std::vector<double>> rate(kSimInputs);
  std::vector<std::vector<double>> latency_ms(kSimInputs);
  std::vector<size_t> csv_hash(kSimInputs);
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kSimMaxReps && (i < kSimInputs || SecondsSince(start) < seconds); ++i) {
    const int k = i % kSimInputs;
    const SimRep rep = RunSimRep(spec, InputSeed(seed, k), nullptr, &gauge);
    CheckSimRep(rep, report);
    std::fprintf(stderr,
                 "perfbench: rep %d (input %d): raw setup %.3f s, run %.3f s, write %.3f s; "
                 "host scale setup %.3f, run %.3f\n",
                 i, k, rep.setup_s(), rep.run_s, rep.write_s, rep.setup_scale, rep.run_scale);
    setup_s.push_back(rep.norm_setup_s());
    rate[k].push_back(rep.norm_jobs_per_s());
    latency_ms[k].push_back(rep.norm_latency_s() * 1000.0);
    attempted += static_cast<int64_t>(rep.trace_jobs);
    failed += SimFailed(rep.result);
    const size_t hash = std::hash<std::string>{}(rep.jobs_csv + rep.timeline_csv);
    if (i < kSimInputs) {
      csv_hash[k] = hash;
    } else {
      report.Check(hash == csv_hash[k], "repeated input reproduces identical CSV bytes");
    }
  }
  for (int i = 0; setup_s.size() < kSimSetupSamples; ++i) {
    SimRep sample;
    SetUpSim(spec, InputSeed(seed, i % kSimInputs), &gauge, sample);
    setup_s.push_back(sample.norm_setup_s());
  }
  std::vector<double> input_rate;
  std::vector<double> input_latency_ms;
  for (int k = 0; k < kSimInputs; ++k) {
    input_rate.push_back(Median(rate[k]));
    input_latency_ms.push_back(Median(latency_ms[k]));
  }
  report.Add("setup_s", Median(setup_s));
  report.Add("peak_rss_mb", PeakRssMb());
  report.Add("jobs_per_s", Mean(input_rate));
  report.Add("latency_ms", Mean(input_latency_ms));
  std::fprintf(stderr, "perfbench: %zu gauge bursts, mean %.4f ms (checksum %llx)\n",
               gauge.mark(), gauge.MeanMsSince(0),
               static_cast<unsigned long long>(gauge.checksum()));
  report.Print(attempted, failed);
  return report.correct() ? 0 : 1;
}

void AddSchedLayer(Report& report, const SchedTiming& t, double run_s) {
  report.Add("sched.calls", static_cast<double>(t.round_ms.size()));
  report.Add("sched.busy_s", t.busy_s());
  report.Add("sched.share", Ratio(t.busy_s(), run_s));
  report.Add("sched.round_p50_ms", PercentileOr0(t.round_ms, 50.0));
  report.Add("sched.round_p99_ms", PercentileOr0(t.round_ms, 99.0));
  report.Add("sched.jobs_per_round",
             Ratio(static_cast<double>(t.jobs_seen), static_cast<double>(t.round_ms.size())));
  report.Add("sched.empty_delta_rounds", static_cast<double>(t.empty_delta_rounds));
  report.Add("sched.assignments", static_cast<double>(t.assignments));
  const auto phase_s = [](const char* phase) {
    return Hist("sched.phase_ms", {{"phase", phase}}).sum / 1000.0;
  };
  report.Add("sched.place_s", phase_s("explorer"));
  report.Add("sched.estimate_s", phase_s("estimator"));
  report.Add("sched.memo_s", phase_s("memo_restamp"));
  for (const char* name : {"sched.cells_steady_rounds", "sched.cells_kept_incremental",
                           "sched.cells_full_reranks", "sched.cells_considered"}) {
    report.Add(name, static_cast<double>(Counter(name)));
  }
  // Core layer: oracle / estimator / explorer / tuner.
  report.Add("sched.profile_calls", static_cast<double>(t.profile_calls));
  report.Add("sched.profile_busy_s", t.profile_busy_s);
  const double hits = static_cast<double>(Counter("oracle.batch_hits"));
  const double misses = static_cast<double>(Counter("oracle.batch_misses"));
  report.Add("oracle.batch_hits", hits);
  report.Add("oracle.batch_misses", misses);
  report.Add("oracle.hit_ratio", Ratio(hits, hits + misses));
  for (const char* name : {"estimator.evaluations", "explorer.explorations", "tuner.tunes"}) {
    report.Add(name, static_cast<double>(Counter(name)));
  }
}

// Gauge bursts a traced run takes before and after its measured reps; their
// mean (gauge.burst_ms) tells how fast the host ran the unscaled figures.
constexpr int kTracedGaugeBursts = 20;

int RunSimTraced(const SimSpec& spec, uint64_t seed) {
  Report report;
  // A warm-up rep, then an untraced and a traced rep on the same input, so
  // the tracing overhead is not confounded with the process's cold start.
  // The registry is reset right before the traced rep and read right after.
  // Gauge bursts are taken only around the reps, not inside them.
  HostGauge gauge(seed);
  for (int b = 0; b < kTracedGaugeBursts; ++b) {
    gauge.Burst();
  }
  const SimRep warm = RunSimRep(spec, seed, nullptr, nullptr);
  const SimRep plain = RunSimRep(spec, seed, nullptr, nullptr);
  CounterRegistry::Global().Reset();
  SchedTiming timing;
  const SimRep traced = RunSimRep(spec, seed, &timing, nullptr);
  for (int b = 0; b < kTracedGaugeBursts; ++b) {
    gauge.Burst();
  }
  for (const SimRep* rep : {&warm, &plain, &traced}) {
    CheckSimRep(*rep, report);
    report.Check(rep->jobs_csv == warm.jobs_csv && rep->timeline_csv == warm.timeline_csv,
                 "traced and untraced runs write identical jobs/timeline CSVs");
  }
  report.Check(static_cast<int64_t>(timing.round_ms.size()) == Counter("sim.sched_invocations"),
               "sched.calls == sim.sched_invocations");

  const SimResult& r = traced.result;
  const double sched_s = timing.busy_s() + timing.profile_busy_s;
  // Sim setup layer.
  report.Add("trace.synth_s", traced.trace_s);
  report.Add("oracle.init_s", traced.oracle_s);
  report.Add("fault.schedule_s", traced.fault_s);
  report.Add("setup.other_s", traced.cluster_s + traced.sched_make_s);
  // Engine layer.
  report.Add("sim.run_s", traced.run_s);
  report.Add("engine.self_s", traced.run_s - sched_s);
  report.Add("engine.share", Ratio(traced.run_s - sched_s, traced.run_s));
  report.Add("output.write_s", traced.write_s);
  report.Add("unaccounted_s",
             traced.wall_s - traced.setup_s() - traced.run_s - traced.write_s);
  report.Add("jobs_per_s.untraced", plain.jobs_per_s());
  report.Add("jobs_per_s.traced", traced.jobs_per_s());
  report.Add("sim.restarts", static_cast<double>(Counter("sim.restarts")));
  // Scheduler-initiated restarts (preemptions and resizes), as SimResult
  // reports them per job.
  report.Add("sim.preempts",
             std::round(r.avg_sched_restarts * static_cast<double>(r.jobs.size())));
  report.Add("sim.failure_kills", static_cast<double>(r.failure_kills));
  report.Add("sim.sched_invocations", static_cast<double>(Counter("sim.sched_invocations")));
  // Fidelity guards: deterministic at a fixed seed, equal to crius_sim's.
  report.Add("avg_jct_h", r.avg_jct / kHour);
  report.Add("p99_jct_h", r.p99_jct / kHour);
  report.Add("avg_queue_h", r.avg_queue_time / kHour);
  report.Add("cluster_throughput", r.avg_throughput);
  report.Add("goodput", r.goodput);
  report.Add("failed_frac",
             Ratio(static_cast<double>(SimFailed(r)), static_cast<double>(traced.trace_jobs)));
  AddSchedLayer(report, timing, traced.run_s);
  report.Add("gauge.burst_ms", gauge.MeanMsSince(0));
  report.Add("peak_rss_mb.traced", PeakRssMb());
  report.Print(static_cast<int64_t>(traced.trace_jobs), SimFailed(r));
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-open: one in-process daemon (Controller + session log + Server) fed
// by an open-loop generator over one connection.

// Offered rate of the measured open loop, well below the knee (see
// max_rate_per_s).
constexpr double kServeRate = 1000.0;
// Pause between ticks. crius_serve's default of 20 ms puts about 40
// submissions of this loop into each round, and a round's cost grows faster
// than its batch: rounds took 20 ms and a backlog grew through the session.
// With 2 ms the loop keeps the controller 15-20% busy. The pause
// overshoots by 0.8-1.6 ms on a shared VM, so the tick period, and with it
// the submissions per round, differs by up to 25% between runs; that is
// the main noise left in the gated serve figures.
constexpr double kTickWallSeconds = 0.002;
// A rate probe passes only while the decide and ack medians stay under this.
// Medians, not p99: host stalls of 10-100 ms are frequent on a shared VM and
// fail a one-second probe's p99 or p95 far below the knee, while past the
// knee the backlog grows for the whole probe and drives the median past the
// limit too.
constexpr double kLatencyLimitMs = 10.0;
// Share of --seconds spent in the measured open loop (the rest is set-up
// samples, drain and replay). The traced run's open loop is as long, and its
// rate searches then take about 18 one-second probe sessions more.
constexpr double kServeShare = 0.6;
constexpr size_t kMaxPipeline = 64;

struct ServeSession {
  double setup_s = 0.0;
  double session_wall_s = 0.0;  // controller Start -> Join
  double tick_busy_s = 0.0;     // sum of serve.round_ms, gauge bursts excluded
  size_t rounds = 0;            // controller rounds (ticks) in the session
  // Host-speed scale of the set-up and of the rounds (1 without a gauge).
  double setup_scale = 1.0;
  double busy_scale = 1.0;
  size_t sent = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t transport_errors = 0;
  size_t unanswered = 0;
  std::vector<double> ack_ms;   // response time - due time
  std::vector<double> late_ms;  // send time - due time
  Controller::Stats stats;
  // Traced-run extras.
  SchedTiming sched;
  std::vector<double> handler_ms;
  double drain_s = 0.0;
  double replay_s = 0.0;
  size_t log_rows = 0;
  size_t log_bytes = 0;
  bool replay_identical = false;
  bool drained = false;

  size_t failed() const {
    return rejected + transport_errors + unanswered + stats.infeasible;
  }
  // Host-normalised figures (see HostGauge).
  double norm_setup_s() const { return setup_s * setup_scale; }
  double norm_busy_s() const { return tick_busy_s * busy_scale; }
};

std::string DecisionCsvs(const SimResult& result) {
  std::ostringstream out;
  WriteJobRecordsCsv(result, out);
  WriteEventsCsv(result, out);
  return out.str();
}

// Seeded rotation of feasible testbed submissions, serialized up front.
std::vector<std::string> MakeRequestLines(uint64_t seed, size_t n) {
  Rng rng(seed, "perfbench.serve");
  std::vector<std::string> lines;
  lines.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    TrainingJob job;
    switch (rng.UniformInt(0, 2)) {
      case 0:
        job.spec = ModelSpec{ModelFamily::kBert, 0.76, 256};
        job.requested_gpus = 4;
        break;
      case 1:
        job.spec = ModelSpec{ModelFamily::kWideResNet, 1.0, 256};
        job.requested_gpus = 2;
        break;
      default:
        job.spec = ModelSpec{ModelFamily::kMoe, 1.3, 512};
        job.requested_gpus = 8;
        break;
    }
    job.iterations = rng.UniformInt(3, 8);
    job.requested_type = GpuType::kA40;
    lines.push_back(serve::Serialize(serve::SubmitRequest(job)));
  }
  return lines;
}

// One daemon session: set up, offer `rate` submissions/s for `seconds`, then
// either drain + replay (`drain_and_replay`) or stop without draining. With
// a `gauge`, bursts run on the set-up thread around the set-up and inside
// the controller's rounds (from the scheduler wrapper), and the session's
// set-up and round times are host-normalised.
ServeSession RunServeSession(uint64_t seed, double rate, double seconds, bool traced,
                             bool drain_and_replay, HostGauge* gauge, Report& report) {
  ServeSession out;
  const size_t n = static_cast<size_t>(rate * seconds);
  const std::vector<std::string> lines = MakeRequestLines(seed, n);
  const std::string tag = std::to_string(::getpid());
  const std::string log_path = "session-" + tag + ".csv";
  const std::string socket_path = "serve-" + tag + ".sock";
  if (traced) {
    CounterRegistry::Global().Reset();
  }

  const size_t setup_mark = gauge != nullptr ? gauge->mark() : 0;
  if (gauge != nullptr) {
    gauge->Burst();
  }
  const auto t_setup = Clock::now();
  SessionMeta meta;
  meta.cluster_spec = "testbed";
  meta.scheduler = "crius";
  meta.seed = seed;
  SessionRuntime runtime = MakeSessionRuntime(meta);
  WrappedScheduler scheduler(*runtime.scheduler, traced ? &out.sched : nullptr, gauge);
  SessionLog log(log_path, meta);
  Controller::Config config;
  config.tick_virtual_seconds = 60.0;
  config.tick_wall_seconds = kTickWallSeconds;
  config.queue.capacity = 16384;
  config.queue.shards = 1;
  Controller controller(runtime.cluster, runtime.sim, scheduler, *runtime.oracle, &log, config);
  serve::Server::Handler handler = serve::MakeHandler(controller);
  if (traced) {
    // The server dispatches on its poll thread (pool of one), so the vector
    // has one writer; it is read after Stop() joins that thread.
    handler = [inner = std::move(handler), &out](const std::string& line) {
      const auto t0 = Clock::now();
      std::string response = inner(line);
      out.handler_ms.push_back(Ms(t0, Clock::now()));
      return response;
    };
  }
  serve::Server server(socket_path, std::move(handler));
  std::string error;
  serve::Client client;
  if (!server.Start(&error) || !client.Connect(socket_path, &error)) {
    report.Check(false, "serve start/connect: " + error);
    server.Stop();
    return out;
  }
  const HistogramSnapshot rounds_before = Hist("serve.round_ms");
  // The controller thread leaves the gauge alone until this thread's burst
  // after the set-up is recorded.
  if (gauge != nullptr) {
    gauge->set_paused(true);
  }
  const auto t_start = Clock::now();
  controller.Start();
  out.setup_s = SecondsSince(t_setup);
  size_t session_mark = 0;
  double gauge_spent_s = 0.0;
  if (gauge != nullptr) {
    gauge->Burst();
    out.setup_scale = gauge->ScaleSince(setup_mark);
    session_mark = gauge->mark();
    gauge_spent_s = gauge->spent_s();
    gauge->set_paused(false);
  }

  // Open loop: request i is due at gen_start + i / rate. Whatever is due is
  // sent in one pipelined batch, so a stall delays later sends (counted as
  // lateness and in ack latency) instead of thinning the offered load.
  out.ack_ms.reserve(n);
  out.late_ms.reserve(n);
  std::vector<std::string> batch;
  std::vector<std::string> responses;
  const auto gen_start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](size_t i) {
    return gen_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  size_t i = 0;
  while (i < n) {
    auto now = Clock::now();
    if (now < due(i)) {
      std::this_thread::sleep_until(due(i));
      continue;
    }
    size_t j = i;
    batch.clear();
    while (j < n && j - i < kMaxPipeline && due(j) <= now) {
      batch.push_back(lines[j]);
      ++j;
    }
    const auto sent_at = Clock::now();
    bool ok = false;
    if (batch.size() == 1) {
      responses.resize(1);
      ok = client.Call(batch[0], &responses[0], &error);
    } else {
      ok = client.CallBatch(batch, &responses, &error);
    }
    const auto acked_at = Clock::now();
    out.sent += batch.size();
    if (!ok) {
      ++out.transport_errors;
      out.unanswered += batch.size();
      break;
    }
    for (size_t k = i; k < j; ++k) {
      out.ack_ms.push_back(Ms(due(k), acked_at));
      out.late_ms.push_back(Ms(due(k), sent_at));
      if (responses[k - i].find("\"ok\":true") != std::string::npos) {
        ++out.accepted;
      } else {
        ++out.rejected;
      }
    }
    i = j;
  }

  // Wait until every accepted submission has been applied at a tick; a probe
  // waits only a few ticks (a backlog fails it anyway).
  const int max_wait_ms = drain_and_replay ? 5000 : 20;
  for (int spin = 0; spin < max_wait_ms && controller.GetStats().decisions < out.accepted;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  out.stats = controller.GetStats();

  // No bursts from here on: the shutdown drain schedules outside the rounds,
  // and burst time is subtracted from round time only.
  if (gauge != nullptr) {
    gauge->set_paused(true);
  }
  serve::JsonObject response;
  const auto t_drain = Clock::now();
  if (!client.Shutdown(drain_and_replay, &response, &error)) {
    ++out.transport_errors;
  }
  controller.Join();
  out.drain_s = SecondsSince(t_drain);
  out.session_wall_s = SecondsSince(t_start);
  const HistogramSnapshot rounds_after = Hist("serve.round_ms");
  out.rounds = rounds_after.count - rounds_before.count;
  out.tick_busy_s = (rounds_after.sum - rounds_before.sum) / 1000.0;
  if (gauge != nullptr) {
    out.tick_busy_s -= gauge->spent_s() - gauge_spent_s;
    if (gauge->mark() == session_mark) {
      gauge->Burst();  // at least one burst inside the window
    }
    out.busy_scale = gauge->ScaleSince(session_mark);
    gauge->set_paused(false);
  }
  client.Close();
  server.Stop();
  out.drained = !controller.interrupted();
  if (drain_and_replay) {
    const SimResult live = controller.TakeResult();
    log.Flush();
    const std::string log_bytes = ReadFileBytes(log_path);
    out.log_bytes = log_bytes.size();
    out.log_rows = static_cast<size_t>(std::count(log_bytes.begin(), log_bytes.end(), '\n'));
    const auto t_replay = Clock::now();
    const SimResult replayed = ReplaySessionFile(log_path);
    out.replay_s = SecondsSince(t_replay);
    out.replay_identical = DecisionCsvs(live) == DecisionCsvs(replayed);
  }
  std::remove(log_path.c_str());
  return out;
}

void CheckServeSession(const ServeSession& s, Report& report) {
  report.Check(s.transport_errors == 0, "zero transport errors");
  report.Check(s.unanswered == 0 && s.accepted + s.rejected == s.sent,
               "every submission answered");
  report.Check(s.stats.decisions >= s.accepted, "every accepted submission applied");
  report.Check(s.drained, "session drained");
  report.Check(s.replay_identical, "live CSVs == ReplaySessionFile CSVs");
}

// One probe session at `rate`: passes when the decide and ack medians stay
// under kLatencyLimitMs with no rejects, transport errors or unapplied backlog.
bool ProbePasses(uint64_t seed, double rate, Report& report) {
  constexpr double kProbeSeconds = 1.0;
  const ServeSession s = RunServeSession(seed, rate, kProbeSeconds, /*traced=*/false,
                                         /*drain_and_replay=*/false, nullptr, report);
  const double decide_ms = s.stats.latency_p50_ms;
  const double ack_ms = PercentileOr0(s.ack_ms, 50.0);
  const bool pass = s.transport_errors == 0 && s.rejected == 0 && s.unanswered == 0 &&
                    s.stats.decisions >= s.accepted && decide_ms < kLatencyLimitMs &&
                    ack_ms < kLatencyLimitMs;
  std::fprintf(stderr,
               "perfbench: probe %.0f/s: decide p50 %.2f ms, ack p50 %.2f ms, %zu rejected "
               "-> %s\n",
               rate, decide_ms, ack_ms, s.rejected, pass ? "pass" : "fail");
  return pass;
}

// Highest offered rate that passes a probe: a geometric bisection between a
// passing and a failing rate, ending when the bracket is within 5%. Near the
// knee a probe's outcome is a coin flip, so the run reports the median of
// kProbeSearches independent searches.
constexpr int kProbeSearches = 3;

double ProbeMaxRate(uint64_t seed, Report& report) {
  double lo = kServeRate;  // the measured open loop runs here
  double hi = 16.0 * kServeRate;
  while (hi / lo > 1.05) {
    const double rate = std::sqrt(lo * hi);
    (ProbePasses(seed, rate, report) ? lo : hi) = rate;
  }
  return lo;
}

// Extra short sessions an untraced run starts only to sample set-up time.
constexpr int kServeSetupSamples = 10;

int RunServeUntraced(uint64_t seed, double seconds) {
  Report report;
  HostGauge gauge(seed);
  std::vector<double> setup_s;
  for (int i = 0; i < kServeSetupSamples; ++i) {
    setup_s.push_back(RunServeSession(seed, kServeRate, 0.05, /*traced=*/false,
                                      /*drain_and_replay=*/false, &gauge, report)
                          .norm_setup_s());
  }
  const ServeSession main =
      RunServeSession(seed, kServeRate, kServeShare * seconds, /*traced=*/false,
                      /*drain_and_replay=*/true, &gauge, report);
  CheckServeSession(main, report);
  setup_s.push_back(main.norm_setup_s());
  report.Add("setup_s", Median(setup_s));
  report.Add("peak_rss_mb", PeakRssMb());
  // Accepted-path capacity: submissions applied per second the controller's
  // round loop was busy (drain + apply + schedule + log, sleep excluded).
  // The probed max_rate_per_s (traced run) measures the same knee directly
  // but spread 9-13% across runs of unchanged code.
  report.Add("jobs_per_s", Ratio(static_cast<double>(main.accepted), main.norm_busy_s()));
  // Decision work: controller round time per applied submission, the
  // reciprocal of jobs_per_s. The decision latency a client sees adds the
  // wait for the next tick; its median (decide_p50_ms, traced run) is mostly
  // that wait, half the tick period of about 3 ms, so a 2x slower round
  // moves it only 10-20%. The mean round time, the other candidate, follows
  // the submissions per round and with them the tick period (see
  // kTickWallSeconds): it spread 0.185 across ten seeds of unchanged code.
  report.Add("latency_ms",
             Ratio(main.norm_busy_s() * 1000.0, static_cast<double>(main.accepted)));
  std::fprintf(stderr,
               "perfbench: serve-open at %.0f/s: ack p50 %.3f p99 %.3f ms, decide p50 %.3f "
               "p99 %.3f ms; raw controller busy %.3f s over %zu rounds and %zu submissions, "
               "host scale %.3f; %zu gauge bursts, mean %.4f ms (checksum %llx)\n",
               kServeRate, PercentileOr0(main.ack_ms, 50.0), PercentileOr0(main.ack_ms, 99.0),
               main.stats.latency_p50_ms, main.stats.latency_p99_ms, main.tick_busy_s,
               main.rounds, main.sent, main.busy_scale, gauge.mark(), gauge.MeanMsSince(0),
               static_cast<unsigned long long>(gauge.checksum()));
  report.Print(static_cast<int64_t>(main.sent), static_cast<int64_t>(main.failed()));
  return report.correct() ? 0 : 1;
}

void AddServeLayer(Report& report, const ServeSession& s) {
  report.Add("ack_p50_ms", PercentileOr0(s.ack_ms, 50.0));
  report.Add("ack_p99_ms", PercentileOr0(s.ack_ms, 99.0));
  report.Add("decide_p50_ms", s.stats.latency_p50_ms);
  report.Add("decide_p99_ms", s.stats.latency_p99_ms);
  report.Add("gen.late_p99_ms", PercentileOr0(s.late_ms, 99.0));
  report.Add("gen.late_max_ms",
             s.late_ms.empty() ? 0.0 : *std::max_element(s.late_ms.begin(), s.late_ms.end()));
  report.Add("handler.calls", static_cast<double>(s.handler_ms.size()));
  report.Add("handler.busy_s", Sum(s.handler_ms) / 1000.0);
  report.Add("handler.p99_ms", PercentileOr0(s.handler_ms, 99.0));
  report.Add("ingress.accepted", static_cast<double>(Counter("serve.ingress.accepted")));
  report.Add("ingress.rejected", static_cast<double>(Counter("serve.ingress.rejected")));
  const HistogramSnapshot round = Hist("serve.round_ms");
  report.Add("tick.count", static_cast<double>(Counter("serve.ticks")));
  report.Add("tick.busy_share", Ratio(round.sum / 1000.0, s.session_wall_s));
  report.Add("tick.round_p50_ms", round.p50);
  report.Add("tick.round_p99_ms", round.p99);
  for (const char* phase : {"drain", "apply", "schedule", "log"}) {
    report.Add(std::string("tick.") + phase + "_s",
               Hist("serve.phase_ms", {{"phase", phase}}).sum / 1000.0);
  }
  report.Add("log.rows", static_cast<double>(s.log_rows));
  report.Add("log.bytes", static_cast<double>(s.log_bytes));
  report.Add("drain_s", s.drain_s);
  report.Add("replay_s", s.replay_s);
}

int RunServeTraced(uint64_t seed, double seconds) {
  Report report;
  HostGauge gauge(seed);
  for (int b = 0; b < kTracedGaugeBursts; ++b) {
    gauge.Burst();
  }
  const ServeSession s =
      RunServeSession(seed, kServeRate, kServeShare * seconds, /*traced=*/true,
                      /*drain_and_replay=*/true, /*gauge=*/nullptr, report);
  CheckServeSession(s, report);
  // The serve side's JCT and throughput follow wall-clock tick timing, so
  // the batch fidelity guards are not reported here.
  report.Add("failed_frac",
             Ratio(static_cast<double>(s.failed()), static_cast<double>(s.sent)));
  AddSchedLayer(report, s.sched, s.session_wall_s);
  AddServeLayer(report, s);
  for (int b = 0; b < kTracedGaugeBursts; ++b) {
    gauge.Burst();
  }
  report.Add("gauge.burst_ms", gauge.MeanMsSince(0));
  report.Add("peak_rss_mb.traced", PeakRssMb());
  // Probe sessions run after the traced one has been read out of the
  // registry, so they do not pollute its counters.
  std::vector<double> max_rate;
  for (int i = 0; i < kProbeSearches; ++i) {
    max_rate.push_back(ProbeMaxRate(seed, report));
  }
  report.Add("max_rate_per_s", Median(max_rate));
  report.Print(static_cast<int64_t>(s.sent), static_cast<int64_t>(s.failed()));
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "crius_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "crius_perfbench: bad --seconds or --trace\n");
    return 2;
  }
  ThreadPool::SetGlobalThreads(1);
  SetLogLevel(LogLevel::kError);

  if (workload == "week-heavy" || workload == "pai-churn") {
    SimSpec spec;
    if (workload == "pai-churn") {
      spec = SimSpec{.pai = true,
                     .jobs = 10000,
                     .node_mtbf_hours = 100.0,
                     .straggler_rate = 0.02,
                     .checkpoint_interval = 1800.0};
    }
    return trace == 1 ? RunSimTraced(spec, seed) : RunSimUntraced(spec, seed, seconds);
  }
  if (workload == "serve-open") {
    return trace == 1 ? RunServeTraced(seed, seconds) : RunServeUntraced(seed, seconds);
  }
  std::fprintf(stderr, "crius_perfbench: unknown --workload '%s'\n", workload.c_str());
  return 2;
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) { return crius::Main(argc, argv); }
