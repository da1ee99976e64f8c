// Figures 15-17: large-scale simulation on the 1,280-GPU heterogeneous
// cluster (Table 1) with the one-week heavy Philly-like trace.
//
//   Fig. 15 -- model-size distribution of the workload;
//   Fig. 16 -- cluster-throughput timeline (Crius scales up faster in bursts
//              and scales down earlier as load drains);
//   Fig. 17 -- (a) avg JCT reductions (paper: -81.3% FCFS, -75.8% EF-LS,
//              -80.1% Gandiva, -66.4% Gavel), (b) finished jobs (up to
//              1.29x), (c) avg/peak throughput (up to 1.54x / 1.57x).

#include <cstdio>

#include "bench/bench_util.h"
#include "bench/chart.h"

int main() {
  using namespace crius;
  Cluster cluster = MakeSimulatedCluster();
  PerformanceOracle oracle(cluster, 42);
  const auto trace = GenerateTrace(cluster, oracle, PhillyWeekHeavyConfig());

  // ---- Fig. 15: model-size distribution -----------------------------------
  Table hist("Fig. 15 Model-size distribution of the large-scale workload");
  hist.SetHeader({"model", "jobs", "share"});
  for (const auto& [name, count] : ModelSizeHistogram(trace)) {
    hist.AddRow({name, Table::FmtInt(count),
                 Table::FmtPercent(static_cast<double>(count) / trace.size())});
  }
  hist.Print();

  // ---- Run all schedulers ---------------------------------------------------
  std::printf("\nRunning %zu jobs / 1 week on %d GPUs under 5 schedulers...\n", trace.size(),
              cluster.TotalGpus());
  SimConfig config;
  std::vector<SimResult> results;
  for (auto& sched : MakeAllSchedulers(&oracle)) {
    Simulator sim(cluster, config);
    results.push_back(sim.Run(*sched, oracle, trace));
    std::printf("  %-15s done\n", results.back().scheduler.c_str());
    std::fflush(stdout);
  }
  const SimResult& crius = results.back();

  // ---- Fig. 16: throughput timeline -----------------------------------------
  {
    std::vector<ChartSeries> chart_series;
    for (const SimResult& r : results) {
      ChartSeries s;
      s.label = r.scheduler;
      // 2-hour buckets over the first 8 days.
      const double bucket = 2.0 * kHour;
      for (double t0 = 0.0; t0 < 8.0 * kDay; t0 += bucket) {
        double sum = 0.0;
        int n = 0;
        for (const ThroughputSample& sample : r.timeline) {
          if (sample.time >= t0 && sample.time < t0 + bucket) {
            sum += sample.normalized_throughput;
            ++n;
          }
        }
        s.values.push_back(n > 0 ? sum / n : 0.0);
      }
      chart_series.push_back(std::move(s));
    }
    ChartOptions opt;
    opt.width = 96;
    opt.height = 16;
    opt.x_label = "time (0 .. 192 h)";
    std::fputs(RenderLineChart("Fig. 16 Cluster-throughput timeline (normalized)",
                               chart_series, opt)
                   .c_str(),
               stdout);
  }

  Table timeline("Fig. 16 numeric timeline (6-hour buckets)");
  {
    std::vector<std::string> header = {"t (h)"};
    for (const SimResult& r : results) {
      header.push_back(r.scheduler);
    }
    timeline.SetHeader(header);
    const double bucket = 6.0 * kHour;
    const double end = 8.0 * kDay;
    for (double t0 = 0.0; t0 < end; t0 += bucket) {
      std::vector<std::string> row = {Table::Fmt(t0 / kHour, 0)};
      bool any = false;
      for (const SimResult& r : results) {
        double sum = 0.0;
        int n = 0;
        for (const ThroughputSample& s : r.timeline) {
          if (s.time >= t0 && s.time < t0 + bucket) {
            sum += s.normalized_throughput;
            ++n;
          }
        }
        row.push_back(n > 0 ? Table::Fmt(sum / n, 0) : "-");
        any |= n > 0;
      }
      if (any) {
        timeline.AddRow(row);
      }
    }
  }
  timeline.Print();

  // ---- Fig. 17: numeric comparison ------------------------------------------
  Table summary("Fig. 17 Large-scale comparison");
  summary.SetHeader({"scheduler", "avg JCT", "Crius JCT delta", "finished jobs",
                     "Crius finish ratio", "avg thr", "peak thr", "gpu util",
                     "avg restarts"});
  for (const SimResult& r : results) {
    const double jct_delta = (1.0 - crius.avg_jct / r.avg_jct) * 100.0;
    summary.AddRow({r.scheduler, Hours(r.avg_jct),
                    &r == &crius ? "-" : Table::Fmt(-jct_delta, 1) + "%",
                    Table::FmtInt(r.finished_jobs),
                    &r == &crius ? "-" : Ratio(crius.finished_jobs, r.finished_jobs),
                    Table::Fmt(r.avg_throughput, 0), Table::Fmt(r.peak_throughput, 0),
                    Table::FmtPercent(r.avg_gpu_utilization),
                    Table::Fmt(r.avg_restarts, 2)});
  }
  summary.Print();

  std::printf("\nCrius average restarts: %.2f (paper: 2.29, search depth 3)\n",
              crius.avg_restarts);
  return 0;
}
