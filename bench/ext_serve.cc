// Extension: closed-loop load generator for the crius_serve daemon path.
//
// Spins up the full serving stack in-process -- Controller, Unix-socket
// Server, session protocol -- and hammers it with N client threads, each
// pipelining batches of submissions over a real socket (Client::CallBatch:
// write a whole batch, then read the batch's responses). Reports ingress
// throughput (submissions/sec), client-observed batch round-trip
// percentiles, and the controller's decision latency (enqueue ->
// applied-at-tick) p50/p95/p99.
//
// Modes:
//   default        8 clients x 20000 submissions in batches of 256; measures
//                  the saturated ingress path. Uses the fcfs scheduler so
//                  engine rounds stay cheap -- the bench measures ingress,
//                  not scheduling.
//   --smoke        4 clients against a deliberately tiny queue (capacity 4,
//                  max-pending 2) so over-capacity submissions are rejected;
//                  exits non-zero unless (a) some submissions were accepted,
//                  (b) some were rejected with a machine-readable reason from
//                  the admission policy, and (c) no transport errors
//                  occurred. (CI regression gate for the admission path.)
//
// Flags: --smoke, --clients N, --requests N (per client), --batch N
// (pipelined submissions per round trip), --threads N (connection-dispatch
// pool), --json F (write a BENCH_serve.json perf-trajectory report for
// crius_benchdiff).

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/serve/client.h"
#include "src/serve/controller.h"
#include "src/serve/replay.h"
#include "src/serve/server.h"
#include "src/serve/service.h"
#include "src/util/counters.h"
#include "src/util/stats.h"

namespace crius {
namespace {

// What each pipelined client thread saw.
struct ClientResult {
  size_t submitted = 0;  // responses received (accepted + rejected)
  size_t accepted = 0;
  std::map<std::string, size_t> rejects;  // machine-readable reason -> count
  size_t transport_errors = 0;
  std::vector<double> rtt_ms;  // client-observed round trip per batch
};

// A small rotation of feasible testbed jobs; the bench measures the ingress
// path, not the schedule, so the jobs are short.
TrainingJob MakeJob(size_t i) {
  TrainingJob job;
  switch (i % 3) {
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
  job.iterations = 5;
  job.requested_type = GpuType::kA40;
  return job;
}

ClientResult RunClient(const std::string& socket_path, size_t requests, size_t batch,
                       size_t salt) {
  ClientResult result;
  serve::Client client;
  std::string error;
  if (!client.Connect(socket_path, &error)) {
    std::fprintf(stderr, "ext_serve: client connect: %s\n", error.c_str());
    ++result.transport_errors;
    return result;
  }
  // Request lines are serialized once, outside the timed loop: on a shared
  // core every client-side JSON cycle steals budget from the server path
  // this bench measures. The job rotation has three variants.
  std::vector<std::string> variants;
  for (size_t i = 0; i < 3; ++i) {
    variants.push_back(serve::Serialize(serve::SubmitRequest(MakeJob(i))));
  }
  std::vector<std::string> lines;
  std::vector<std::string> responses;
  size_t sent = 0;
  while (sent < requests) {
    const size_t n = std::min(batch, requests - sent);
    lines.clear();
    for (size_t i = 0; i < n; ++i) {
      lines.push_back(variants[(salt + sent + i) % variants.size()]);
    }
    const auto start = std::chrono::steady_clock::now();
    if (!client.CallBatch(lines, &responses, &error)) {
      ++result.transport_errors;
      break;
    }
    const auto end = std::chrono::steady_clock::now();
    result.rtt_ms.push_back(std::chrono::duration<double, std::milli>(end - start).count());
    for (const std::string& line : responses) {
      // Fast scan instead of a full JSON parse (same shared-core argument);
      // the protocol serializer emits compact `"ok":true` / `"reason":"x"`.
      ++result.submitted;
      if (line.find("\"ok\":true") != std::string::npos) {
        ++result.accepted;
      } else {
        const size_t key = line.find("\"reason\":\"");
        if (key == std::string::npos) {
          ++result.rejects["<missing reason>"];
        } else {
          const size_t begin = key + 10;
          const size_t end_quote = line.find('"', begin);
          ++result.rejects[line.substr(begin, end_quote - begin)];
        }
      }
    }
    sent += n;
  }
  return result;
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  using namespace crius;
  ConfigureBenchThreads(argc, argv);
  const bool smoke = BenchFlagPresent(argc, argv, "--smoke");
  size_t clients = static_cast<size_t>(BenchFlagInt(argc, argv, "--clients", 0));
  size_t requests = static_cast<size_t>(BenchFlagInt(argc, argv, "--requests", 0));
  size_t batch = static_cast<size_t>(BenchFlagInt(argc, argv, "--batch", 0));
  if (clients == 0) {
    clients = smoke ? 4 : 8;
  }
  if (requests == 0) {
    requests = smoke ? 40 : 20000;
  }
  if (batch == 0) {
    batch = smoke ? 1 : 256;
  }

  // The same runtime crius_serve builds from its flags; testbed keeps the
  // accepted jobs cheap to place. Full mode runs fcfs: the bench saturates
  // the ingress path, and cheap scheduler rounds keep the controller tick
  // from becoming the bottleneck being measured.
  SessionMeta meta;
  if (!smoke) {
    meta.scheduler = "fcfs";
  }
  SessionRuntime runtime = MakeSessionRuntime(meta);

  Controller::Config config;
  config.tick_virtual_seconds = 60.0;
  config.tick_wall_seconds = smoke ? 0.02 : 0.002;
  if (smoke) {
    // Tiny queue + pending cap: clients outrun the controller tick, so the
    // admission policy must reject the overflow with a machine-readable
    // reason -- the property this gate asserts.
    config.queue.capacity = 4;
    config.queue.max_pending_jobs = 2;
  } else {
    // Deep enough to absorb bursts, bounded so the engine never sees an
    // unbounded backlog: overflow is rejected by the admission
    // checks (queue_full / cluster_saturated), which is exactly the ingress
    // work this bench wants to measure.
    config.queue.capacity = 16384;
    config.queue.max_pending_jobs = 512;
  }
  Controller controller(runtime.cluster, runtime.sim, *runtime.scheduler, *runtime.oracle,
                        /*log=*/nullptr, config);

  const std::string socket_path =
      "/tmp/crius_ext_serve." + std::to_string(::getpid()) + ".sock";
  serve::Server server(socket_path, serve::MakeHandler(controller));
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "ext_serve: %s\n", error.c_str());
    return 1;
  }
  controller.Start();

  const CounterRegistry& registry = CounterRegistry::Global();
  const int64_t ingress_before = registry.CounterValue("serve.ingress.accepted") +
                                 registry.CounterValue("serve.ingress.rejected");
  const auto load_start = std::chrono::steady_clock::now();
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(
        [&, c] { results[c] = RunClient(socket_path, requests, batch, c * 7919); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - load_start).count();
  const int64_t ingress_commands = registry.CounterValue("serve.ingress.accepted") +
                                   registry.CounterValue("serve.ingress.rejected") -
                                   ingress_before;

  // Let the controller apply everything still queued before sampling stats,
  // then stop without draining -- the bench measures ingress, not the sim.
  serve::Client probe;
  serve::JsonObject response;
  bool stats_ok = false;
  Controller::Stats stats;
  if (probe.Connect(socket_path, &error)) {
    for (int spin = 0; spin < 200; ++spin) {
      stats = controller.GetStats();
      if (stats.decisions >= stats.accepted) {
        break;  // every ingress-accepted command has been applied
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stats_ok = probe.Stats(&response, &error);
    probe.Shutdown(/*drain=*/false, &response, &error);
  }
  controller.Join();
  server.Stop();
  stats = controller.GetStats();

  ClientResult total;
  for (const ClientResult& r : results) {
    total.submitted += r.submitted;
    total.accepted += r.accepted;
    total.transport_errors += r.transport_errors;
    for (const auto& [reason, count] : r.rejects) {
      total.rejects[reason] += count;
    }
    total.rtt_ms.insert(total.rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
  }
  const size_t submitted = total.submitted;
  const double submissions_per_sec =
      elapsed > 0.0 ? static_cast<double>(submitted) / elapsed : 0.0;
  const double ingress_per_sec =
      elapsed > 0.0 ? static_cast<double>(ingress_commands) / elapsed : 0.0;

  std::printf("ext_serve: %zu clients x %zu requests, batch %zu, queue capacity %zu%s\n",
              clients, requests, batch, config.queue.capacity, smoke ? " (smoke)" : "");
  std::printf("  submissions        %zu in %.2f s  (%.0f submissions/sec)\n", submitted,
              elapsed, submissions_per_sec);
  std::printf("  ingress commands   %lld  (%.0f/sec through the admission path)\n",
              static_cast<long long>(ingress_commands), ingress_per_sec);
  std::printf("  accepted           %zu\n", total.accepted);
  for (const auto& [reason, count] : total.rejects) {
    std::printf("  rejected[%s]  %zu\n", reason.c_str(), count);
  }
  if (!total.rtt_ms.empty()) {
    std::printf("  batch RTT ms       p50 %.3f  p95 %.3f  p99 %.3f (batch=%zu)\n",
                Percentile(total.rtt_ms, 50.0), Percentile(total.rtt_ms, 95.0),
                Percentile(total.rtt_ms, 99.0), batch);
  }
  std::printf("  decision latency   p50 %.3f  p95 %.3f  p99 %.3f ms over %zu decisions\n",
              stats.latency_p50_ms, stats.latency_p95_ms, stats.latency_p99_ms,
              stats.decisions);
  std::printf("  controller         %zu ticks, %zu jobs accepted, %zu infeasible\n",
              stats.ticks, stats.accepted, stats.infeasible);

  const std::string report_path = BenchReportPathFromArgs(argc, argv);
  if (!report_path.empty()) {
    size_t rejected = 0;
    for (const auto& [reason, count] : total.rejects) {
      rejected += count;
    }
    BenchReport report;
    report.bench = "ext_serve";
    report.meta["mode"] = smoke ? "smoke" : "full";
    report.meta["clients"] = std::to_string(clients);
    report.meta["requests_per_client"] = std::to_string(requests);
    report.meta["batch"] = std::to_string(batch);
    report.AddMetric("submissions_per_sec", submissions_per_sec, "1/s", "higher", 0.8);
    report.AddMetric("serve.ingress.submissions_per_sec", ingress_per_sec, "1/s", "higher",
                     0.8);
    report.AddMetric("rtt_p50_ms", Percentile(total.rtt_ms, 50.0), "ms", "lower", 3.0);
    report.AddMetric("rtt_p95_ms", Percentile(total.rtt_ms, 95.0), "ms", "lower", 4.0);
    report.AddMetric("decision_p50_ms", stats.latency_p50_ms, "ms", "lower", 3.0);
    report.AddMetric("decision_p95_ms", stats.latency_p95_ms, "ms", "lower", 4.0);
    report.AddMetric("accepted", static_cast<double>(total.accepted), "", "none");
    report.AddMetric("rejected", static_cast<double>(rejected), "", "none");
    report.AddMetric("transport_errors", static_cast<double>(total.transport_errors), "",
                     "none");
    if (!EmitBenchReport(report, report_path)) {
      return 1;
    }
  }

  if (total.transport_errors > 0) {
    std::fprintf(stderr, "ext_serve: FAIL: %zu transport errors\n", total.transport_errors);
    return 1;
  }
  if (!stats_ok) {
    std::fprintf(stderr, "ext_serve: FAIL: stats request failed: %s\n", error.c_str());
    return 1;
  }
  if (smoke) {
    if (total.accepted == 0) {
      std::fprintf(stderr, "ext_serve: FAIL: no submission was accepted\n");
      return 1;
    }
    size_t over_capacity = 0;
    for (const auto& [reason, count] : total.rejects) {
      if (reason == "queue_full" || reason == "cluster_saturated") {
        over_capacity += count;
      } else {
        std::fprintf(stderr, "ext_serve: FAIL: unexpected reject reason '%s'\n",
                     reason.c_str());
        return 1;
      }
    }
    if (over_capacity == 0) {
      std::fprintf(stderr,
                   "ext_serve: FAIL: no over-capacity submission was rejected (queue "
                   "capacity %zu, %zu clients)\n",
                   config.queue.capacity, clients);
      return 1;
    }
    std::printf("ext_serve smoke OK: %zu accepted, %zu rejected over capacity\n",
                total.accepted, over_capacity);
  }
  return 0;
}
