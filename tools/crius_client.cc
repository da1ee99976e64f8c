// crius_client: scripted client for a running crius_serve daemon.
//
// Reads commands from a script file (or stdin), one per line, translates them
// into protocol requests, and prints each response. Blank lines and '#'
// comments are skipped.
//
// Commands:
//   submit FAMILY PARAMS_B BATCH ITERS GPUS TYPE [DEADLINE]
//   cancel JOB_ID
//   fail-node NODE_ID
//   recover-node NODE_ID
//   query JOB_ID
//   stats
//   metrics [json|prometheus]       print the raw registry snapshot payload
//   wait-idle [TIMEOUT_SECONDS]     poll stats until no job is live
//   shutdown [drain|now]
//   sleep SECONDS                   wall-clock pause between commands
//
// Example session:
//   crius_client --socket /tmp/crius.sock --script - <<'EOF'
//   submit BERT 1.3 256 50 8 A100
//   fail-node 0
//   recover-node 0
//   wait-idle 60
//   shutdown drain
//   EOF
//
// Exit code: 0 when every command got a response (including ok:false
// rejections, which are protocol-level answers), 1 on transport or script
// errors.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/crius.h"

namespace crius {
namespace {

bool PrintResponse(const std::string& command, const serve::JsonObject& response) {
  std::printf("%s -> %s\n", command.c_str(), serve::Serialize(response).c_str());
  std::fflush(stdout);
  return true;
}

int RunScript(serve::Client& client, std::istream& script) {
  std::string line;
  int line_no = 0;
  while (std::getline(script, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string cmd;
    tokens >> cmd;
    if (cmd.empty() || cmd[0] == '#') {
      continue;
    }
    std::string error;
    serve::JsonObject response;
    bool ok = true;
    if (cmd == "submit") {
      std::string family;
      std::string type;
      double params = 0.0;
      double deadline = 0.0;
      int64_t batch = 0;
      int64_t iters = 0;
      int gpus = 0;
      tokens >> family >> params >> batch >> iters >> gpus >> type;
      if (tokens.fail()) {
        std::fprintf(stderr, "crius_client: line %d: bad submit syntax\n", line_no);
        return 1;
      }
      tokens >> deadline;  // optional
      serve::JsonObject request;
      request.Set("cmd", Json::Str("submit"));
      request.Set("family", Json::Str(family));
      request.Set("params_billion", Json::Number(params));
      request.Set("global_batch", Json::Number(static_cast<double>(batch)));
      request.Set("iterations", Json::Number(static_cast<double>(iters)));
      request.Set("gpus", Json::Number(gpus));
      request.Set("type", Json::Str(type));
      if (deadline > 0.0) {
        request.Set("deadline", Json::Number(deadline));
      }
      ok = client.CallJson(request, &response, &error);
    } else if (cmd == "cancel" || cmd == "query") {
      int64_t job_id = -1;
      tokens >> job_id;
      if (tokens.fail()) {
        std::fprintf(stderr, "crius_client: line %d: %s needs a job id\n", line_no,
                     cmd.c_str());
        return 1;
      }
      ok = cmd == "cancel" ? client.Cancel(job_id, &response, &error)
                           : client.Query(job_id, &response, &error);
    } else if (cmd == "fail-node" || cmd == "recover-node") {
      int node_id = -1;
      tokens >> node_id;
      if (tokens.fail()) {
        std::fprintf(stderr, "crius_client: line %d: %s needs a node id\n", line_no,
                     cmd.c_str());
        return 1;
      }
      ok = cmd == "fail-node" ? client.FailNode(node_id, &response, &error)
                              : client.RecoverNode(node_id, &response, &error);
    } else if (cmd == "stats") {
      ok = client.Stats(&response, &error);
    } else if (cmd == "metrics") {
      std::string format = "json";
      tokens >> format;  // optional
      if (format != "json" && format != "prometheus") {
        std::fprintf(stderr, "crius_client: line %d: metrics format must be json|prometheus\n",
                     line_no);
        return 1;
      }
      if (!client.Metrics(format, &response, &error)) {
        std::fprintf(stderr, "crius_client: line %d: %s\n", line_no, error.c_str());
        return 1;
      }
      // Print the payload itself (not the envelope): `metrics json` gives one
      // parseable snapshot document, `metrics prometheus` a scrapable page.
      std::printf("%s\n", response.StringOr("metrics", "").c_str());
      std::fflush(stdout);
      continue;
    } else if (cmd == "wait-idle") {
      double timeout = 120.0;
      tokens >> timeout;  // optional
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout);
      while (true) {
        if (!client.Stats(&response, &error)) {
          ok = false;
          break;
        }
        if (response.NumberOr("live_jobs", 1.0) <= 0.0) {
          break;
        }
        if (std::chrono::steady_clock::now() >= deadline) {
          std::fprintf(stderr, "crius_client: line %d: wait-idle timed out after %.0f s\n",
                       line_no, timeout);
          return 1;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    } else if (cmd == "shutdown") {
      std::string mode = "drain";
      tokens >> mode;  // optional
      if (mode != "drain" && mode != "now") {
        std::fprintf(stderr, "crius_client: line %d: shutdown mode must be drain|now\n",
                     line_no);
        return 1;
      }
      ok = client.Shutdown(mode == "drain", &response, &error);
    } else if (cmd == "sleep") {
      double seconds = 0.0;
      tokens >> seconds;
      if (tokens.fail() || seconds < 0.0) {
        std::fprintf(stderr, "crius_client: line %d: sleep needs a duration\n", line_no);
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      continue;
    } else {
      std::fprintf(stderr, "crius_client: line %d: unknown command '%s'\n", line_no,
                   cmd.c_str());
      return 1;
    }
    if (!ok) {
      std::fprintf(stderr, "crius_client: line %d: %s\n", line_no, error.c_str());
      return 1;
    }
    PrintResponse(cmd, response);
  }
  return 0;
}

int Run(int argc, const char* const* argv) {
  std::string socket_path = "/tmp/crius_serve.sock";
  std::string script_path = "-";

  FlagSet flags("crius_client", "Scripted client for a crius_serve daemon");
  flags.String("socket", &socket_path, "daemon socket to connect to");
  flags.String("script", &script_path, "command script ('-' = stdin)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }

  serve::Client client;
  std::string error;
  if (!client.Connect(socket_path, &error)) {
    std::fprintf(stderr, "crius_client: %s\n", error.c_str());
    return 1;
  }

  if (script_path == "-") {
    return RunScript(client, std::cin);
  }
  std::ifstream script(script_path);
  if (!script.is_open()) {
    std::fprintf(stderr, "crius_client: cannot open script %s\n", script_path.c_str());
    return 1;
  }
  return RunScript(client, script);
}

}  // namespace
}  // namespace crius

int main(int argc, char** argv) {
  return crius::Run(argc, argv);
}
