// Local-socket front end: accepts connections on a Unix domain socket and
// feeds complete request lines to a handler.
//
// One poll thread owns every fd (listener + connections): it accepts,
// reads into per-connection buffers, and extracts complete lines. Each poll
// round, the connections that produced ready lines are dispatched through the
// process-wide ThreadPool (ThreadPool::Global().ParallelFor) -- one worker
// per connection, so a connection's requests stay ordered and no two threads
// ever write the same fd, while slow handlers on separate connections run
// concurrently. This is the only ParallelFor in the library. Handlers must
// therefore be thread-safe: they reach the Controller only through its
// ingress and snapshot surfaces, never the scheduler or oracle, which belong
// to the controller thread.
//
// A connection's batch of responses is concatenated and written with ONE
// bounded write sequence: EAGAIN waits for POLLOUT only until
// Options::write_deadline_ms of wall time has elapsed for the batch. A client
// that stops draining its socket is dropped (counted in
// "serve.ingress.slow_client_drops") instead of pinning a pool worker
// forever -- the pre-deadline code retried EAGAIN in an unbounded poll loop,
// so one stalled client could head-of-line block a worker for the rest of
// the session.

#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace crius {
namespace serve {

class Server {
 public:
  // Returns the response line (without trailing newline) for one request
  // line. Called concurrently from pool workers.
  using Handler = std::function<std::string(const std::string& line)>;

  struct Options {
    // Wall-clock budget for writing one connection's batch of responses.
    // A connection that cannot absorb its responses within this budget is
    // dropped ("serve.ingress.slow_client_drops"). Must be > 0.
    int write_deadline_ms = 2000;
  };

  Server(std::string socket_path, Handler handler);
  Server(std::string socket_path, Handler handler, Options options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, and launches the poll thread. Returns false with a
  // message on bind/listen failures (stale socket files are unlinked first).
  bool Start(std::string* error);

  // Stops the poll thread, closes every fd, and removes the socket file.
  // Idempotent.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  struct Connection {
    int fd = -1;
    std::string buffer;               // bytes read, not yet line-terminated
    std::vector<std::string> ready;   // complete lines awaiting dispatch
    std::string outbox;               // batched responses for one dispatch
    bool closed = false;
  };

  void PollLoop();
  void AcceptNew();
  // Reads available bytes; marks the connection closed on EOF/error.
  void ReadFrom(Connection& conn);
  void DispatchReady();
  // Writes conn.outbox within options_.write_deadline_ms; on timeout or a
  // hard error, marks the connection closed (timeouts also bump the
  // slow-client counter).
  void WriteOutbox(Connection& conn);

  const std::string socket_path_;
  const Handler handler_;
  const Options options_;
  int listen_fd_ = -1;
  std::vector<Connection> connections_;
  std::thread thread_;
  std::atomic<bool> running_{false};
};

}  // namespace serve
}  // namespace crius

#endif  // SRC_SERVE_SERVER_H_
