// The antdense experiment daemon: a loopback TCP server that answers
// ScenarioSpec / CampaignSpec requests from the two-tier ResultCache,
// executing misses on the repo's existing engines.
//
// Threading model: one accept thread polling {listen fd, wake pipe},
// one thread per connection.  Requests on one connection are handled in
// order; concurrency comes from concurrent connections, whose identical
// requests the cache coalesces onto a single execution (single-flight).
// A per-connection send mutex serializes response and progress frames,
// because trial-grained progress ticks arrive from worker threads.
//
// Request vocabulary (envelope per serve/protocol.hpp):
//
//   {"type": "run", "spec": {...ScenarioSpec keys...},
//    "progress": true?}
//       -> zero or more {"type": "progress", "id", "done", "total"}
//          (only when requested, and only while actually executing)
//       -> {"type": "result", "id", "cache_hit", "elapsed_ns",
//           "result": {canonical scenario document}}
//
//   {"type": "sweep", "campaign": {...CampaignSpec keys...},
//    "progress": true?}
//       -> per-experiment progress frames (done/total count experiments)
//       -> {"type": "sweep_result", "name", "planned", "executed",
//           "cache_hits", "elapsed_ns", "experiments": [{"id",
//           "cache_hit", "true_value", "mean", "rel_error"}...]}
//
//   {"type": "cache_stats"}  -> {"type": "cache_stats", "stats": {...}}
//   {"type": "server_info"}  -> {"type": "server_info", ...}
//   {"type": "shutdown"}     -> {"type": "shutdown_ack"} and the server
//                               begins a clean stop (wait() returns).
//
// Error handling: malformed JSON or an invalid spec answers with one
// {"type": "error", "message"} frame and the connection stays usable;
// framing violations (bad magic, oversized or truncated frame) answer
// with an error frame and close the connection, because the byte stream
// can no longer be re-synchronized.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scenario/registry.hpp"
#include "serve/cache.hpp"
#include "util/socket.hpp"

namespace antdense::serve {

struct ServerOptions {
  /// Listen port on 127.0.0.1; 0 = OS-assigned (read it back via
  /// Server::port — how tests and CI avoid collisions).
  std::uint16_t port = 0;
  /// Cache journal path; "" = memory-only (no restart survival).
  std::string journal_path;
  /// Tier-1 (in-memory) budget in payload bytes.
  std::uint64_t cache_bytes = 64ull << 20;
  /// Worker threads handed to each executed experiment (overrides the
  /// submitted spec's `threads`, which is not identity anyway); 0 = one
  /// per core.
  unsigned threads = 0;
  /// Round-progress stride forwarded to Experiment's ProgressHooks
  /// (0 = auto).
  std::uint32_t progress_stride = 0;
  /// Minimum milliseconds between progress frames on one request —
  /// per-round progress on a 10^6-round run would otherwise flood the
  /// connection.  The final done == total frame is always delivered.
  /// 0 = unthrottled (every stride tick becomes a frame).
  std::uint32_t progress_interval_ms = 100;
  /// Byte cap for the daemon's trace-event ring (per-request and
  /// cache/journal spans; oldest events drop first).
  std::uint64_t trace_bytes = 4ull << 20;
};

class Server {
 public:
  /// Binds the listener and warms the cache from the journal; throws on
  /// either failing.  Call start() to begin serving.
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  const ResultCache& cache() const { return cache_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  void start();
  /// Blocks until a shutdown request arrives or `extra_wake_fd` (e.g.
  /// util::termination_wake_fd()) becomes readable.  Does not stop the
  /// server — the caller decides, then calls stop().
  void wait(int extra_wake_fd = -1);
  /// Idempotent: wakes the accept loop, closes every live connection,
  /// and joins all threads.
  void stop();

 private:
  struct Connection {
    util::Socket socket;
    std::mutex send_mutex;
    std::thread thread;
    std::atomic<bool> finished{false};  // set as the thread's last act
  };

  void accept_loop();
  /// Joins every connection whose handler has returned and closes its
  /// socket.  Accept thread only: it is the only writer of `thread`.
  void reap_finished();
  void serve_connection(Connection& conn);
  util::JsonValue handle_request(Connection& conn,
                                 const util::JsonValue& request);
  util::JsonValue handle_run(Connection& conn,
                             const util::JsonValue& request);
  util::JsonValue handle_sweep(Connection& conn,
                               const util::JsonValue& request);
  util::JsonValue server_info() const;
  /// Frame send under the connection's send mutex.
  bool send_json(Connection& conn, const util::JsonValue& doc);

  ServerOptions options_;
  const scenario::Registry& registry_;
  // Telemetry precedes the cache so the cache can hang its counters on
  // the daemon's registry (exported by the `metrics` endpoint).
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder trace_;
  obs::Telemetry telemetry_;
  ResultCache cache_;
  util::ListenSocket listener_;
  util::WakePipe wake_;           // pokes the accept loop out of poll
  util::WakePipe shutdown_wake_;  // pokes wait() when shutdown arrives
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace antdense::serve
