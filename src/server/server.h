// rdfdb_serve: the deadline-aware network front-end over a
// SnapshotRdfStore.
//
// Architecture (DESIGN.md §16): one acceptor thread accepts and either
// admits the connection into a bounded AdmissionQueue or sheds it with
// an immediate 503 + Retry-After; a fixed pool of worker threads pops
// admitted connections, parses the request under the bounded HTTP
// limits, arms a CancelToken with the request deadline (client's
// X-Deadline-Ms, clamped to max_deadline_ms, measured from *accept*
// so queue wait spends the same budget), and serves it. The token is
// threaded through MatchOptions/BulkLoadOptions into the compiled
// executor's row-loop checkpoints, and checked at the same interval
// while /query renders its rows, so an expired deadline stops burning
// CPU within one checkpoint interval per executing thread and returns
// a well-formed 504 carrying partial-progress stats from the query
// trace. A watcher thread polls in-flight sockets — not queued ones —
// for client hang-ups (POLLRDHUP) and fires Cancel() so abandoned work
// also stops early; it also reads each shed client's request to EOF
// (at most ~1 s) before closing it, so the acceptor never waits on a
// refused client. A client's half-close (shutdown(SHUT_WR)) raises
// POLLRDHUP too, so such a client gets 499 for a query that is still
// running at the next poll. A queued connection whose deadline passes
// keeps its queue slot until a worker pops it and answers the
// {"stage":"queue"} 504.
//
// Endpoints:
//   GET  /query?q=<patterns>&model=<m>[&model=..][&filter=..]
//        [&limit=N][&distinct=1][&threads=N]      rows as JSON
//   POST /insert?model=<m>[&create=1]             N-Triples body, one
//                                                 batch; logged per
//                                                 statement (a crash may
//                                                 keep a prefix)
//   POST /reify?model=<m>&id=<rdf_t_id>           reify a stored triple
//   GET  /metrics /varz /healthz /slow /timeline /profilez /allocz
//        /activityz /historyz                     delegated to the
//                                                 embedded StatsRouter
//
// Error protocol: 400 malformed request/params, 404 unknown path or
// model, 413 over a parse cap, 503 shed (Retry-After set, body JSON
// {"error":"overloaded",...}), 504 deadline exceeded (body JSON with
// partial-progress stats), 499 accounted internally for
// client-abandoned requests, 500 everything else. Success bodies are
// JSON. Graceful drain: Shutdown() stops accepting, serves what was
// admitted (their deadlines still bound them), joins every thread, and
// flushes the event log.

#ifndef RDFDB_SERVER_SERVER_H_
#define RDFDB_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/stats_router.h"
#include "rdf/snapshot_store.h"
#include "server/admission.h"
#include "server/http.h"

namespace rdfdb::server {

struct RdfServerOptions {
  /// Listen port on 127.0.0.1 (0 = ephemeral, see port()).
  uint16_t port = 0;
  /// Worker threads serving admitted requests.
  unsigned workers = 4;
  /// Admission queue capacity; a full queue sheds with 503.
  size_t queue_capacity = 64;
  /// Hard ceiling every request deadline is clamped to.
  int64_t max_deadline_ms = 2000;
  /// Deadline when the client sends no X-Deadline-Ms.
  int64_t default_deadline_ms = 1000;
  /// Retry-After seconds on a shed 503.
  int retry_after_seconds = 1;
  /// Request parsing caps (413 beyond them).
  HttpLimits http_limits;
  /// Executor threads per /query (1 = sequential; 0 = auto).
  unsigned query_threads = 1;
  /// Per-connection socket I/O timeout (<= 0 disables).
  int io_timeout_ms = 5000;
  /// /healthz flips to degraded when, over the shed window's complete
  /// seconds, shed/(shed+admitted) >= this fraction and at least
  /// `unhealthy_shed_min` connections were shed (guards tiny samples).
  double unhealthy_shed_fraction = 0.5;
  uint64_t unhealthy_shed_min = 8;
  /// Client hang-up poll cadence for the in-flight watcher (which
  /// polls in-flight sockets only, never the admission queue).
  int watch_interval_ms = 10;
  /// Statements between two deadline checks inside an insert batch.
  size_t insert_check_interval = 1024;
  /// Optional event log flushed on drain (non-owning).
  obs::EventLog* event_log = nullptr;
  /// Sources for the embedded stats router (slow-query log, timeline,
  /// flight recorder, ...). registry/refresh default to the store's;
  /// extra_health is always replaced with the server's overload signal.
  obs::StatsRouter::Sources stats_sources;
};

/// Per-server metric bundle, registered into the store's registry so
/// the flight recorder and /metrics pick it up with no extra wiring.
struct ServerMetrics {
  explicit ServerMetrics(obs::MetricsRegistry* registry);

  obs::Counter* accepted;           ///< rdfdb_server_accepted_total
  obs::Counter* shed;               ///< rdfdb_server_shed_total
  obs::Counter* deadline_exceeded;  ///< rdfdb_server_deadline_exceeded_total
  obs::Counter* cancelled;          ///< rdfdb_server_cancelled_total
  obs::Gauge* queue_depth;          ///< rdfdb_server_queue_depth
  obs::Gauge* inflight;             ///< rdfdb_server_inflight_requests
  obs::Histogram* latency_ns;       ///< rdfdb_server_request_latency_ns
};

class RdfServer {
 public:
  /// `store` is non-owning and must outlive the server.
  RdfServer(rdf::SnapshotRdfStore* store, RdfServerOptions options);
  ~RdfServer();

  RdfServer(const RdfServer&) = delete;
  RdfServer& operator=(const RdfServer&) = delete;

  /// Bind, listen, spawn acceptor + workers + watcher.
  Status Start();

  /// Port actually bound (after Start).
  uint16_t port() const { return port_; }

  /// Graceful drain: stop accepting, serve every admitted connection
  /// to completion (bounded by each request's deadline), join all
  /// threads, flush the event log. Idempotent; also run by the
  /// destructor.
  void Shutdown();

  /// True between Start() and Shutdown().
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Route and execute one request with an already-armed token — the
  /// socket-free core, public so tests can drive the full protocol
  /// (including 504 bodies) without a connection. `token` may be null
  /// (no deadline).
  HttpResponse Handle(const HttpRequest& request, const CancelToken* token);

  const ServerMetrics& metrics() const { return metrics_; }

  /// The /healthz overload signal ("" = healthy), also installed as the
  /// stats router's extra_health hook.
  std::string OverloadSignal() const;

 private:
  struct InflightWatch {
    int fd = -1;
    CancelToken* token = nullptr;
  };

  /// A shed connection whose 503 is sent: the watcher reads the
  /// client's request off it until EOF or `close_by`, then closes it.
  struct ShedConn {
    int fd = -1;
    std::chrono::steady_clock::time_point close_by;
  };

  void AcceptLoop();
  void WorkerLoop();
  void WatchLoop();
  /// One non-blocking drain pass over shed_; closes the finished ones.
  /// Caller holds watch_mu_.
  void DrainShedLocked();

  /// Serve one admitted connection end-to-end (parse, deadline, route,
  /// respond, close).
  void ServeConn(const AdmittedConn& conn);

  HttpResponse HandleQuery(const HttpRequest& request,
                           const CancelToken* token);
  HttpResponse HandleInsert(const HttpRequest& request,
                            const CancelToken* token);
  HttpResponse HandleReify(const HttpRequest& request);

  /// Map a non-OK Status from store/query layers to the wire.
  HttpResponse ResponseForStatus(const Status& status,
                                 std::string partial_stats_json);

  void RegisterWatch(int fd, CancelToken* token);
  void UnregisterWatch(int fd);

  rdf::SnapshotRdfStore* const store_;
  const RdfServerOptions options_;
  ServerMetrics metrics_;
  AdmissionQueue queue_;
  ShedWindow shed_window_;
  std::unique_ptr<obs::StatsRouter> stats_;

  // Atomic because Shutdown() closes-and-invalidates the fd while the
  // acceptor thread is blocked in accept() on it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::thread watcher_;

  mutable std::mutex watch_mu_;
  std::vector<InflightWatch> watched_;
  std::vector<ShedConn> shed_;  ///< guarded by watch_mu_

  std::mutex shutdown_mu_;  ///< serializes Shutdown() callers
};

}  // namespace rdfdb::server

#endif  // RDFDB_SERVER_SERVER_H_
