// The observability router: maps a request target to the response of
// one store's observability surfaces. It owns no socket; RdfServer
// (server/server.h) delegates every GET outside /query, /insert and
// /reify to Handle(), so these endpoints are served by the same HTTP
// stack, admission queue and deadlines as queries:
//
//   GET /metrics   Prometheus text exposition (scrape target)
//   GET /varz      JSON: uptime, per-interval counter rates, full
//                  registry dump (+ optional extra members)
//   GET /healthz   "ok\n", or 503 "degraded: <signals>\n" when the
//                  event log dropped entries since the last check, the
//                  oldest pinned epoch lags too far behind, or a
//                  retired store version has been unreclaimable for too
//                  long (thresholds in Sources)
//   GET /slow      slow-query log, JSON (404 when not attached)
//   GET /timeline  Chrome trace-event JSON (404 when not attached)
//   GET /profilez  ?seconds=N (default 2): block, sample the process at
//                  100 Hz, return flamegraph collapsed stacks
//   GET /allocz    JSON: live heap bytes + per-scope-label allocation
//                  and CPU attribution (obs/resource_tracker.h)
//   GET /activityz JSON: the active-operation table — every in-flight
//                  query/load/checkpoint with live cpu/alloc deltas
//                  (obs/active_ops.h)
//   GET /historyz  JSON: the flight recorder's metric history ring
//                  (404 when no recorder is attached)
//
// Handle() accepts the raw request target, query string included, and
// is safe to call from several server workers at once.

#ifndef RDFDB_OBS_STATS_ROUTER_H_
#define RDFDB_OBS_STATS_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "obs/metrics_snapshot.h"

namespace rdfdb::obs {

class SlowQueryLog;
class Timeline;
class EventLog;
class FlightRecorder;

class StatsRouter {
 public:
  /// Data sources; only `registry` is required. All pointers are
  /// non-owning and must outlive the router.
  struct Sources {
    const MetricsRegistry* registry = nullptr;
    const SlowQueryLog* slow_queries = nullptr;
    const Timeline* timeline = nullptr;
    const EventLog* events = nullptr;
    /// Optional: called before any endpoint that renders gauges
    /// (/metrics, /varz, /healthz) so the owner can refresh
    /// derived/point-in-time values (e.g. the store's memory gauges)
    /// without the router depending on store types.
    std::function<void()> refresh;
    /// /healthz degradation thresholds (<= 0 disables the check).
    double unhealthy_retention_age_seconds = 60.0;
    int64_t unhealthy_epoch_lag = 1024;
    /// Optional: extra /healthz signals from the owner (e.g. the query
    /// front-end's admission-queue depth and shed rate). Returns "" when
    /// healthy; any non-empty string is appended to the degraded
    /// verdict and flips the response to 503.
    std::function<std::string()> extra_health;
    /// Optional flight recorder backing /historyz (404 when absent).
    const FlightRecorder* recorder = nullptr;
  };

  struct Response {
    int status = 200;
    std::string content_type;
    std::string body;
  };

  explicit StatsRouter(Sources sources);

  StatsRouter(const StatsRouter&) = delete;
  StatsRouter& operator=(const StatsRouter&) = delete;

  /// Route a request target (path + optional ?query) to a response.
  Response Handle(const std::string& target);

 private:
  /// "ok" / "degraded: <signals>" verdict; see the header comment.
  Response HandleHealthz();

  Sources sources_;
  const std::chrono::steady_clock::time_point started_;

  std::mutex varz_mu_;               ///< guards the /varz interval state
  MetricsSnapshot prev_snapshot_;    ///< previous /varz scrape
  bool have_prev_ = false;

  std::mutex health_mu_;             ///< guards the drop watermark
  uint64_t health_seen_drops_ = 0;   ///< event-log drops at last /healthz
};

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_STATS_ROUTER_H_
