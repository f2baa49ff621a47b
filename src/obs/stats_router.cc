#include "obs/stats_router.h"

#include <cstdlib>
#include <utility>

#include "obs/active_ops.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/profiler.h"
#include "obs/resource_tracker.h"
#include "obs/slow_query_log.h"
#include "obs/span_timeline.h"

namespace rdfdb::obs {

StatsRouter::StatsRouter(Sources sources)
    : sources_(std::move(sources)),
      started_(std::chrono::steady_clock::now()) {
  // Pre-existing drops are history, not a new degradation: only drops
  // after the server came up flip /healthz.
  if (sources_.events != nullptr) {
    health_seen_drops_ = sources_.events->dropped();
  }
}

StatsRouter::Response StatsRouter::HandleHealthz() {
  Response resp;
  resp.content_type = "text/plain; charset=utf-8";
  std::string failing;
  if (sources_.events != nullptr) {
    const uint64_t drops = sources_.events->dropped();
    std::lock_guard<std::mutex> lock(health_mu_);
    if (drops > health_seen_drops_) {
      failing += " event_log_drops=" +
                 std::to_string(drops - health_seen_drops_);
    }
    health_seen_drops_ = drops;
  }
  if (sources_.registry != nullptr) {
    if (sources_.unhealthy_epoch_lag > 0) {
      const Gauge* lag =
          sources_.registry->FindGauge("rdfdb_oldest_pinned_epoch_lag");
      if (lag != nullptr && lag->Value() >= sources_.unhealthy_epoch_lag) {
        failing += " epoch_lag=" + std::to_string(lag->Value());
      }
    }
    if (sources_.unhealthy_retention_age_seconds > 0) {
      const Gauge* age =
          sources_.registry->FindGauge("rdfdb_version_retention_age_seconds");
      if (age != nullptr &&
          static_cast<double>(age->Value()) >=
              sources_.unhealthy_retention_age_seconds) {
        failing += " retention_age_seconds=" + std::to_string(age->Value());
      }
    }
  }
  if (sources_.extra_health) {
    const std::string extra = sources_.extra_health();
    if (!extra.empty()) {
      failing += " " + extra;
    }
  }
  if (failing.empty()) {
    resp.body = "ok\n";
  } else {
    resp.status = 503;
    resp.body = "degraded:" + failing + "\n";
  }
  return resp;
}

StatsRouter::Response StatsRouter::Handle(const std::string& target) {
  std::string path = target;
  std::string query;
  const size_t qpos = target.find('?');
  if (qpos != std::string::npos) {
    path = target.substr(0, qpos);
    query = target.substr(qpos + 1);
  }
  // Refresh derived gauges (store memory breakdown, retention age)
  // before any endpoint that reads them.
  if (sources_.refresh &&
      (path == "/metrics" || path == "/varz" || path == "/" ||
       path == "/healthz")) {
    sources_.refresh();
  }
  Response resp;
  if (path == "/healthz") {
    return HandleHealthz();
  }
  if (path == "/metrics") {
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = sources_.registry->RenderPrometheus();
    return resp;
  }
  if (path == "/profilez") {
    // Blocking by design: sample this process for N seconds and return
    // the flamegraph collapsed stacks. One request per connection, so
    // only the requesting client waits.
    double seconds = 2.0;
    const size_t at = query.find("seconds=");
    if (at != std::string::npos) {
      seconds = std::strtod(query.c_str() + at + 8, nullptr);
      if (seconds <= 0.0) seconds = 2.0;
    }
    resp.content_type = "text/plain; charset=utf-8";
    resp.body = ProfileForSeconds(seconds);
    return resp;
  }
  if (path == "/allocz") {
    resp.content_type = "application/json";
    resp.body = RenderAllocz();
    return resp;
  }
  if (path == "/activityz") {
    resp.content_type = "application/json";
    resp.body = RenderActivityz();
    return resp;
  }
  if (path == "/historyz" && sources_.recorder != nullptr) {
    resp.content_type = "application/json";
    resp.body = sources_.recorder->RenderHistoryJson();
    return resp;
  }
  if (path == "/varz" || path == "/") {
    const double uptime =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - started_)
            .count();
    std::string extra;
    if (sources_.events != nullptr) {
      extra += ",\n \"events_appended\": " +
               std::to_string(sources_.events->appended());
      extra += ",\n \"events_dropped\": " +
               std::to_string(sources_.events->dropped());
    }
    if (sources_.slow_queries != nullptr) {
      extra += ",\n \"slow_queries_captured\": " +
               std::to_string(sources_.slow_queries->captured());
    }
    if (sources_.timeline != nullptr) {
      extra += ",\n \"timeline_spans\": " +
               std::to_string(sources_.timeline->size());
    }
    const MetricsSnapshot cur = TakeMetricsSnapshot(*sources_.registry);
    MetricsSnapshot prev;
    {
      std::lock_guard<std::mutex> lock(varz_mu_);
      prev = have_prev_ ? prev_snapshot_ : cur;
      prev_snapshot_ = cur;
      have_prev_ = true;
    }
    resp.content_type = "application/json";
    resp.body = RenderVarzJson(*sources_.registry, prev, cur, uptime, extra);
    return resp;
  }
  if (path == "/slow" && sources_.slow_queries != nullptr) {
    resp.content_type = "application/json";
    resp.body = sources_.slow_queries->ToJson();
    return resp;
  }
  if (path == "/timeline" && sources_.timeline != nullptr) {
    resp.content_type = "application/json";
    resp.body = sources_.timeline->ToChromeTraceJson();
    return resp;
  }
  resp.status = 404;
  resp.content_type = "text/plain; charset=utf-8";
  resp.body = "not found: " + path +
              "\nendpoints: /metrics /varz /healthz /slow /timeline "
              "/profilez /allocz /activityz /historyz\n";
  return resp;
}

}  // namespace rdfdb::obs
