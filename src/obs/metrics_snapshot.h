// Interval snapshots over a MetricsRegistry: point-in-time copies of
// every instrument, delta/rate computation between two snapshots, and
// the shared renderings used by tools/dump_metrics --watch,
// tools/rdfdb_top, and the stats router's /varz endpoint — so all three
// surfaces agree on what a "rate" is.
//
// Counters (and histogram count/sum/buckets) are monotonic, so a delta
// between two snapshots is exact regardless of concurrent writers;
// per-interval histogram quantiles come from QuantileFromBuckets over
// the bucket deltas.

#ifndef RDFDB_OBS_METRICS_SNAPSHOT_H_
#define RDFDB_OBS_METRICS_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rdfdb::obs {

struct MetricsSnapshot {
  struct Sample {
    MetricsRegistry::Kind kind = MetricsRegistry::Kind::kCounter;
    int64_t value = 0;             ///< counter / gauge reading
    uint64_t count = 0;            ///< histogram only
    uint64_t sum = 0;              ///< histogram only
    std::vector<uint64_t> bounds;  ///< histogram only
    std::vector<uint64_t> buckets; ///< histogram only (disjoint counts)
  };

  int64_t ts_ns = 0;  ///< steady-clock reading at capture
  std::map<std::string, Sample> samples;

  /// Counter value (0 when absent / not a counter).
  int64_t Counter(const std::string& name) const;
  /// Gauge value (0 when absent / not a gauge).
  int64_t Gauge(const std::string& name) const;
};

/// Capture every instrument. Safe to call while writers are active
/// (instrument reads are relaxed atomics; a snapshot is per-instrument
/// consistent, not cross-instrument atomic).
MetricsSnapshot TakeMetricsSnapshot(const MetricsRegistry& registry);

/// Counter delta per second between two snapshots of the same registry
/// (0 when the metric is absent or the interval is empty).
double CounterRate(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                   const std::string& name);

/// q-quantile of a histogram's *per-interval* observations (bucket
/// deltas between the snapshots); 0 when nothing was observed.
double IntervalQuantile(const MetricsSnapshot& prev,
                        const MetricsSnapshot& cur, const std::string& name,
                        double q);

/// Per-interval observation count of a histogram.
uint64_t IntervalCount(const MetricsSnapshot& prev,
                       const MetricsSnapshot& cur, const std::string& name);

/// Human-readable interval report: every counter that moved (delta and
/// rate), every non-zero gauge, and per-interval count/p50/p95/p99 for
/// every histogram that observed anything. Used by dump_metrics --watch.
std::string RenderIntervalText(const MetricsSnapshot& prev,
                               const MetricsSnapshot& cur);

/// The stats router's /varz payload: uptime, interval length, the full
/// registry JSON, plus per-interval counter rates. `extra_json` (may be
/// empty) is spliced in as additional top-level members and must be a
/// comma-led fragment like `,"dropped": 3`.
std::string RenderVarzJson(const MetricsRegistry& registry,
                           const MetricsSnapshot& prev,
                           const MetricsSnapshot& cur, double uptime_seconds,
                           const std::string& extra_json = "");

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_METRICS_SNAPSHOT_H_
