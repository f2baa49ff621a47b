// Slow-query capture: a bounded ring of the most recent SDO_RDF_MATCH
// executions whose end-to-end latency crossed a configurable threshold,
// each retaining the full QueryTrace (plan order, per-pattern rows,
// per-worker parallel shape, value-lookup traffic, stage wall times).
//
// SdoRdfMatch consults the store's SlowQueryLog pointer: when attached
// it traces into a stack-local QueryTrace (unless the caller already
// supplied one) and, only if the query proves slow, copies the trace
// into the ring — a fast query pays the tracing counters but no
// allocation, lock, or copy at the capture site, and a store without a
// log attached pays a single branch (see DESIGN.md §10).

#ifndef RDFDB_OBS_SLOW_QUERY_LOG_H_
#define RDFDB_OBS_SLOW_QUERY_LOG_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace rdfdb::obs {

class SlowQueryLog {
 public:
  struct Entry {
    uint64_t id = 0;      ///< capture sequence number (monotonic)
    int64_t ts_us = 0;    ///< capture time, µs since the log's creation
    std::string query;    ///< pattern text as submitted
    std::string models;   ///< comma-joined model list
    size_t rows = 0;      ///< result rows returned
    int64_t total_ns = 0; ///< end-to-end latency
    QueryTrace trace;     ///< the full EXPLAIN ANALYZE payload
    /// What else was in flight when the query finished: a compact
    /// "kind:count" summary from the active-operation registry (empty
    /// when the query ran alone). "Was the store busy?" is the first
    /// question a slow-query investigation asks.
    std::string concurrent;
    size_t concurrent_ops = 0;  ///< total concurrent operations
  };

  /// Retains the `capacity` most recent queries at or over
  /// `threshold_ns` end-to-end.
  SlowQueryLog(int64_t threshold_ns, size_t capacity = 32);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  int64_t threshold_ns() const { return threshold_ns_; }

  /// Record one slow query (called only after the threshold test, so
  /// the lock is never taken for fast queries). Evicts the oldest entry
  /// when full. Thread-safe.
  void Record(Entry entry);

  /// Snapshot of the retained entries, oldest first. Thread-safe.
  std::vector<Entry> Entries() const;

  /// Queries that crossed the threshold since construction (>= the
  /// retained count once the ring wraps).
  uint64_t captured() const;

  /// Human-readable rendering: one header line plus the trace per entry.
  std::string ToString() const;

  /// JSON array of entries (query, models, rows, latency and stage
  /// times — not the per-pattern detail) for the stats router.
  std::string ToJson() const;

 private:
  const int64_t threshold_ns_;
  const size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::deque<Entry> entries_;  // guarded by mu_; oldest at front
  uint64_t captured_ = 0;      // guarded by mu_
};

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_SLOW_QUERY_LOG_H_
