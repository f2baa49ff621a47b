// Per-query execution trace — an EXPLAIN ANALYZE for SDO_RDF_MATCH.
//
// A caller that wants the trace sets MatchOptions::trace to a
// QueryTrace it owns; SdoRdfMatch resets and fills it. With a null
// trace pointer every instrumentation site is one branch, so tracing
// is strictly opt-in (see DESIGN.md §8 for the anatomy).

#ifndef RDFDB_OBS_TRACE_H_
#define RDFDB_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/timer.h"

namespace rdfdb::obs {

/// Per-worker activity of one ExecuteParallel run. Accumulated on the
/// consumer thread from per-chunk results; chunk-to-worker assignment
/// is scheduling-dependent, but the totals across workers equal the
/// chunk-ordered (deterministic) counters.
struct ExecWorkerTrace {
  size_t worker = 0;        ///< 1-based worker index (lane id)
  size_t chunks = 0;        ///< outer-frame chunks this worker joined
  size_t rows_emitted = 0;  ///< rows produced across those chunks
  int64_t busy_ns = 0;      ///< wall time spent inside chunk joins
  int64_t cpu_ns = 0;       ///< thread CPU time inside chunk joins
  uint64_t bytes_allocated = 0;  ///< heap bytes allocated in chunk joins
};

/// One executed triple pattern (one join step), in execution order.
struct PatternTrace {
  size_t pattern_index = 0;  ///< position of the pattern as written
  std::string text;          ///< "(?s <uri> ?o)" rendering
  size_t rows_scanned = 0;   ///< candidate triples the source yielded
  size_t rows_emitted = 0;   ///< partial bindings alive after this step
};

struct QueryTrace {
  // Plan.
  std::vector<size_t> plan_order;  ///< written-order indexes, exec order
  bool reordered = false;          ///< planner was allowed to reorder
  bool used_rules_index = false;   ///< pre-built RDFI_ index served inference
  bool dead_constant = false;      ///< constant term absent from rdf_value$
                                   ///< short-circuited to zero rows

  // Execution, one entry per pattern in execution order.
  std::vector<PatternTrace> patterns;

  // Dictionary traffic.
  size_t value_lookups = 0;        ///< constant-term rdf_value$ probes
  size_t value_lookup_misses = 0;  ///< probes that found nothing
  /// ids handed back to be materialised as text: filter operands, and
  /// one per result cell (results stay ids; their reader resolves them).
  size_t value_resolutions = 0;

  // Row shaping.
  size_t filter_evaluations = 0;
  size_t filter_rejections = 0;
  size_t distinct_drops = 0;  ///< rows dropped by DISTINCT dedupe
  size_t rows_emitted = 0;    ///< final result rows

  // Inference.
  size_t inference_rounds = 0;
  size_t inferred_triples = 0;

  // Parallel execution (compiled executor). Worker counters are merged
  // on the consumer thread in chunk order, so these and the per-pattern
  // counts stay deterministic; a LIMIT-stopped parallel run may scan
  // more than its sequential twin (whole chunks run to completion).
  size_t exec_threads = 1;  ///< worker threads the join executor used
  size_t exec_chunks = 0;   ///< outer-frame chunks dispatched (parallel)
  std::vector<ExecWorkerTrace> exec_workers;  ///< one entry per worker

  // Resource attribution (obs/resource_tracker.h): CPU time and heap
  // allocation charged to this query — the calling thread's scope plus
  // the summed deltas of every parallel worker's chunk scopes.
  int64_t cpu_ns = 0;
  uint64_t bytes_allocated = 0;
  uint64_t allocations = 0;

  // Stage wall times (ns). exec_ns covers the join loop including
  // filtering and emission. resolve_ns is the time the match spends
  // turning result ids into terms, which is none: results stay ids
  // (query/match.h) and their reader renders them, so it reads 0 and
  // the rendering shows up in the caller (the server's /query body).
  int64_t parse_ns = 0;
  int64_t plan_ns = 0;
  int64_t infer_ns = 0;
  int64_t exec_ns = 0;
  int64_t resolve_ns = 0;
  int64_t total_ns = 0;

  /// Multi-line human-readable rendering (EXPLAIN ANALYZE style).
  std::string ToString() const;
};

/// RAII span accumulating elapsed nanoseconds into a nullable sink.
/// `ScopedSpan span(trace ? &trace->parse_ns : nullptr);`
class ScopedSpan {
 public:
  explicit ScopedSpan(int64_t* sink_ns) : sink_ns_(sink_ns) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (sink_ns_ != nullptr) *sink_ns_ += timer_.ElapsedNanos();
  }

 private:
  int64_t* sink_ns_;
  Timer timer_;
};

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_TRACE_H_
