// Compiled slot-based streaming join executor for SDO_RDF_MATCH.
//
// This module compiles a pattern list once — variables become integer
// slots, constants become pre-resolved VALUE_IDs (the same lookups the
// planner needs, done exactly once) — and then streams an
// index-nested-loop join over a single flat ValueId frame: no
// intermediate relations, an early stop from the row callback unwinds
// out of the innermost LinkStore scan, and FILTER runs as soon as the
// variables it references have values (resolving only the terms the
// filter mentions). ExecOptions::threads partitions the outermost
// pattern's matches across a worker pool with ordered consumption (the
// bulk loader's pipeline shape), keeping row order and therefore
// DISTINCT/LIMIT semantics bit-identical to the sequential run. A step
// over one model's quad cache calls LinkStore::Scan, the access-path
// kernel, with the join body inlined; this module never sees the
// posting format. See DESIGN.md §9.

#ifndef RDFDB_QUERY_EXEC_H_
#define RDFDB_QUERY_EXEC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "obs/span_timeline.h"
#include "obs/trace.h"
#include "query/filter.h"
#include "query/sparql_pattern.h"
#include "rdf/store_view.h"

namespace rdfdb::query {

class TripleSource;  // rules_index.h; not included to avoid a cycle

/// Index into the executor's flat binding frame.
using SlotIndex = int32_t;

/// A pattern position resolved for execution: variable name, or a
/// concrete VALUE_ID, or "constant missing from the store" (no matches).
struct ResolvedNode {
  bool is_var = false;
  std::string var;
  rdf::ValueId id = 0;
  bool missing = false;
};

/// One pattern with all three positions resolved.
struct ResolvedPattern {
  ResolvedNode s, p, o;
};

/// Resolve a pattern position. Subject/predicate constants resolve
/// as-is; object constants resolve to their *canonical* form's id,
/// because object matching is canonical (CANON_END_NODE_ID). A non-null
/// `trace` tallies real rdf_value$ probes (blank-node constants never
/// probe; they are unaddressable and resolve to `missing`).
ResolvedNode ResolveNode(const rdf::StoreView& store, const PatternNode& node,
                         bool object_position,
                         obs::QueryTrace* trace = nullptr);

/// Cardinality-aware greedy join order over patterns whose constants
/// are already resolved: probes `source` with each pattern's constants
/// (bounded count; dead patterns estimate 0 and run first), then picks
/// the cheapest pattern connected to the already-bound variables.
std::vector<size_t> OrderResolvedPatterns(
    const std::vector<TriplePattern>& patterns,
    const std::vector<ResolvedPattern>& resolved, const TripleSource& source);

/// One compiled pattern position.
struct ExecPos {
  enum class Kind : uint8_t {
    kConst,  ///< pre-resolved constant: pushed into the scan as a bound
             ///< position, nothing to do per row
    kProbe,  ///< variable bound by an earlier step: scan constrained to
             ///< the slot's current value
    kBind,   ///< first occurrence of a variable: row value -> slot
    kCheck,  ///< repeat occurrence within the same pattern: row value
             ///< must equal the just-bound slot
  };
  Kind kind = Kind::kConst;
  rdf::ValueId id = 0;   ///< kConst only
  SlotIndex slot = -1;   ///< kProbe / kBind / kCheck
};

/// One join step (one pattern in execution order).
struct ExecStep {
  ExecPos s, p, o;
  size_t pattern_index = 0;  ///< position of the pattern as written
};

/// A compiled query: slots, steps, and the filter placement. Built by
/// CompilePatterns; immutable during execution (workers share it).
struct CompiledPlan {
  std::vector<std::string> vars;  ///< slot -> variable name (bind order)
  std::vector<ExecStep> steps;    ///< execution order
  std::vector<size_t> order;      ///< written-order indexes, exec order
  bool dead = false;              ///< some constant is unresolvable:
                                  ///< the query has zero rows

  /// Filter placement: evaluated right after `filter_step` emits, once
  /// every filter variable that occurs in the query is bound. Only
  /// `filter_vars` (name, slot) are resolved to Terms per evaluation;
  /// filter variables absent from the query stay unbound (comparisons
  /// against them are false). Null
  /// `filter` (or the always-true filter) disables the whole path.
  const FilterExpr* filter = nullptr;
  ptrdiff_t filter_step = -1;
  std::vector<std::pair<std::string, SlotIndex>> filter_vars;

  /// First PatternTrace entry this plan appended to the trace (the
  /// trace may already hold entries from an earlier evaluation).
  size_t trace_base = 0;

  size_t slot_count() const { return vars.size(); }

  /// Slot of a variable; -1 if it has none (dead-truncated plans may
  /// not reach every pattern).
  SlotIndex SlotOf(const std::string& var) const;
};

/// Rows between two cancellation checkpoints in the executor's join
/// loop. Each StepRunner polls its CancelToken every this many rows it
/// processes, so an expired or abandoned request stops burning CPU
/// within one checkpoint interval per executing thread (the clock read
/// amortizes to noise). test_cancel pins this contract.
inline constexpr size_t kCancelCheckIntervalRows = 1024;

/// Execution tuning knobs.
struct ExecOptions {
  /// Worker threads for the outer-pattern partition: 1 = sequential,
  /// 0 = one per hardware thread (capped at 8, like the bulk loader).
  /// Parallel execution needs at least two steps; otherwise the run is
  /// sequential regardless.
  unsigned threads = 1;

  /// Outer-pattern frames per parallel work unit. Large enough to
  /// amortize hand-off, small enough to keep the ordered-consumption
  /// window's memory bounded.
  size_t chunk_frames = 512;

  /// Per-pattern scan/emit counts, filter tallies and parallel shape
  /// accumulate here (entries appended by CompilePatterns). Null keeps
  /// every instrumentation site to a single branch.
  obs::QueryTrace* trace = nullptr;

  /// Span timeline for the parallel executor: the phase-A outer scan
  /// (lane 0) and each chunk join (worker lanes) record one span. Null
  /// keeps every site to a single branch.
  obs::Timeline* timeline = nullptr;

  /// Cooperative cancellation: every executing thread (the sequential
  /// runner, the phase-A outer scan, and each parallel chunk worker)
  /// polls the token every kCancelCheckIntervalRows rows and unwinds
  /// with DeadlineExceeded/Cancelled when it fires. Counters flushed so
  /// far stay valid (partial-progress stats). Null disables the path.
  const CancelToken* cancel = nullptr;
};

/// Row callback: `slots` holds slot_count() bound VALUE_IDs, valid only
/// during the call. Return false to stop the run (not an error).
using SlotRowFn = std::function<bool(const rdf::ValueId* slots)>;

/// Compile patterns against `store`: resolve every constant exactly
/// once (traced), pick the join order (reusing those resolutions for
/// the planner's cardinality probes), assign slots and place the
/// filter. An always-true `filter` compiles to none. Appends one
/// PatternTrace per compiled step and fills plan_order / reordered /
/// dead_constant when traced. Compilation cannot fail: an unresolvable
/// constant yields a dead plan (zero rows at execution).
CompiledPlan CompilePatterns(const rdf::StoreView& store,
                             const std::vector<TriplePattern>& patterns,
                             const FilterExpr* filter,
                             const TripleSource& source,
                             bool reorder_patterns, obs::QueryTrace* trace);

/// Run a compiled plan, streaming each solution frame to `fn`.
/// Sequential or parallel per `options.threads`; parallel execution
/// emits rows in the exact sequential order, and trace counters for a
/// run that is not stopped early are identical to the sequential ones.
/// `store` and `source` must outlive the call and, with threads > 1,
/// must not be mutated concurrently (workers only read).
Status ExecutePlan(const rdf::StoreView& store, const CompiledPlan& plan,
                   const TripleSource& source, const SlotRowFn& fn,
                   const ExecOptions& options = {});

}  // namespace rdfdb::query

#endif  // RDFDB_QUERY_EXEC_H_
