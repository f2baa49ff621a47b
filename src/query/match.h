// SDO_RDF_MATCH: the paper's SQL-based RDF querying table function.
//
//   SDO_RDF_MATCH(query, models, rulebases, aliases, filter)
//
// Queries use SPARQL-like pattern syntax, evaluate over one or more
// models (the central schema makes cross-model reasoning a union), and
// may apply rulebases. When a rules index covering the requested
// models+rulebases exists, its pre-computed triples are used; otherwise
// entailment is computed on the fly.

#ifndef RDFDB_QUERY_MATCH_H_
#define RDFDB_QUERY_MATCH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "query/inference.h"
#include "query/sparql_pattern.h"
#include "rdf/rdf_store.h"
#include "rdf/term.h"

namespace rdfdb::query {

/// Result table: one column per distinct query variable (in order of
/// first appearance), one row per solution. Cells stay VALUE_IDs — a
/// flat row-major block — until someone asks for text, as the paper's
/// object types keep ids and resolve them only in GET_SUBJECT() and
/// friends.
///
/// Lifetime: the result borrows the StoreView it was computed on (the
/// live RdfStore, or a pinned StoreVersion) and resolves cells through
/// it. at(), Get(), ToString() and view() must only be used while that
/// store — for a snapshot read, the ReadPin — is alive; a result read
/// after its pin is released touches a freed version. A result of the
/// live store reads its rdf_value$ rows at every resolution, so it must
/// be read under the same writer lock it was computed under (inside the
/// same SnapshotRdfStore::Apply); a later writer may append to those
/// rows. id(), row_count() and columns() need no view.
class MatchResult {
 public:
  const std::vector<std::string>& columns() const { return columns_; }
  size_t row_count() const { return rows_; }

  /// VALUE_ID at (row, column index).
  rdf::ValueId id(size_t row, size_t col) const {
    return ids_[row * columns_.size() + col];
  }

  /// Term at (row, column index), resolved through the view. Every id
  /// of a result resolves in the view that produced it; an id that does
  /// not (a result used past its lifetime rule) yields an empty Term.
  rdf::Term at(size_t row, size_t col) const;

  /// The store the ids resolve in (see the lifetime rule above).
  const rdf::StoreView* view() const { return view_; }

  /// Column position by variable name; -1 if absent. Memoized: the
  /// first call after the columns change builds a name→index map, so
  /// per-row Get() loops don't rescan the column list.
  int ColumnIndex(const std::string& name) const;

  /// Display text at (row, variable name); empty if the column is absent.
  std::string Get(size_t row, const std::string& name) const;

  /// Rendered rows for diagnostics.
  std::string ToString() const;

 private:
  friend class MatchBuilder;
  std::vector<std::string> columns_;
  /// Row-major cells: row r occupies [r * columns, (r + 1) * columns).
  std::vector<rdf::ValueId> ids_;
  /// Rows held (kept apart from ids_ so zero-column results count).
  size_t rows_ = 0;
  const rdf::StoreView* view_ = nullptr;
  /// Lazy name→index cache; rebuilt when its size disagrees with
  /// columns_ (column names are unique, so size is a reliable check).
  mutable std::unordered_map<std::string, int> column_index_;
};

/// Internal access shim so the executor can populate MatchResult.
class MatchBuilder {
 public:
  static std::vector<std::string>* columns(MatchResult* r) {
    return &r->columns_;
  }
  static std::vector<rdf::ValueId>* ids(MatchResult* r) { return &r->ids_; }
  static size_t* rows(MatchResult* r) { return &r->rows_; }
  static void set_view(MatchResult* r, const rdf::StoreView* view) {
    r->view_ = view;
  }
};

/// Result-shaping options (the SELECT-list half of the SQL statement
/// that wraps SDO_RDF_MATCH in the paper's examples).
struct MatchOptions {
  /// Keep only these variables, in this order (empty = all variables in
  /// first-appearance order). Unknown names are an error.
  std::vector<std::string> projection;
  /// Drop duplicate rows (applied after projection, like
  /// SELECT DISTINCT).
  bool distinct = false;
  /// Stop after this many rows (0 = unlimited).
  size_t limit = 0;
  /// Worker threads for the compiled join executor (see
  /// ExecOptions::threads): 1 = sequential, 0 = one per hardware thread
  /// (capped). Rows and row order are identical at any count.
  unsigned threads = 1;
  /// Outer frames per parallel work chunk (see
  /// ExecOptions::chunk_frames); results are identical at any size.
  size_t chunk_frames = 512;
  /// EXPLAIN ANALYZE hook: when non-null, SdoRdfMatch resets the trace
  /// and fills it with the chosen plan, per-pattern scan/emit counts,
  /// dictionary traffic, DISTINCT/filter drops and per-stage wall
  /// times. Null (the default) keeps every instrumentation site to a
  /// single branch.
  obs::QueryTrace* trace = nullptr;
  /// Cooperative cancellation token (deadline and/or explicit cancel),
  /// polled at the executor's row-loop checkpoints. A fired token fails
  /// the match with DeadlineExceeded/Cancelled; any trace supplied
  /// above still carries the partial-progress counts flushed before the
  /// unwind. Null disables the path.
  const CancelToken* cancel = nullptr;
};

/// Execute a match. `engine` may be null when `rulebase_names` is empty.
/// `filter` is an optional boolean expression over the variables (see
/// filter.h); pass "" for none.
Result<MatchResult> SdoRdfMatch(
    rdf::RdfStore* store, InferenceEngine* engine, const std::string& query,
    const std::vector<std::string>& model_names,
    const std::vector<std::string>& rulebase_names,
    const AliasList& aliases, const std::string& filter,
    const MatchOptions& options = {});

/// Read-only overload over any StoreView — in particular a pinned
/// snapshot version (SnapshotRdfStore::Snapshot()->view()), where the
/// whole query runs lock-free against the pinned state. No rulebases:
/// on-the-fly entailment needs a mutable store to intern consequents
/// (run it through the RdfStore* overload, or pre-build a rules index).
Result<MatchResult> SdoRdfMatch(
    const rdf::StoreView& store, const std::string& query,
    const std::vector<std::string>& model_names, const AliasList& aliases,
    const std::string& filter, const MatchOptions& options = {});

}  // namespace rdfdb::query

#endif  // RDFDB_QUERY_MATCH_H_
