// StoreView: the read-side surface the query executor runs against.
//
// Two implementations exist: the live RdfStore (reads see the writer's
// current state; callers provide their own locking, e.g. inside
// SnapshotRdfStore::Apply) and a published StoreVersion (an immutable
// snapshot pinned through SnapshotRdfStore — lock-free reads). The
// compiled executor and SDO_RDF_MATCH are written against this
// interface so a query is oblivious to which one it runs on.

#ifndef RDFDB_RDF_STORE_VIEW_H_
#define RDFDB_RDF_STORE_VIEW_H_

#include <functional>
#include <optional>
#include <string>

#include "common/result.h"
#include "rdf/link_store.h"
#include "rdf/model_store.h"
#include "rdf/term.h"
#include "rdf/value_store.h"

namespace rdfdb::obs {
struct StoreMetrics;
class SlowQueryLog;
class Timeline;
}  // namespace rdfdb::obs

namespace rdfdb::rdf {

/// Read-only store surface: model-name resolution, term interning
/// lookups, and the id-native triple match/scan entry points.
class StoreView {
 public:
  virtual ~StoreView() = default;

  /// MODEL_ID for a model name (case-insensitive); NotFound if absent.
  virtual Result<ModelId> GetModelId(const std::string& model_name) const = 0;

  /// VALUE_ID of an interned term; nullopt if never stored. Blank nodes
  /// are model-scoped and not resolvable here (callers pre-filter).
  virtual std::optional<ValueId> LookupValue(const Term& term) const = 0;

  /// Reconstruct the term stored under `value_id`.
  virtual Result<Term> TermForValueId(ValueId value_id) const = 0;

  /// Leaf-scan view of one model's quad cache; invalid when the model
  /// has no rows.
  virtual LinkStore::LeafScan Leaf(ModelId model_id) const = 0;

  /// Id-native streaming triple match (object position is canonical).
  virtual void MatchEachIds(
      ModelId model_id, std::optional<ValueId> s, std::optional<ValueId> p,
      std::optional<ValueId> canon_o,
      const std::function<bool(ValueId s, ValueId p, ValueId o,
                               ValueId canon_o)>& fn) const = 0;

  /// Observability attachments; null when disabled.
  virtual obs::StoreMetrics* metrics() const { return nullptr; }
  virtual obs::SlowQueryLog* slow_query_log() const { return nullptr; }
  virtual obs::Timeline* timeline() const { return nullptr; }
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_STORE_VIEW_H_
