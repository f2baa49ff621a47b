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
/// lookups, and each model's id-native quad cache.
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

  /// One model's quad cache — the live object for RdfStore, the pinned
  /// one for a StoreVersion — or null when the model has no rows. Reads
  /// go through LinkStore::Scan.
  virtual const LinkStore::ModelIdCache* CacheFor(ModelId model_id) const = 0;

  /// Observability attachments; null when disabled.
  virtual obs::StoreMetrics* metrics() const { return nullptr; }
  virtual obs::SlowQueryLog* slow_query_log() const { return nullptr; }
  virtual obs::Timeline* timeline() const { return nullptr; }
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_STORE_VIEW_H_
