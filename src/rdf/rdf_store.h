// RdfStore: the library's main entry point — the C++ equivalent of the
// paper's SDO_RDF PL/SQL package plus the SDO_RDF_TRIPLE_S constructors.
//
// One RdfStore is "one universe for all RDF data in the database": all
// models share the central-schema tables, values and nodes are stored
// once, and reasoning can span models (see query/match.h).
//
// This class owns the writes (model management, the constructors,
// deletion, persistence, and their redo-log records once a log is
// attached) and the live state's StoreView hooks. The
// point reads (IS_TRIPLE, IS_REIFIED, GET_TRIPLE_ID, model statistics,
// triple resolution) are StoreView members, shared with the pinned
// versions SnapshotRdfStore publishes.

#ifndef RDFDB_RDF_RDF_STORE_H_
#define RDFDB_RDF_RDF_STORE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dburi/dburi.h"
#include "ndm/network.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "obs/span_timeline.h"
#include "obs/store_metrics.h"
#include "rdf/link_store.h"
#include "rdf/model_store.h"
#include "rdf/store_view.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/value_store.h"
#include "storage/database.h"

namespace rdfdb::storage {
class Env;
}  // namespace rdfdb::storage

namespace rdfdb::rdf {

class RedoLog;

/// Central RDF store. Not thread-safe (single-writer embedded model).
/// Implements StoreView's hooks over the live tables and quad caches, so
/// every read runs directly against the live state; SnapshotRdfStore
/// publishes immutable StoreVersion views of it for lock-free readers.
class RdfStore : public StoreView {
 public:
  RdfStore();
  ~RdfStore() override;

  RdfStore(const RdfStore&) = delete;
  RdfStore& operator=(const RdfStore&) = delete;

  // ---- Model management (SDO_RDF.CREATE_RDF_MODEL etc.) ---------------

  /// Register a model and create its rdfm_<name> view.
  Result<ModelInfo> CreateRdfModel(const std::string& model_name,
                                   const std::string& app_table,
                                   const std::string& app_column,
                                   const std::string& owner = "");

  /// Drop a model: removes its triples, view, and registry row.
  Status DropRdfModel(const std::string& model_name);

  /// SDO_RDF.GET_MODEL_ID.
  Result<ModelId> GetModelId(const std::string& model_name) const override;

  std::vector<std::string> ModelNames() const;

  /// Grant SELECT on the model's rdfm_<name> view to `user` ("accessible
  /// only to the owner of the model and users with SELECT privileges").
  Status GrantSelectOnModel(const std::string& model_name,
                            const std::string& user);

  /// Whether `user` may read the model's view.
  Result<bool> CanSelectModel(const std::string& model_name,
                              const std::string& user) const;

  // ---- The SDO_RDF_TRIPLE_S constructors -------------------------------

  /// Constructor (model_name, subject, property, object): parse and store
  /// a direct triple. Term syntax follows ParseApiTerm.
  Result<SdoRdfTripleS> InsertTriple(const std::string& model_name,
                                     const std::string& subject,
                                     const std::string& property,
                                     const std::string& object);

  /// Constructor (model_name, rdf_t_id): the reification constructor —
  /// stores the single streamlined triple
  /// <DBUri(rdf_t_id), rdf:type, rdf:Statement>.
  Result<SdoRdfTripleS> ReifyTriple(const std::string& model_name,
                                    LinkId rdf_t_id);

  /// Constructor (model_name, subject, property, rdf_t_id): assertion
  /// about a (possibly not-yet-reified) triple; reifies it first if
  /// needed, then stores <subject, property, DBUri(rdf_t_id)>.
  Result<SdoRdfTripleS> AssertAboutTriple(const std::string& model_name,
                                          const std::string& subject,
                                          const std::string& property,
                                          LinkId rdf_t_id);

  /// Constructor (model_name, reif_sub, reif_prop, subject, property,
  /// object): assertion about an *implied* statement. Inserts the base
  /// triple with CONTEXT = I if it is new (an existing Direct triple
  /// stays Direct), reifies it, then asserts
  /// <reif_sub, reif_prop, DBUri(base)>.
  Result<SdoRdfTripleS> AssertImplied(const std::string& model_name,
                                      const std::string& reif_sub,
                                      const std::string& reif_prop,
                                      const std::string& subject,
                                      const std::string& property,
                                      const std::string& object);

  // ---- Deletion and consistency ----------------------------------------

  /// Invariant check used by tests and tooling: rdf_link$, the quad
  /// cache, rdf_node$ and rdf_value$ must agree (the cache holds every
  /// live row, every link endpoint has an rdf_node$ row, every
  /// rdf_node$ row is some live link's endpoint, every VALUE_ID
  /// resolves). Corruption names the first violation.
  Status CheckConsistency() const;

  /// Remove one application-table reference to a triple; the row (and
  /// orphaned nodes) disappears when the last reference is deleted.
  Status DeleteTriple(const std::string& model_name,
                      const std::string& subject,
                      const std::string& property,
                      const std::string& object);

  // ---- StoreView (live-state implementation) ---------------------------

  std::optional<ValueId> LookupValue(const Term& term) const override {
    return values_->Lookup(term);
  }
  std::optional<ValueId> LookupBlank(ModelId model_id,
                                     const std::string& label) const override {
    return values_->LookupBlank(model_id, label);
  }
  Result<Term> TermForValueId(ValueId value_id) const override {
    return values_->GetTerm(value_id);
  }
  Status AppendNTriples(ValueId value_id, std::string* out) const override {
    return values_->AppendNTriples(value_id, out);
  }
  const LinkStore::ModelIdCache* CacheFor(ModelId model_id) const override {
    return links_->CacheFor(model_id);
  }
  const LinkStore::IdQuad* FindLink(LinkId rdf_t_id) const override {
    return links_->FindLink(rdf_t_id);
  }

  /// Intern an already-parsed term for `model_id` (blank nodes are
  /// model-scoped). Exposed for the loaders and the query layer.
  Result<ValueId> InternTerm(ModelId model_id, const Term& term);

  /// Insert an already-parsed triple (the loaders and the server's
  /// /insert). Returns the storage object; `context` defaults to Direct.
  /// The log has no record for an Implied insert on its own, so such a
  /// call counts as an unlogged write (see MarkUnloggedWrite).
  Result<SdoRdfTripleS> InsertParsedTriple(
      ModelId model_id, const Term& subject, const Term& property,
      const Term& object, TripleContext context = TripleContext::kDirect);

  // ---- Redo logging ------------------------------------------------------

  /// Attach the redo log (non-owning; null detaches). Each successful
  /// model DDL, constructor and DeleteTriple call then appends its
  /// record before returning (apply-then-log: the log is the source of
  /// truth after a crash, so a failed call is never logged).
  /// SnapshotRdfStore::Open attaches it after replay.
  void set_redo_log(RedoLog* log) { redo_log_ = log; }

  /// Called before a write no redo record covers (a bulk load, an
  /// app-table row, an MDSYS table), including any write through the
  /// substrate accessors below. SnapshotRdfStore covers the mark with a
  /// checkpoint before it acknowledges the batch; the checkpoint clears it.
  void MarkUnloggedWrite() { unlogged_writes_ = true; }
  bool has_unlogged_writes() const { return unlogged_writes_; }
  void ClearUnloggedWrites() { unlogged_writes_ = false; }

  // ---- Substrate access -------------------------------------------------

  storage::Database& database() { return *db_; }
  const storage::Database& database() const { return *db_; }
  ValueStore& values() { return *values_; }
  const ValueStore& values() const { return *values_; }
  LinkStore& links() { return *links_; }
  const LinkStore& links() const { return *links_; }
  ModelStore& models() { return *models_; }
  const ModelStore& models() const { return *models_; }

  /// The NDM logical network over all RDF data — "all the NDM
  /// functionality is exposed to RDF data". Reads rdf_node$ and the
  /// quad cache in place, so it sees every later mutation.
  const ndm::Network& network() const { return *links_; }

  /// DBUri resolver bound to this store's database.
  dburi::Resolver resolver() const { return dburi::Resolver(db_.get()); }

  // ---- Observability -----------------------------------------------------

  /// The store's metric instruments. Write operations on the returned
  /// handles are relaxed atomics, so handing out a mutable pointer from
  /// a const store is sound.
  obs::StoreMetrics* metrics() const override { return metrics_.get(); }

  /// Registry backing metrics(); dump with RenderPrometheus()/RenderJson().
  obs::MetricsRegistry& metrics_registry() const { return *registry_; }

  /// Attach/detach the always-on facilities (see DESIGN.md §10). All
  /// three pointers are non-owning, default to null (every emission
  /// site is then a single branch), and must outlive the store while
  /// attached. Not thread-safe with respect to concurrent operations —
  /// attach before sharing the store (SnapshotRdfStore::SetObservability
  /// does this under its writer lock).
  void set_event_log(obs::EventLog* log);
  obs::EventLog* event_log() const { return event_log_; }
  void set_slow_query_log(obs::SlowQueryLog* log) { slow_query_log_ = log; }
  obs::SlowQueryLog* slow_query_log() const override {
    return slow_query_log_;
  }
  void set_timeline(obs::Timeline* timeline) { timeline_ = timeline; }
  obs::Timeline* timeline() const override { return timeline_; }

  // ---- Memory accounting -------------------------------------------------

  /// Approximate heap footprint by subsystem. `term_dict_bytes` and
  /// `retired_version_bytes` stay zero for a plain RdfStore — the
  /// snapshot store's MemoryUsage() fills them in.
  struct MemoryBreakdown {
    size_t value_store_bytes = 0;     ///< rdf_value$/rdf_blank_node$ + indexes
    size_t link_table_bytes = 0;      ///< rdf_link$/rdf_node$ + indexes
    size_t quad_cache_bytes = 0;      ///< per-model id-native quad caches
    size_t term_dict_bytes = 0;       ///< lock-free term dictionary
    size_t retired_version_bytes = 0; ///< exclusive bytes of retired versions
    size_t tracked_heap_bytes = 0;    ///< process-wide live heap (hooks)

    /// Sum of the store-owned components (excludes tracked_heap_bytes,
    /// which is a process-wide gauge, not a store component).
    size_t StoreTotal() const {
      return value_store_bytes + link_table_bytes + quad_cache_bytes +
             term_dict_bytes + retired_version_bytes;
    }
  };

  /// Estimate the current footprint by walking the store's containers.
  /// On-demand gauge refresh, not a hot path; call from the writer's
  /// context (same rule as any mutation).
  MemoryBreakdown MemoryUsage() const;

  /// Set every mem_* gauge from `breakdown` (and refresh the
  /// active-operations gauge).
  void UpdateMemoryGauges(const MemoryBreakdown& breakdown) const;
  /// UpdateMemoryGauges(MemoryUsage()).
  void UpdateMemoryGauges() const { UpdateMemoryGauges(MemoryUsage()); }

  // ---- Persistence -------------------------------------------------------

  /// Save all central-schema tables to a snapshot file (atomic footered
  /// format; see storage/snapshot.h). `env` == nullptr uses
  /// storage::Env::Default().
  Status Save(const std::string& path,
              storage::Env* env = nullptr) const;

  /// Load a snapshot previously written by Save into a fresh store.
  static Result<std::unique_ptr<RdfStore>> Open(
      const std::string& path, storage::Env* env = nullptr);

 private:
  /// Intern subject/property/object + canonical object; classify; insert.
  Result<SdoRdfTripleS> InsertTerms(ModelId model_id, const Term& subject,
                                    const Term& property, const Term& object,
                                    TripleContext context);

  /// ReifyTriple without its log record (the assertion constructors
  /// reify as part of their own logged call).
  Result<SdoRdfTripleS> ReifyLink(const std::string& model_name,
                                  LinkId rdf_t_id);

  /// The API texts of the triple behind `rdf_t_id`, which the
  /// reification records log in place of the LINK_ID (replay assigns
  /// new ones). Blank nodes keep their original labels.
  Result<SdoRdfTriple> TripleTextFor(LinkId rdf_t_id) const;

  /// The assertion half of AssertAboutTriple/AssertImplied, on parsed
  /// terms: reify `rdf_t_id` if needed, then store the assertion.
  Result<SdoRdfTripleS> AssertAboutTerms(const std::string& model_name,
                                         ModelId model_id,
                                         const Term& subject,
                                         const Term& property,
                                         LinkId rdf_t_id);

  SdoRdfTripleS MakeHandle(const LinkRow& row) const;

  std::unique_ptr<storage::Database> db_;
  // Created before the stores so their set_metrics targets outlive them.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<obs::StoreMetrics> metrics_;
  std::unique_ptr<ValueStore> values_;
  std::unique_ptr<LinkStore> links_;
  std::unique_ptr<ModelStore> models_;
  // Always-on facilities; non-owning, null = disabled (one branch per
  // emission site).
  obs::EventLog* event_log_ = nullptr;
  obs::SlowQueryLog* slow_query_log_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  RedoLog* redo_log_ = nullptr;  // non-owning; null = not logged
  bool unlogged_writes_ = false;
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_RDF_STORE_H_
