// StoreView: the read side of the RDF store, written once.
//
// A store implements a handful of virtual hooks — model-name
// resolution, term lookups (global and model-scoped blank nodes),
// VALUE_ID → term and VALUE_ID → N-Triples text, each model's id-native
// quad cache, and the quad of a LINK_ID.
// Everything else a reader calls is a non-virtual member built on those
// hooks: the paper's point reads (IS_TRIPLE, IS_REIFIED, GET_TRIPLE_ID),
// model statistics, triple resolution for the member functions, and
// (in query/) the compiled executor and SDO_RDF_MATCH. So the live
// RdfStore (callers provide their own locking, e.g. inside
// SnapshotRdfStore::Apply) and a pinned StoreVersion (an immutable
// published snapshot, read lock-free) answer every read with the same
// code, the same results and the same error texts.

#ifndef RDFDB_RDF_STORE_VIEW_H_
#define RDFDB_RDF_STORE_VIEW_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "rdf/link_store.h"
#include "rdf/model_store.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/value_store.h"

namespace rdfdb::obs {
struct StoreMetrics;
class SlowQueryLog;
class Timeline;
}  // namespace rdfdb::obs

namespace rdfdb::rdf {

/// Read-only store surface: the hooks each store implements, and the
/// read API written once over them.
class StoreView {
 public:
  virtual ~StoreView() = default;

  // ---- Hooks ------------------------------------------------------------

  /// MODEL_ID for a model name (case-insensitive); NotFound if absent.
  virtual Result<ModelId> GetModelId(const std::string& model_name) const = 0;

  /// VALUE_ID of an interned non-blank term; nullopt if never stored.
  /// Blank nodes are model-scoped: see LookupBlank / LookupTerm.
  virtual std::optional<ValueId> LookupValue(const Term& term) const = 0;

  /// VALUE_ID of blank node `label` in model `model_id`; nullopt if the
  /// model never stored it.
  virtual std::optional<ValueId> LookupBlank(
      ModelId model_id, const std::string& label) const = 0;

  /// Reconstruct the term stored under `value_id`.
  virtual Result<Term> TermForValueId(ValueId value_id) const = 0;

  /// Append the N-Triples spelling of the term stored under `value_id`
  /// to `*out` — byte for byte TermForValueId(value_id)->ToNTriples(),
  /// written from the store's own term storage with no Term built.
  /// This is how results leave the store as text (the server's /query
  /// body); NotFound leaves `*out` unchanged.
  virtual Status AppendNTriples(ValueId value_id, std::string* out) const = 0;

  /// One model's quad cache — the live object for RdfStore, the pinned
  /// one for a StoreVersion — or null when the model has no rows. Reads
  /// go through LinkStore::Scan.
  virtual const LinkStore::ModelIdCache* CacheFor(ModelId model_id) const = 0;

  /// The live quad carrying `rdf_t_id` in whichever model holds it, or
  /// null (LinkStore::FindLinkIn over the store's own cache map).
  virtual const LinkStore::IdQuad* FindLink(LinkId rdf_t_id) const = 0;

  /// Observability attachments; null when disabled.
  virtual obs::StoreMetrics* metrics() const { return nullptr; }
  virtual obs::SlowQueryLog* slow_query_log() const { return nullptr; }
  virtual obs::Timeline* timeline() const { return nullptr; }

  // ---- Point reads (SDO_RDF package subprograms) ------------------------
  //
  // Terms use the ParseApiTerm syntax. Each read answers from the quad
  // cache and the term dictionary alone.

  /// SDO_RDF.IS_TRIPLE: does the exact triple exist in the model?
  Result<bool> IsTriple(const std::string& model_name,
                        const std::string& subject,
                        const std::string& property,
                        const std::string& object) const;

  /// SDO_RDF.IS_REIFIED: has the triple been reified in the model? One
  /// probe for the triple, one for its streamlined reification triple
  /// (§7.3: "queries ... are based on a single row retrieval").
  Result<bool> IsReified(const std::string& model_name,
                         const std::string& subject,
                         const std::string& property,
                         const std::string& object) const;

  /// The LINK_ID (rdf_t_id) of an existing triple; NotFound if absent.
  Result<LinkId> GetTripleId(const std::string& model_name,
                             const std::string& subject,
                             const std::string& property,
                             const std::string& object) const;

  /// Is <DBUri(link_id), rdf:type, rdf:Statement> present in the model?
  /// IsReified and the assertion constructors ask this.
  Result<bool> IsLinkReified(ModelId model_id, LinkId link_id) const;

  /// Per-model statistics (the SDO_RDF package's analysis surface).
  struct ModelStats {
    size_t triples = 0;
    size_t distinct_subjects = 0;
    size_t distinct_predicates = 0;
    size_t distinct_objects = 0;
    size_t reified_statements = 0;  ///< streamlined reification rows
    size_t implied_statements = 0;  ///< CONTEXT = I rows
  };
  struct ModelStatsOptions {
    // User-provided so the defaulted argument below may construct one
    // inside StoreView (an implicit one is not usable there yet).
    ModelStatsOptions() {}
    /// Distinct subject/predicate/object counts require a full model
    /// scan with three hash sets; callers that only want the cheap
    /// counters (triples, reified, implied) turn this off. The triple
    /// and implied counts are cache counters, never a scan.
    bool distinct_counts = true;
  };
  Result<ModelStats> GetModelStats(
      const std::string& model_name,
      const ModelStatsOptions& options = {}) const;

  // ---- Member-function support ------------------------------------------

  /// Resolve the triple texts for a LINK_ID (GET_TRIPLE()); NotFound if
  /// no model holds it.
  Result<SdoRdfTriple> ResolveTriple(LinkId rdf_t_id) const;

  /// Resolve single positions (GET_SUBJECT()/GET_PROPERTY()/GET_OBJECT()).
  Result<std::string> ResolveSubject(LinkId rdf_t_id) const;
  Result<std::string> ResolveProperty(LinkId rdf_t_id) const;
  Result<std::string> ResolveObject(LinkId rdf_t_id) const;

  /// Display text of the term stored under `value_id`.
  Result<std::string> TextForValueId(ValueId value_id) const;

  /// VALUE_ID lookup without insertion; blank nodes resolve within
  /// `model_id`.
  std::optional<ValueId> LookupTerm(ModelId model_id, const Term& term) const;

 private:
  /// Parse the API terms, resolve them in the model and probe its
  /// cache: the triple's quad, or null when it is absent. `model_id`
  /// (nullable) receives the model's id.
  Result<const LinkStore::IdQuad*> FindTriple(const std::string& model_name,
                                              const std::string& subject,
                                              const std::string& property,
                                              const std::string& object,
                                              ModelId* model_id) const;

  /// FindLink, or NotFound.
  Result<LinkStore::IdQuad> QuadForLink(LinkId rdf_t_id) const;
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_STORE_VIEW_H_
