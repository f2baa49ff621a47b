// Brute-force reference model of the RDF store, for differential and
// model-based tests.
//
// The model restates the store's observable semantics as plainly as
// possible, sharing none of its storage or execution code: each model
// is a vector of (s, p, o, canonical o) Terms, SDO_RDF_MATCH is a
// nested-loop join over those vectors in the order the patterns are
// written, and the reification constructors and the logged
// SnapshotRdfStore's checkpoint/replay are re-derived from the paper's
// rules. What it
// does share is the front end that turns text into Terms: the API term
// parser, ParsePatterns, ParseFilter/FilterExpr and CanonicalForm.
//
// The rules the model encodes:
//   * A triple is identified by (model, s, p, o) with exact Terms.
//     Re-inserting it adds one application-table reference (COST)
//     and returns the same LINK_ID; a Direct insert upgrades an
//     Implied triple to Direct. Deleting drops one reference; the
//     triple goes with the last one.
//   * LINK_IDs come from one store-wide sequence, starting at 2000,
//     advanced once per newly stored triple.
//   * Reifying LINK_ID n stores <DBUri(n), rdf:type, rdf:Statement>,
//     with DBUri(n) = "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=n]"; n must
//     be a triple of the reifying model (InvalidArgument otherwise). An
//     assertion about n reifies it first if the model does not hold
//     that triple yet, then stores <subject, property, DBUri(n)>. An
//     implied assertion first inserts its base triple as Implied.
//   * Pattern variables bind subjects and predicates to the stored
//     Term and objects to the canonical form of the stored object;
//     object constants match canonically. Blank-node constants match
//     nothing.
//   * A checkpoint saves the state; recovery restarts from the last
//     saved state (with the LINK_ID sequence past its highest id) and
//     replays every successful mutation since, re-finding reified
//     triples by their text.
//
// Blank nodes are modelled by exact-Term identity inside one model,
// which is the store's per-model scoping of their labels: the same label
// in two models names two nodes (test_snapshot_store's differential
// reuses labels across models). The store renames blank nodes
// internally, so resolved texts differ from the labels here.

#ifndef RDFDB_TESTS_REFERENCE_MODEL_H_
#define RDFDB_TESTS_REFERENCE_MODEL_H_

#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdf/link_store.h"
#include "rdf/rdf_store.h"
#include "rdf/term.h"

namespace rdfdb::test {

/// One stored triple of the reference model.
struct RefTriple {
  rdf::Term s, p, o;
  rdf::Term canon_o;  ///< CanonicalForm(o): what object matching sees
  rdf::LinkId link = 0;
  int64_t refs = 1;      ///< application-table references (COST)
  bool implied = false;  ///< CONTEXT = I
};

/// A reference SDO_RDF_MATCH answer: the full answer, never truncated.
struct RefRows {
  std::vector<std::string> columns;
  std::vector<std::vector<rdf::Term>> rows;
};

/// Result-shaping half of a query (MatchOptions without LIMIT or
/// execution knobs).
struct RefQuery {
  std::string patterns;
  std::string filter;
  std::vector<std::string> projection;
  bool distinct = false;
};

class ReferenceStore {
 public:
  static constexpr rdf::LinkId kFirstLinkId = 2000;

  ReferenceStore() = default;

  /// "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=<link>]".
  static std::string DBUri(rdf::LinkId link);

  // ---- Mutations (RdfStore semantics; each returns the LINK_ID of the
  // triple the call stored or referenced) --------------------------------

  Status CreateModel(const std::string& model);
  Status DropModel(const std::string& model);
  Result<rdf::LinkId> Insert(const std::string& model, const std::string& s,
                             const std::string& p, const std::string& o);
  Result<rdf::LinkId> InsertTerms(const std::string& model,
                                  const rdf::Term& s, const rdf::Term& p,
                                  const rdf::Term& o, bool implied = false);
  Status Delete(const std::string& model, const std::string& s,
                const std::string& p, const std::string& o);
  Result<rdf::LinkId> Reify(const std::string& model, rdf::LinkId link);
  Result<rdf::LinkId> AssertAbout(const std::string& model,
                                  const std::string& s, const std::string& p,
                                  rdf::LinkId link);
  Result<rdf::LinkId> AssertImplied(const std::string& model,
                                    const std::string& reif_s,
                                    const std::string& reif_p,
                                    const std::string& s,
                                    const std::string& p,
                                    const std::string& o);

  // ---- Reads -------------------------------------------------------------

  Result<bool> IsTriple(const std::string& model, const std::string& s,
                        const std::string& p, const std::string& o) const;
  Result<bool> IsReified(const std::string& model, const std::string& s,
                         const std::string& p, const std::string& o) const;
  Result<rdf::LinkId> GetTripleId(const std::string& model,
                                  const std::string& s, const std::string& p,
                                  const std::string& o) const;
  Result<rdf::RdfStore::ModelStats> GetModelStats(
      const std::string& model) const;

  /// Lower-cased model names, sorted.
  std::vector<std::string> ModelNames() const;

  /// The model's triples in insertion order; NotFound if unknown.
  Result<const std::vector<RefTriple>*> Triples(
      const std::string& model) const;

  /// The full answer of SDO_RDF_MATCH(query, models) with no LIMIT
  /// (built-in aliases only).
  Result<RefRows> Match(const RefQuery& query,
                        const std::vector<std::string>& models) const;

  // ---- Durability (a logged SnapshotRdfStore) -----------------------------

  /// Save the current state as the recovery point and clear the log.
  void Checkpoint();

  /// Rebuild the state the way a reopened logged store does: the last
  /// checkpoint, then every logged mutation since, in order.
  Status Recover();

 private:
  /// One model: its triples, plus their positions keyed by (s, p, o)
  /// text so identity lookups stay O(1) on large loads.
  struct RefModel {
    std::vector<RefTriple> triples;
    std::unordered_map<std::string, size_t> position;
  };
  struct State {
    std::map<std::string, RefModel> models;  ///< keyed by lower-case name
    rdf::LinkId next_link = kFirstLinkId;
  };

  Result<RefModel*> Model(const std::string& model);
  Result<const RefModel*> Model(const std::string& model) const;
  static std::string Key(const rdf::Term& s, const rdf::Term& p,
                         const rdf::Term& o);
  /// Triple with these exact terms in `model`, or null.
  static const RefTriple* Find(const RefModel& model, const rdf::Term& s,
                               const rdf::Term& p, const rdf::Term& o);
  /// The live triple carrying `link` in any model, or null.
  const RefTriple* FindLink(rdf::LinkId link) const;
  /// The base of a reification in `model`: NotFound if no model holds
  /// `link`, InvalidArgument if another model does.
  Result<const RefTriple*> BaseOf(const std::string& model,
                                  rdf::LinkId link) const;
  static bool IsLinkReified(const RefModel& model, rdf::LinkId link);
  /// The assertion half of the constructors: `link` must be live.
  Result<rdf::LinkId> AssertAboutTerms(const std::string& model,
                                       const rdf::Term& s,
                                       const rdf::Term& p, rdf::LinkId link);
  /// Record a successful mutation for Recover to replay.
  void Log(std::function<Status(ReferenceStore*)> op);

  State state_;
  State checkpoint_;
  std::vector<std::function<Status(ReferenceStore*)>> log_;
};

}  // namespace rdfdb::test

#endif  // RDFDB_TESTS_REFERENCE_MODEL_H_
