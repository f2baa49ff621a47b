// Rules indexes: materialized entailment.
//
// "A rules index pre-computes triples that can be inferred from applying
// the rulebases" (CREATE_RULES_INDEX in the paper). This module holds the
// forward-chaining engine that computes the closure, the in-memory
// indexed triple set it produces, and the triple sources that both the
// chaining loop and SDO_RDF_MATCH run the compiled executor
// (query/exec.h) over.

#ifndef RDFDB_QUERY_RULES_INDEX_H_
#define RDFDB_QUERY_RULES_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "query/rulebase.h"
#include "query/sparql_pattern.h"
#include "rdf/rdf_store.h"

namespace rdfdb::query {

/// One triple as VALUE_ID references (the unit of inference).
struct IdTriple {
  rdf::ValueId s = 0;
  rdf::ValueId p = 0;
  rdf::ValueId o = 0;
  rdf::ValueId canon_o = 0;  ///< canonical object id (== o when canonical)

  bool operator==(const IdTriple& other) const {
    return s == other.s && p == other.p && o == other.o;
  }
};

/// Anything patterns can be matched against.
class TripleSource {
 public:
  virtual ~TripleSource() = default;

  /// Visit triples matching the bound positions (nullopt = wildcard).
  /// The object constraint is against the canonical object id.
  virtual void Match(
      std::optional<rdf::ValueId> s, std::optional<rdf::ValueId> p,
      std::optional<rdf::ValueId> canon_o,
      const std::function<bool(const IdTriple&)>& fn) const = 0;

  /// Compiled-executor leaf hook: when this source is exactly one
  /// model's quad cache, returns it, and the executor runs
  /// LinkStore::Scan on it with the row body inlined instead of a
  /// virtual Match and a std::function per row. Other sources (in-memory
  /// sets, multi-model scans, unions with a rules index) return null and
  /// are driven through Match; results are identical either way.
  virtual const rdf::LinkStore::ModelIdCache* DirectLeaf() const {
    return nullptr;
  }
};

/// In-memory indexed triple collection (deduplicated on (s, p, o)).
class TripleSet final : public TripleSource {
 public:
  /// Add; returns true if the triple was new.
  bool Add(const IdTriple& triple);

  bool Contains(rdf::ValueId s, rdf::ValueId p, rdf::ValueId o) const;
  size_t size() const { return triples_.size(); }
  const std::vector<IdTriple>& triples() const { return triples_; }

  void Match(std::optional<rdf::ValueId> s, std::optional<rdf::ValueId> p,
             std::optional<rdf::ValueId> canon_o,
             const std::function<bool(const IdTriple&)>& fn) const override;

 private:
  static uint64_t Key(rdf::ValueId s, rdf::ValueId p, rdf::ValueId o);

  std::vector<IdTriple> triples_;
  std::unordered_set<uint64_t> seen_;
  std::unordered_multimap<rdf::ValueId, size_t> by_s_;
  std::unordered_multimap<rdf::ValueId, size_t> by_p_;
  std::unordered_multimap<rdf::ValueId, size_t> by_canon_o_;
};

/// Source over a store view (live store or pinned snapshot version)
/// restricted to a model list.
class ModelSource final : public TripleSource {
 public:
  ModelSource(const rdf::StoreView* store, std::vector<rdf::ModelId> models)
      : store_(store), models_(std::move(models)) {}

  void Match(std::optional<rdf::ValueId> s, std::optional<rdf::ValueId> p,
             std::optional<rdf::ValueId> canon_o,
             const std::function<bool(const IdTriple&)>& fn) const override;

  const rdf::LinkStore::ModelIdCache* DirectLeaf() const override;

 private:
  const rdf::StoreView* store_;
  std::vector<rdf::ModelId> models_;
};

/// Union of sources (e.g. models + a rules index).
class UnionSource final : public TripleSource {
 public:
  explicit UnionSource(std::vector<const TripleSource*> sources)
      : sources_(std::move(sources)) {}

  void Match(std::optional<rdf::ValueId> s, std::optional<rdf::ValueId> p,
             std::optional<rdf::ValueId> canon_o,
             const std::function<bool(const IdTriple&)>& fn) const override;

  /// A one-source union is that source.
  const rdf::LinkStore::ModelIdCache* DirectLeaf() const override;

 private:
  std::vector<const TripleSource*> sources_;
};

/// Materialized entailment over a model list + rulebase list.
class RulesIndex {
 public:
  /// Forward-chain to fixpoint. Consequent constants are interned into
  /// the store's value table; the inferred triples are also persisted to
  /// MDSYS.RDFI_<index_name> (the paper's pre-computed table).
  static Result<std::unique_ptr<RulesIndex>> Build(
      rdf::RdfStore* store, const std::string& index_name,
      const std::vector<std::string>& model_names,
      const std::vector<const Rulebase*>& rulebases);

  const std::string& name() const { return name_; }
  const std::vector<std::string>& model_names() const { return model_names_; }
  const std::vector<std::string>& rulebase_names() const {
    return rulebase_names_;
  }

  /// Inferred (non-base) triples only.
  const TripleSet& inferred() const { return inferred_; }
  size_t inferred_count() const { return inferred_.size(); }

  /// How many chaining rounds were needed to reach fixpoint.
  size_t rounds() const { return rounds_; }

  /// True if this index was built over exactly these models+rulebases
  /// (order-insensitive), so SDO_RDF_MATCH can reuse it.
  bool Covers(const std::vector<std::string>& model_names,
              const std::vector<std::string>& rulebase_names) const;

 private:
  RulesIndex() = default;

  std::string name_;
  std::vector<std::string> model_names_;
  std::vector<std::string> rulebase_names_;
  TripleSet inferred_;
  size_t rounds_ = 0;
};

/// Shared helper: run the chaining loop over `base`, returning inferred
/// triples (used by RulesIndex::Build and by SDO_RDF_MATCH's on-the-fly
/// inference path when no index exists).
Result<TripleSet> ComputeEntailment(
    rdf::RdfStore* store, const TripleSource& base,
    const std::vector<const Rulebase*>& rulebases, size_t* rounds_out);

}  // namespace rdfdb::query

#endif  // RDFDB_QUERY_RULES_INDEX_H_
