// Rules indexes: materialized entailment.
//
// "A rules index pre-computes triples that can be inferred from applying
// the rulebases" (CREATE_RULES_INDEX in the paper). This module holds the
// forward-chaining engine that computes the closure, the in-memory
// indexed triple set it produces, and the generic pattern evaluator that
// both the chaining loop and SDO_RDF_MATCH use.

#ifndef RDFDB_QUERY_RULES_INDEX_H_
#define RDFDB_QUERY_RULES_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "query/filter.h"
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

  /// Compiled-executor leaf hook: when this source is a plain
  /// single-model store scan, returns a LeafScan view of that model's
  /// id-native quad cache, letting the executor probe it directly with
  /// no virtual dispatch or per-row callback. Sources with composite
  /// semantics (unions, in-memory sets, multi-model scans) return an
  /// invalid scan and are driven through Match; results are identical
  /// either way.
  virtual rdf::LinkStore::LeafScan DirectLeaf() const { return {}; }
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

  rdf::LinkStore::LeafScan DirectLeaf() const override;

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

 private:
  std::vector<const TripleSource*> sources_;
};

/// Variable bindings as VALUE_IDs during join execution.
using IdBindings = std::map<std::string, rdf::ValueId>;

/// Join-execution tuning knobs.
struct EvalOptions {
  /// Reorder patterns by estimated selectivity before joining: patterns
  /// with more constants run first, then patterns connected to
  /// already-bound variables (avoiding cross products). Results are
  /// identical either way; only the work per solution changes.
  bool reorder_patterns = true;

  /// Worker threads for the executor's outer-pattern partition: 1 =
  /// sequential, 0 = one per hardware thread (capped). Row order and
  /// results are identical at any thread count.
  unsigned threads = 1;

  /// Outer frames per parallel work chunk. Smaller chunks spread skewed
  /// outer bindings across workers at the cost of more hand-off;
  /// results are identical at any size.
  size_t chunk_frames = 512;

  /// When non-null, EvalPatterns appends one PatternTrace per executed
  /// pattern (scan/emit counts in execution order) and accumulates the
  /// plan order, dictionary-probe tallies, filter counts and plan wall
  /// time into this trace. Counts accumulate — SdoRdfMatch resets the
  /// trace once per query; direct callers reset it themselves.
  obs::QueryTrace* trace = nullptr;

  /// Cooperative cancellation token, polled by the executor at its
  /// row-loop checkpoints (see query/exec.h). A fired token unwinds
  /// with DeadlineExceeded/Cancelled; trace counts flushed so far
  /// remain valid. Null disables the path.
  const CancelToken* cancel = nullptr;
};

/// Evaluate a pattern list against `source`; calls `fn` once per
/// solution. Compiles the patterns to the slot-based streaming executor
/// (query/exec.h) and builds one IdBindings map per solution. `filter` (nullable) rejects solutions, with the terms it
/// references resolved through `store`. Return false from `fn` to stop
/// early — the stop unwinds out of the innermost scan.
Status EvalPatterns(const rdf::StoreView& store,
                    const std::vector<TriplePattern>& patterns,
                    const FilterExpr* filter, const TripleSource& source,
                    const std::function<bool(const IdBindings&)>& fn,
                    const EvalOptions& options = {});

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
