#include "query/rules_index.h"

#include <algorithm>

#include "common/hash.h"
#include "obs/store_metrics.h"
#include "query/exec.h"
#include "rdf/canonical.h"

namespace rdfdb::query {

namespace {

using rdf::ModelId;
using rdf::RdfStore;
using rdf::Term;
using rdf::ValueId;

/// Metric-name fragment: anything outside [A-Za-z0-9_] becomes '_'
/// (rule names are free-form text; Prometheus names are not).
std::string SanitizeMetricPart(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// True if the source already holds a triple with this subject,
/// predicate and canonical object.
bool ContainsCanon(const TripleSource& source, ValueId s, ValueId p,
                   ValueId canon_o) {
  bool found = false;
  source.Match(s, p, canon_o, [&](const IdTriple&) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace

uint64_t TripleSet::Key(ValueId s, ValueId p, ValueId o) {
  uint64_t h = HashCombine(0x9d7f3aULL, static_cast<uint64_t>(s));
  h = HashCombine(h, static_cast<uint64_t>(p));
  h = HashCombine(h, static_cast<uint64_t>(o));
  return h;
}

bool TripleSet::Add(const IdTriple& triple) {
  uint64_t key = Key(triple.s, triple.p, triple.o);
  if (seen_.count(key) > 0) {
    // Verify on hash hit (collisions are possible in principle).
    bool exists = false;
    auto range = by_s_.equal_range(triple.s);
    for (auto it = range.first; it != range.second; ++it) {
      if (triples_[it->second] == triple) {
        exists = true;
        break;
      }
    }
    if (exists) return false;
  }
  size_t idx = triples_.size();
  triples_.push_back(triple);
  seen_.insert(key);
  by_s_.emplace(triple.s, idx);
  by_p_.emplace(triple.p, idx);
  by_canon_o_.emplace(triple.canon_o, idx);
  return true;
}

bool TripleSet::Contains(ValueId s, ValueId p, ValueId o) const {
  auto range = by_s_.equal_range(s);
  for (auto it = range.first; it != range.second; ++it) {
    const IdTriple& t = triples_[it->second];
    if (t.p == p && t.o == o) return true;
  }
  return false;
}

void TripleSet::Match(std::optional<ValueId> s, std::optional<ValueId> p,
                      std::optional<ValueId> canon_o,
                      const std::function<bool(const IdTriple&)>& fn) const {
  auto emit = [&](size_t idx) {
    const IdTriple& t = triples_[idx];
    if (s.has_value() && t.s != *s) return true;
    if (p.has_value() && t.p != *p) return true;
    if (canon_o.has_value() && t.canon_o != *canon_o) return true;
    return fn(t);
  };
  if (s.has_value()) {
    auto range = by_s_.equal_range(*s);
    for (auto it = range.first; it != range.second; ++it) {
      if (!emit(it->second)) return;
    }
    return;
  }
  if (canon_o.has_value()) {
    auto range = by_canon_o_.equal_range(*canon_o);
    for (auto it = range.first; it != range.second; ++it) {
      if (!emit(it->second)) return;
    }
    return;
  }
  if (p.has_value()) {
    auto range = by_p_.equal_range(*p);
    for (auto it = range.first; it != range.second; ++it) {
      if (!emit(it->second)) return;
    }
    return;
  }
  for (size_t i = 0; i < triples_.size(); ++i) {
    if (!emit(i)) return;
  }
}

void ModelSource::Match(std::optional<ValueId> s, std::optional<ValueId> p,
                        std::optional<ValueId> canon_o,
                        const std::function<bool(const IdTriple&)>& fn)
    const {
  obs::StoreMetrics* metrics = store_->metrics();
  obs::Counter* scans =
      metrics != nullptr ? metrics->link_rows_scanned : nullptr;
  for (ModelId model : models_) {
    const rdf::LinkStore::ModelIdCache* cache = store_->CacheFor(model);
    if (cache == nullptr) continue;
    bool keep_going = true;
    rdf::LinkStore::Scan(
        *cache, s, p, canon_o, scans,
        [&](uint32_t, ValueId ts, ValueId tp, ValueId to, ValueId tco) {
          keep_going = fn(IdTriple{ts, tp, to, tco});
          return keep_going;
        });
    if (!keep_going) return;
  }
}

const rdf::LinkStore::ModelIdCache* ModelSource::DirectLeaf() const {
  return models_.size() == 1 ? store_->CacheFor(models_.front()) : nullptr;
}

void UnionSource::Match(std::optional<ValueId> s, std::optional<ValueId> p,
                        std::optional<ValueId> canon_o,
                        const std::function<bool(const IdTriple&)>& fn)
    const {
  for (const TripleSource* source : sources_) {
    bool keep_going = true;
    source->Match(s, p, canon_o, [&](const IdTriple& t) {
      keep_going = fn(t);
      return keep_going;
    });
    if (!keep_going) return;
  }
}

const rdf::LinkStore::ModelIdCache* UnionSource::DirectLeaf() const {
  return sources_.size() == 1 ? sources_.front()->DirectLeaf() : nullptr;
}

Result<TripleSet> ComputeEntailment(
    RdfStore* store, const TripleSource& base,
    const std::vector<const Rulebase*>& rulebases, size_t* rounds_out) {
  // Pre-parse every rule once; each rule gets a per-rule derivation
  // counter in the store's registry (registration is idempotent, so
  // repeated entailments over the same rulebases reuse one counter).
  obs::StoreMetrics* metrics = store->metrics();
  struct CompiledRule {
    std::vector<TriplePattern> antecedent;
    FilterPtr filter;
    TriplePattern consequent;
    obs::Counter* derived = nullptr;  ///< solutions produced (pre-dedup)
  };
  std::vector<CompiledRule> compiled;
  for (const Rulebase* rb : rulebases) {
    for (const Rule& rule : rb->rules()) {
      CompiledRule cr;
      RDFDB_ASSIGN_OR_RETURN(cr.antecedent,
                             ParsePatterns(rule.antecedent, rule.aliases));
      RDFDB_ASSIGN_OR_RETURN(cr.filter, ParseFilter(rule.filter));
      RDFDB_ASSIGN_OR_RETURN(std::vector<TriplePattern> cons,
                             ParsePatterns(rule.consequent, rule.aliases));
      cr.consequent = cons.front();
      if (metrics != nullptr) {
        cr.derived = metrics->registry->RegisterCounter(
            "rdfdb_inference_rule_" +
                SanitizeMetricPart(rb->name() + "_" + rule.name) +
                "_derived_total",
            "Consequent instantiations by rule " + rb->name() + ":" +
                rule.name + " before deduplication");
      }
      compiled.push_back(std::move(cr));
    }
  }

  TripleSet inferred;
  size_t rounds = 0;
  bool changed = true;
  obs::Timeline* timeline = store->timeline();
  while (changed) {
    changed = false;
    ++rounds;
    // One span per fixpoint round on lane 0 — the trace export shows
    // the convergence shape (rounds shrink as fewer triples are new).
    obs::TimelineScope round_span(
        timeline, "entailment_round", "infer", /*lane=*/0,
        timeline != nullptr ? "round=" + std::to_string(rounds)
                            : std::string());
    UnionSource all({&base, &inferred});
    std::vector<IdTriple> pending;

    for (const CompiledRule& rule : compiled) {
      CompiledPlan plan =
          CompilePatterns(*store, rule.antecedent, rule.filter.get(), all,
                          /*reorder_patterns=*/true, /*trace=*/nullptr);
      Status status = ExecutePlan(
          *store, plan, all, [&](const ValueId* slots) {
            // Instantiate the consequent. Rule validation guarantees
            // each of its variables occurs in the antecedent, so every
            // one has a slot.
            auto instantiate =
                [&](const PatternNode& node,
                    bool object_position) -> Result<ValueId> {
              if (node.is_variable) {
                return slots[plan.SlotOf(node.variable)];
              }
              Term term = object_position ? rdf::CanonicalForm(node.term)
                                          : node.term;
              return store->values().LookupOrInsert(term);
            };
            auto s = instantiate(rule.consequent.subject, false);
            auto p = instantiate(rule.consequent.predicate, false);
            auto o = instantiate(rule.consequent.object, true);
            if (!s.ok() || !p.ok() || !o.ok()) return true;

            // Consequent subjects must be resources; a rule like rdfs3
            // can bind ?y to a literal — skip those solutions.
            auto s_code = store->values().GetTypeCode(*s);
            if (!s_code.ok() ||
                (*s_code != "UR" && *s_code != "BN")) {
              return true;
            }
            // Predicates must be URIs.
            auto p_code = store->values().GetTypeCode(*p);
            if (!p_code.ok() || *p_code != "UR") return true;

            pending.push_back(IdTriple{*s, *p, *o, *o});
            if (rule.derived != nullptr) rule.derived->Inc();
            return true;
          });
      RDFDB_RETURN_NOT_OK(status);
    }

    for (const IdTriple& t : pending) {
      if (ContainsCanon(base, t.s, t.p, t.canon_o)) continue;
      if (inferred.Add(t)) changed = true;
    }
  }
  if (metrics != nullptr) {
    metrics->inference_rounds->Inc(rounds);
    metrics->inference_derived->Inc(inferred.size());
  }
  if (rounds_out != nullptr) *rounds_out = rounds;
  return inferred;
}

Result<std::unique_ptr<RulesIndex>> RulesIndex::Build(
    RdfStore* store, const std::string& index_name,
    const std::vector<std::string>& model_names,
    const std::vector<const Rulebase*>& rulebases) {
  std::vector<ModelId> model_ids;
  for (const std::string& name : model_names) {
    RDFDB_ASSIGN_OR_RETURN(ModelId id, store->GetModelId(name));
    model_ids.push_back(id);
  }
  ModelSource base(store, model_ids);

  auto index = std::unique_ptr<RulesIndex>(new RulesIndex());
  index->name_ = index_name;
  index->model_names_ = model_names;
  index->rulebase_names_.reserve(rulebases.size());
  for (const Rulebase* rb : rulebases) {
    index->rulebase_names_.push_back(rb->name());
  }
  RDFDB_ASSIGN_OR_RETURN(
      index->inferred_,
      ComputeEntailment(store, base, rulebases, &index->rounds_));

  // Persist the pre-computed triples, as CREATE_RULES_INDEX does.
  std::string table_name = "RDFI_" + index_name;
  store->MarkUnloggedWrite();
  storage::Database& db = store->database();
  if (db.GetTable("MDSYS", table_name) != nullptr) {
    RDFDB_RETURN_NOT_OK(db.DropTable("MDSYS", table_name));
  }
  auto table = db.CreateTable(
      "MDSYS", table_name,
      storage::Schema({
          {"S_ID", storage::ValueType::kInt64, false},
          {"P_ID", storage::ValueType::kInt64, false},
          {"O_ID", storage::ValueType::kInt64, false},
      }));
  if (!table.ok()) return table.status();
  for (const IdTriple& t : index->inferred_.triples()) {
    auto insert = (*table)->Insert({storage::Value::Int64(t.s),
                                    storage::Value::Int64(t.p),
                                    storage::Value::Int64(t.o)});
    if (!insert.ok()) return insert.status();
  }
  return index;
}

bool RulesIndex::Covers(const std::vector<std::string>& model_names,
                        const std::vector<std::string>& rulebase_names)
    const {
  auto sorted = [](std::vector<std::string> v) {
    for (std::string& s : v) {
      std::transform(s.begin(), s.end(), s.begin(), ::toupper);
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  return sorted(model_names_) == sorted(model_names) &&
         sorted(rulebase_names_) == sorted(rulebase_names);
}

}  // namespace rdfdb::query
