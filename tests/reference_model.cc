#include "reference_model.h"

#include <algorithm>
#include <array>
#include <set>
#include <utility>

#include "common/string_util.h"
#include "query/filter.h"
#include "query/sparql_pattern.h"
#include "rdf/canonical.h"
#include "rdf/vocab.h"

namespace rdfdb::test {

using rdf::LinkId;
using rdf::Term;

namespace {

const Term& RdfType() {
  static const Term* term = new Term(Term::Uri(std::string(rdf::kRdfType)));
  return *term;
}

const Term& RdfStatement() {
  static const Term* term =
      new Term(Term::Uri(std::string(rdf::kRdfStatement)));
  return *term;
}

Status UnknownModel(const std::string& model) {
  return Status::NotFound("model " + model);
}

Status TripleNotFound(const std::string& model) {
  return Status::NotFound("triple not found in model " + model);
}

/// The three API strings of a triple, parsed as the store parses them.
struct ApiTriple {
  Term s, p, o;
};

Result<ApiTriple> ParseTriple(const std::string& s, const std::string& p,
                              const std::string& o) {
  ApiTriple t;
  RDFDB_ASSIGN_OR_RETURN(t.s, rdf::ParseApiSubject(s));
  RDFDB_ASSIGN_OR_RETURN(t.p, rdf::ParseApiPredicate(p));
  RDFDB_ASSIGN_OR_RETURN(t.o, rdf::ParseApiTerm(o));
  return t;
}

}  // namespace

std::string ReferenceStore::DBUri(LinkId link) {
  return "/ORADB/MDSYS/RDF_LINK$/ROW[LINK_ID=" + std::to_string(link) + "]";
}

Result<ReferenceStore::RefModel*> ReferenceStore::Model(
    const std::string& model) {
  auto it = state_.models.find(ToLower(model));
  if (it == state_.models.end()) return UnknownModel(model);
  return &it->second;
}

Result<const ReferenceStore::RefModel*> ReferenceStore::Model(
    const std::string& model) const {
  auto it = state_.models.find(ToLower(model));
  if (it == state_.models.end()) return UnknownModel(model);
  return &it->second;
}

std::string ReferenceStore::Key(const Term& s, const Term& p,
                                const Term& o) {
  return s.ToNTriples() + " " + p.ToNTriples() + " " + o.ToNTriples();
}

const RefTriple* ReferenceStore::Find(const RefModel& model, const Term& s,
                                      const Term& p, const Term& o) {
  auto it = model.position.find(Key(s, p, o));
  return it == model.position.end() ? nullptr : &model.triples[it->second];
}

const RefTriple* ReferenceStore::FindLink(LinkId link) const {
  for (const auto& [name, model] : state_.models) {
    for (const RefTriple& t : model.triples) {
      if (t.link == link) return &t;
    }
  }
  return nullptr;
}

Result<const RefTriple*> ReferenceStore::BaseOf(const std::string& model,
                                               LinkId link) const {
  const RefTriple* base = FindLink(link);
  if (base == nullptr) {
    return Status::NotFound("LINK_ID " + std::to_string(link));
  }
  RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
  if (Find(*m, base->s, base->p, base->o) != base) {
    return Status::InvalidArgument("LINK_ID " + std::to_string(link) +
                                   " is not in model " + model);
  }
  return base;
}

bool ReferenceStore::IsLinkReified(const RefModel& model, LinkId link) {
  return Find(model, Term::Uri(DBUri(link)), RdfType(), RdfStatement()) !=
         nullptr;
}

void ReferenceStore::Log(std::function<Status(ReferenceStore*)> op) {
  log_.push_back(std::move(op));
}

Status ReferenceStore::CreateModel(const std::string& model) {
  if (model.empty()) {
    return Status::InvalidArgument("model name must not be empty");
  }
  if (!state_.models.emplace(ToLower(model), RefModel()).second) {
    return Status::AlreadyExists("model " + model);
  }
  Log([model](ReferenceStore* store) { return store->CreateModel(model); });
  return Status::OK();
}

Status ReferenceStore::DropModel(const std::string& model) {
  if (state_.models.erase(ToLower(model)) == 0) return UnknownModel(model);
  Log([model](ReferenceStore* store) { return store->DropModel(model); });
  return Status::OK();
}

Result<LinkId> ReferenceStore::InsertTerms(const std::string& model,
                                           const Term& s, const Term& p,
                                           const Term& o, bool implied) {
  RDFDB_ASSIGN_OR_RETURN(RefModel* m, Model(model));
  auto [it, inserted] = m->position.try_emplace(Key(s, p, o), m->triples.size());
  if (!inserted) {
    RefTriple& t = m->triples[it->second];
    ++t.refs;
    if (!implied) t.implied = false;
    return t.link;
  }
  RefTriple t;
  t.s = s;
  t.p = p;
  t.o = o;
  t.canon_o = rdf::CanonicalForm(o);
  t.link = state_.next_link++;
  t.implied = implied;
  m->triples.push_back(std::move(t));
  return m->triples.back().link;
}

Result<LinkId> ReferenceStore::Insert(const std::string& model,
                                      const std::string& s,
                                      const std::string& p,
                                      const std::string& o) {
  RDFDB_RETURN_NOT_OK(Model(model).status());
  RDFDB_ASSIGN_OR_RETURN(ApiTriple t, ParseTriple(s, p, o));
  RDFDB_ASSIGN_OR_RETURN(LinkId link, InsertTerms(model, t.s, t.p, t.o));
  Log([=](ReferenceStore* store) {
    return store->Insert(model, s, p, o).status();
  });
  return link;
}

Status ReferenceStore::Delete(const std::string& model, const std::string& s,
                              const std::string& p, const std::string& o) {
  RDFDB_ASSIGN_OR_RETURN(RefModel* m, Model(model));
  RDFDB_ASSIGN_OR_RETURN(ApiTriple t, ParseTriple(s, p, o));
  auto it = m->position.find(Key(t.s, t.p, t.o));
  if (it == m->position.end()) return TripleNotFound(model);
  const size_t pos = it->second;
  if (--m->triples[pos].refs == 0) {
    // Swap-and-pop: row order is not part of any answer.
    m->position.erase(it);
    if (pos + 1 != m->triples.size()) {
      m->triples[pos] = std::move(m->triples.back());
      const RefTriple& moved = m->triples[pos];
      m->position[Key(moved.s, moved.p, moved.o)] = pos;
    }
    m->triples.pop_back();
  }
  Log([=](ReferenceStore* store) { return store->Delete(model, s, p, o); });
  return Status::OK();
}

Result<LinkId> ReferenceStore::Reify(const std::string& model,
                                     LinkId link) {
  RDFDB_RETURN_NOT_OK(Model(model).status());
  RDFDB_ASSIGN_OR_RETURN(const RefTriple* base, BaseOf(model, link));
  // Replay re-finds the base by its text, in the reifying model.
  Log([model, s = base->s, p = base->p, o = base->o](ReferenceStore* store) {
    RDFDB_ASSIGN_OR_RETURN(const RefModel* m, store->Model(model));
    const RefTriple* found = Find(*m, s, p, o);
    if (found == nullptr) return TripleNotFound(model);
    return store->Reify(model, found->link).status();
  });
  return InsertTerms(model, Term::Uri(DBUri(link)), RdfType(),
                     RdfStatement());
}

Result<LinkId> ReferenceStore::AssertAboutTerms(const std::string& model,
                                                const Term& s, const Term& p,
                                                LinkId link) {
  RDFDB_ASSIGN_OR_RETURN(RefModel* m, Model(model));
  if (!IsLinkReified(*m, link)) {
    RDFDB_RETURN_NOT_OK(InsertTerms(model, Term::Uri(DBUri(link)), RdfType(),
                                    RdfStatement())
                            .status());
  }
  return InsertTerms(model, s, p, Term::Uri(DBUri(link)));
}

Result<LinkId> ReferenceStore::AssertAbout(const std::string& model,
                                           const std::string& s,
                                           const std::string& p,
                                           LinkId link) {
  RDFDB_RETURN_NOT_OK(Model(model).status());
  RDFDB_ASSIGN_OR_RETURN(Term st, rdf::ParseApiSubject(s));
  RDFDB_ASSIGN_OR_RETURN(Term pt, rdf::ParseApiPredicate(p));
  RDFDB_ASSIGN_OR_RETURN(const RefTriple* base, BaseOf(model, link));
  Log([model, s, p, bs = base->s, bp = base->p,
       bo = base->o](ReferenceStore* store) {
    RDFDB_ASSIGN_OR_RETURN(const RefModel* m, store->Model(model));
    const RefTriple* found = Find(*m, bs, bp, bo);
    if (found == nullptr) return TripleNotFound(model);
    return store->AssertAbout(model, s, p, found->link).status();
  });
  return AssertAboutTerms(model, st, pt, link);
}

Result<LinkId> ReferenceStore::AssertImplied(const std::string& model,
                                             const std::string& reif_s,
                                             const std::string& reif_p,
                                             const std::string& s,
                                             const std::string& p,
                                             const std::string& o) {
  RDFDB_RETURN_NOT_OK(Model(model).status());
  RDFDB_ASSIGN_OR_RETURN(Term rst, rdf::ParseApiSubject(reif_s));
  RDFDB_ASSIGN_OR_RETURN(Term rpt, rdf::ParseApiPredicate(reif_p));
  RDFDB_ASSIGN_OR_RETURN(ApiTriple t, ParseTriple(s, p, o));
  RDFDB_ASSIGN_OR_RETURN(LinkId base,
                         InsertTerms(model, t.s, t.p, t.o, /*implied=*/true));
  Log([=](ReferenceStore* store) {
    return store->AssertImplied(model, reif_s, reif_p, s, p, o).status();
  });
  return AssertAboutTerms(model, rst, rpt, base);
}

Result<bool> ReferenceStore::IsTriple(const std::string& model,
                                      const std::string& s,
                                      const std::string& p,
                                      const std::string& o) const {
  RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
  RDFDB_ASSIGN_OR_RETURN(ApiTriple t, ParseTriple(s, p, o));
  return Find(*m, t.s, t.p, t.o) != nullptr;
}

Result<bool> ReferenceStore::IsReified(const std::string& model,
                                       const std::string& s,
                                       const std::string& p,
                                       const std::string& o) const {
  RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
  RDFDB_ASSIGN_OR_RETURN(ApiTriple t, ParseTriple(s, p, o));
  const RefTriple* found = Find(*m, t.s, t.p, t.o);
  return found != nullptr && IsLinkReified(*m, found->link);
}

Result<LinkId> ReferenceStore::GetTripleId(const std::string& model,
                                           const std::string& s,
                                           const std::string& p,
                                           const std::string& o) const {
  RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
  RDFDB_ASSIGN_OR_RETURN(ApiTriple t, ParseTriple(s, p, o));
  const RefTriple* found = Find(*m, t.s, t.p, t.o);
  if (found == nullptr) return TripleNotFound(model);
  return found->link;
}

Result<rdf::RdfStore::ModelStats> ReferenceStore::GetModelStats(
    const std::string& model) const {
  RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
  rdf::RdfStore::ModelStats stats;
  std::set<std::string> subjects, predicates, objects;
  for (const RefTriple& t : m->triples) {
    ++stats.triples;
    if (t.p == RdfType() && t.canon_o == RdfStatement()) {
      ++stats.reified_statements;
    }
    if (t.implied) ++stats.implied_statements;
    subjects.insert(t.s.ToNTriples());
    predicates.insert(t.p.ToNTriples());
    objects.insert(t.o.ToNTriples());
  }
  stats.distinct_subjects = subjects.size();
  stats.distinct_predicates = predicates.size();
  stats.distinct_objects = objects.size();
  return stats;
}

std::vector<std::string> ReferenceStore::ModelNames() const {
  std::vector<std::string> names;
  for (const auto& [name, m] : state_.models) names.push_back(name);
  return names;
}

Result<const std::vector<RefTriple>*> ReferenceStore::Triples(
    const std::string& model) const {
  RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
  return &m->triples;
}

Result<RefRows> ReferenceStore::Match(
    const RefQuery& query, const std::vector<std::string>& models) const {
  if (models.empty()) {
    return Status::InvalidArgument("SDO_RDF_MATCH needs at least one model");
  }
  RDFDB_ASSIGN_OR_RETURN(std::vector<query::TriplePattern> patterns,
                         query::ParsePatterns(query.patterns, {}));
  RDFDB_ASSIGN_OR_RETURN(query::FilterPtr filter,
                         query::ParseFilter(query.filter));
  // The queried triples: the models' union, duplicates kept.
  std::vector<const RefTriple*> source;
  for (const std::string& model : models) {
    RDFDB_ASSIGN_OR_RETURN(const RefModel* m, Model(model));
    for (const RefTriple& t : m->triples) source.push_back(&t);
  }

  std::vector<std::string> vars;  // first appearance
  for (const query::TriplePattern& pattern : patterns) {
    for (const std::string& var : pattern.Variables()) {
      if (std::find(vars.begin(), vars.end(), var) == vars.end()) {
        vars.push_back(var);
      }
    }
  }
  RefRows result;
  result.columns = query.projection.empty() ? vars : query.projection;
  for (const std::string& column : result.columns) {
    if (std::find(vars.begin(), vars.end(), column) == vars.end()) {
      return Status::InvalidArgument("projection variable ?" + column +
                                     " does not occur in the query");
    }
  }

  // Per pattern position: the constant to compare (object constants
  // canonically), or null for a variable.
  std::vector<std::array<Term, 3>> constants(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (size_t pos = 0; pos < 3; ++pos) {
      const query::PatternNode& node = patterns[i].Position(pos);
      if (node.is_variable) continue;
      constants[i][pos] = pos == 2 ? rdf::CanonicalForm(node.term) : node.term;
    }
  }

  query::Bindings bound;
  std::set<std::vector<std::string>> seen;  // DISTINCT keys
  std::function<void(size_t)> join = [&](size_t step) {
    if (step == patterns.size()) {
      if (filter != nullptr && !filter->Evaluate(bound)) return;
      std::vector<Term> row;
      std::vector<std::string> key;
      for (const std::string& column : result.columns) {
        row.push_back(bound.at(column));
        key.push_back(row.back().ToNTriples());
      }
      if (query.distinct && !seen.insert(std::move(key)).second) return;
      result.rows.push_back(std::move(row));
      return;
    }
    const query::TriplePattern& pattern = patterns[step];
    for (const RefTriple* t : source) {
      const Term* values[3] = {&t->s, &t->p, &t->canon_o};
      std::vector<std::string> fresh;  // variables this triple bound
      bool match = true;
      for (size_t pos = 0; pos < 3 && match; ++pos) {
        const query::PatternNode& node = pattern.Position(pos);
        if (!node.is_variable) {
          const Term& constant = constants[step][pos];
          match = !constant.is_blank() && constant == *values[pos];
          continue;
        }
        auto [it, inserted] = bound.try_emplace(node.variable, *values[pos]);
        if (inserted) {
          fresh.push_back(node.variable);
        } else {
          match = it->second == *values[pos];
        }
      }
      if (match) join(step + 1);
      for (const std::string& var : fresh) bound.erase(var);
    }
  };
  join(0);
  return result;
}

void ReferenceStore::Checkpoint() {
  checkpoint_ = state_;
  log_.clear();
}

Status ReferenceStore::Recover() {
  std::vector<std::function<Status(ReferenceStore*)>> replay =
      std::move(log_);
  log_.clear();
  state_ = checkpoint_;
  // A reopened store continues the LINK_ID sequence past the highest id
  // it loaded, not where the crashed process left off.
  state_.next_link = kFirstLinkId;
  for (const auto& [name, m] : state_.models) {
    for (const RefTriple& t : m.triples) {
      state_.next_link = std::max(state_.next_link, t.link + 1);
    }
  }
  for (const auto& op : replay) RDFDB_RETURN_NOT_OK(op(this));
  return Status::OK();
}

}  // namespace rdfdb::test
