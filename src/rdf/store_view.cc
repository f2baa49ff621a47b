#include "rdf/store_view.h"

#include <unordered_set>

#include "obs/store_metrics.h"
#include "rdf/reification.h"
#include "rdf/vocab.h"

namespace rdfdb::rdf {

namespace {

/// VALUE_IDs of rdf:type and rdf:Statement, the predicate and object of
/// every streamlined reification triple.
struct ReificationVocab {
  ValueId type;
  ValueId statement;
};

/// Resolved per call: each is one dictionary probe, and the vocabulary
/// is absent until the first reification interns it.
std::optional<ReificationVocab> LookupReificationVocab(
    const StoreView& view) {
  std::optional<ValueId> type = view.LookupValue(Term::Uri(std::string(kRdfType)));
  std::optional<ValueId> statement =
      view.LookupValue(Term::Uri(std::string(kRdfStatement)));
  if (!type.has_value() || !statement.has_value()) return std::nullopt;
  return ReificationVocab{*type, *statement};
}

}  // namespace

std::optional<ValueId> StoreView::LookupTerm(ModelId model_id,
                                             const Term& term) const {
  if (term.is_blank()) return LookupBlank(model_id, term.lexical());
  return LookupValue(term);
}

Result<const LinkStore::IdQuad*> StoreView::FindTriple(
    const std::string& model_name, const std::string& subject,
    const std::string& property, const std::string& object,
    ModelId* model_id) const {
  RDFDB_ASSIGN_OR_RETURN(ModelId id, GetModelId(model_name));
  if (model_id != nullptr) *model_id = id;
  RDFDB_ASSIGN_OR_RETURN(Term s, ParseApiSubject(subject));
  RDFDB_ASSIGN_OR_RETURN(Term p, ParseApiPredicate(property));
  RDFDB_ASSIGN_OR_RETURN(Term o, ParseApiTerm(object));
  std::optional<ValueId> s_id = LookupTerm(id, s);
  std::optional<ValueId> p_id = LookupTerm(id, p);
  std::optional<ValueId> o_id = LookupTerm(id, o);
  const LinkStore::ModelIdCache* cache = CacheFor(id);
  if (!s_id || !p_id || !o_id || cache == nullptr) {
    return static_cast<const LinkStore::IdQuad*>(nullptr);
  }
  return cache->FindSpo(*s_id, *p_id, *o_id);
}

Result<bool> StoreView::IsTriple(const std::string& model_name,
                                 const std::string& subject,
                                 const std::string& property,
                                 const std::string& object) const {
  RDFDB_ASSIGN_OR_RETURN(
      const LinkStore::IdQuad* quad,
      FindTriple(model_name, subject, property, object, nullptr));
  return quad != nullptr;
}

Result<bool> StoreView::IsReified(const std::string& model_name,
                                  const std::string& subject,
                                  const std::string& property,
                                  const std::string& object) const {
  ModelId model_id = 0;
  RDFDB_ASSIGN_OR_RETURN(
      const LinkStore::IdQuad* quad,
      FindTriple(model_name, subject, property, object, &model_id));
  if (quad == nullptr) return false;
  // "To determine if a triple is reified in a specified graph, a search
  // is done for its DBUriType" — one more point lookup.
  return IsLinkReified(model_id, quad->link_id);
}

Result<LinkId> StoreView::GetTripleId(const std::string& model_name,
                                      const std::string& subject,
                                      const std::string& property,
                                      const std::string& object) const {
  RDFDB_ASSIGN_OR_RETURN(
      const LinkStore::IdQuad* quad,
      FindTriple(model_name, subject, property, object, nullptr));
  if (quad == nullptr) {
    return Status::NotFound("triple not found in model " + model_name);
  }
  return quad->link_id;
}

Result<bool> StoreView::IsLinkReified(ModelId model_id,
                                      LinkId link_id) const {
  if (obs::StoreMetrics* m = metrics(); m != nullptr) m->reif_checks->Inc();
  const LinkStore::ModelIdCache* cache = CacheFor(model_id);
  if (cache == nullptr) return false;
  std::optional<ValueId> resource =
      LookupValue(Term::Uri(DBUriForLink(link_id)));
  if (!resource.has_value()) return false;
  std::optional<ReificationVocab> vocab = LookupReificationVocab(*this);
  if (!vocab.has_value()) return false;
  // rdf:Statement is a URI, so its lexical object equals its canonical
  // object and the (s, p, o) identity probe answers the query form.
  return cache->FindSpo(*resource, vocab->type, vocab->statement) != nullptr;
}

Result<StoreView::ModelStats> StoreView::GetModelStats(
    const std::string& model_name, const ModelStatsOptions& options) const {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  ModelStats stats;
  const LinkStore::ModelIdCache* cache = CacheFor(model_id);
  if (cache == nullptr) return stats;  // registered but empty model

  obs::StoreMetrics* m = metrics();
  obs::Counter* scans = m != nullptr ? m->link_rows_scanned : nullptr;
  stats.triples = cache->live_count();
  stats.implied_statements = cache->implied_count;
  if (std::optional<ReificationVocab> vocab = LookupReificationVocab(*this)) {
    LinkStore::Scan(*cache, std::nullopt, vocab->type, vocab->statement,
                    scans, [&](uint32_t, ValueId, ValueId, ValueId, ValueId) {
                      ++stats.reified_statements;
                      return true;
                    });
  }

  if (options.distinct_counts) {
    std::unordered_set<ValueId> subjects, predicates, objects;
    LinkStore::Scan(*cache, std::nullopt, std::nullopt, std::nullopt, scans,
                    [&](uint32_t, ValueId s, ValueId p, ValueId o, ValueId) {
                      subjects.insert(s);
                      predicates.insert(p);
                      objects.insert(o);
                      return true;
                    });
    stats.distinct_subjects = subjects.size();
    stats.distinct_predicates = predicates.size();
    stats.distinct_objects = objects.size();
  }
  return stats;
}

Result<LinkStore::IdQuad> StoreView::QuadForLink(LinkId rdf_t_id) const {
  const LinkStore::IdQuad* quad = FindLink(rdf_t_id);
  if (quad == nullptr) {
    return Status::NotFound("LINK_ID " + std::to_string(rdf_t_id));
  }
  return *quad;
}

Result<SdoRdfTriple> StoreView::ResolveTriple(LinkId rdf_t_id) const {
  RDFDB_ASSIGN_OR_RETURN(LinkStore::IdQuad quad, QuadForLink(rdf_t_id));
  SdoRdfTriple triple;
  RDFDB_ASSIGN_OR_RETURN(triple.subject, TextForValueId(quad.s));
  RDFDB_ASSIGN_OR_RETURN(triple.property, TextForValueId(quad.p));
  RDFDB_ASSIGN_OR_RETURN(triple.object, TextForValueId(quad.o));
  return triple;
}

Result<std::string> StoreView::ResolveSubject(LinkId rdf_t_id) const {
  RDFDB_ASSIGN_OR_RETURN(LinkStore::IdQuad quad, QuadForLink(rdf_t_id));
  return TextForValueId(quad.s);
}

Result<std::string> StoreView::ResolveProperty(LinkId rdf_t_id) const {
  RDFDB_ASSIGN_OR_RETURN(LinkStore::IdQuad quad, QuadForLink(rdf_t_id));
  return TextForValueId(quad.p);
}

Result<std::string> StoreView::ResolveObject(LinkId rdf_t_id) const {
  RDFDB_ASSIGN_OR_RETURN(LinkStore::IdQuad quad, QuadForLink(rdf_t_id));
  return TextForValueId(quad.o);
}

Result<std::string> StoreView::TextForValueId(ValueId value_id) const {
  RDFDB_ASSIGN_OR_RETURN(Term term, TermForValueId(value_id));
  return term.ToDisplayString();
}

}  // namespace rdfdb::rdf
