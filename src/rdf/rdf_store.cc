#include "rdf/rdf_store.h"

#include <algorithm>

#include "common/timer.h"
#include "obs/active_ops.h"
#include "obs/resource_tracker.h"
#include "rdf/canonical.h"
#include "rdf/redo_log.h"
#include "rdf/reification.h"
#include "rdf/vocab.h"
#include "storage/snapshot.h"

namespace rdfdb::rdf {

RdfStore::RdfStore()
    : db_(std::make_unique<storage::Database>("ORADB")) {
  registry_ = std::make_unique<obs::MetricsRegistry>();
  metrics_ = std::make_unique<obs::StoreMetrics>(registry_.get());
  values_ = std::make_unique<ValueStore>(db_.get());
  values_->set_metrics(metrics_.get());
  links_ = std::make_unique<LinkStore>(db_.get(), values_.get());
  links_->set_metrics(metrics_.get());
  models_ = std::make_unique<ModelStore>(db_.get());
}

RdfStore::~RdfStore() {
  if (event_log_ != nullptr) {
    event_log_->Append(
        "store", "close",
        {obs::EventField::Num("links",
                              static_cast<int64_t>(links_->link_count())),
         obs::EventField::Num("nodes",
                              static_cast<int64_t>(links_->node_count()))});
  }
}

void RdfStore::set_event_log(obs::EventLog* log) {
  event_log_ = log;
  if (event_log_ != nullptr) {
    // Lifecycle marker: the counts let a log reader anchor every later
    // event against the store state at attach time.
    event_log_->Append(
        "store", "attach",
        {obs::EventField::Num("links",
                              static_cast<int64_t>(links_->link_count())),
         obs::EventField::Num("nodes",
                              static_cast<int64_t>(links_->node_count())),
         obs::EventField::Num("models",
                              static_cast<int64_t>(ModelNames().size()))});
  }
}

namespace {

// Apply-then-log: append `record`'s redo record only once the call has
// applied (the log is the truth after a crash, so a failed call is
// never logged), and only when a log is attached.
template <typename R, typename Record>
R ThenLog(R applied, RedoLog* log, Record record) {
  if (applied.ok() && log != nullptr) {
    Status logged = record(*log);
    if (!logged.ok()) return logged;
  }
  return applied;
}

}  // namespace

Result<ModelInfo> RdfStore::CreateRdfModel(const std::string& model_name,
                                           const std::string& app_table,
                                           const std::string& app_column,
                                           const std::string& owner) {
  // MODEL_ID column position in rdf_link$ is 9 (see link_store.cc).
  Result<ModelInfo> info = ThenLog(
      models_->CreateModel(model_name, app_table, app_column, owner,
                           &links_->table(), /*model_column=*/9),
      redo_log_, [&](RedoLog& log) {
        return log.LogCreateModel(model_name, app_table, app_column, owner);
      });
  if (event_log_ != nullptr) {
    if (info.ok()) {
      event_log_->Append(
          "model", "create",
          {obs::EventField::Str("model", model_name),
           obs::EventField::Num("model_id", info->model_id),
           obs::EventField::Str("app_table", app_table)});
    } else {
      obs::LogErrorEvent(event_log_, "CreateRdfModel", info.status());
    }
  }
  return info;
}

Status RdfStore::DropRdfModel(const std::string& model_name) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  RDFDB_RETURN_NOT_OK(links_->DeleteModel(model_id));
  Status status =
      ThenLog(models_->DropModel(model_name), redo_log_,
              [&](RedoLog& log) { return log.LogDropModel(model_name); });
  if (event_log_ != nullptr) {
    if (status.ok()) {
      event_log_->Append("model", "drop",
                         {obs::EventField::Str("model", model_name),
                          obs::EventField::Num("model_id", model_id)});
    } else {
      obs::LogErrorEvent(event_log_, "DropRdfModel", status);
    }
  }
  return status;
}

Result<ModelId> RdfStore::GetModelId(const std::string& model_name) const {
  return models_->GetModelId(model_name);
}

std::vector<std::string> RdfStore::ModelNames() const {
  return models_->ModelNames();
}

Status RdfStore::GrantSelectOnModel(const std::string& model_name,
                                    const std::string& user) {
  RDFDB_ASSIGN_OR_RETURN(ModelId id, GetModelId(model_name));
  (void)id;
  storage::View* view =
      db_->GetView("MDSYS", ModelStore::ViewNameFor(model_name));
  if (view == nullptr) {
    return Status::Internal("model view missing for " + model_name);
  }
  view->GrantSelect(user);
  return Status::OK();
}

Result<bool> RdfStore::CanSelectModel(const std::string& model_name,
                                      const std::string& user) const {
  RDFDB_ASSIGN_OR_RETURN(ModelId id, GetModelId(model_name));
  (void)id;
  const storage::View* view = static_cast<const storage::Database&>(*db_)
                                  .GetView("MDSYS",
                                           ModelStore::ViewNameFor(
                                               model_name));
  if (view == nullptr) {
    return Status::Internal("model view missing for " + model_name);
  }
  return view->CanSelect(user);
}

Result<ValueId> RdfStore::InternTerm(ModelId model_id, const Term& term) {
  if (term.is_blank()) {
    return values_->LookupOrInsertBlank(model_id, term.lexical());
  }
  return values_->LookupOrInsert(term);
}

SdoRdfTripleS RdfStore::MakeHandle(const LinkRow& row) const {
  return SdoRdfTripleS(this, row.link_id, row.model_id, row.start_node_id,
                       row.p_value_id, row.end_node_id);
}

Result<SdoRdfTripleS> RdfStore::InsertTerms(ModelId model_id,
                                            const Term& subject,
                                            const Term& property,
                                            const Term& object,
                                            TripleContext context) {
  RDFDB_ASSIGN_OR_RETURN(ValueId s_id, InternTerm(model_id, subject));
  RDFDB_ASSIGN_OR_RETURN(ValueId p_id, InternTerm(model_id, property));
  RDFDB_ASSIGN_OR_RETURN(ValueId o_id, InternTerm(model_id, object));

  Term canon = CanonicalForm(object);
  ValueId canon_id = o_id;
  if (canon != object) {
    RDFDB_ASSIGN_OR_RETURN(canon_id, InternTerm(model_id, canon));
  }

  // REIF_LINK is Y when any position "references a reified triple",
  // i.e. carries a reification DBUri.
  bool reif_link = (subject.is_uri() && IsReificationUri(subject.lexical())) ||
                   (object.is_uri() && IsReificationUri(object.lexical()));

  std::string link_type = ClassifyPredicate(property.lexical());
  RDFDB_ASSIGN_OR_RETURN(
      LinkInsertOutcome outcome,
      links_->Insert(model_id, s_id, p_id, o_id, canon_id, link_type,
                     context, reif_link));
  return MakeHandle(outcome.row);
}

Result<SdoRdfTripleS> RdfStore::InsertParsedTriple(ModelId model_id,
                                                   const Term& subject,
                                                   const Term& property,
                                                   const Term& object,
                                                   TripleContext context) {
  if (!subject.is_uri() && !subject.is_blank()) {
    return Status::InvalidArgument("subject must be a URI or blank node");
  }
  if (!property.is_uri()) {
    return Status::InvalidArgument("predicate must be a URI");
  }
  const bool direct = context == TripleContext::kDirect;
  if (!direct) MarkUnloggedWrite();
  return ThenLog(
      InsertTerms(model_id, subject, property, object, context),
      direct ? redo_log_ : nullptr, [&](RedoLog& log) -> Status {
        // N-Triples forms are API term texts, so replay re-parses them.
        RDFDB_ASSIGN_OR_RETURN(ModelInfo model,
                               models_->GetModelById(model_id));
        return log.LogInsert(model.model_name, subject.ToNTriples(),
                             property.ToNTriples(), object.ToNTriples());
      });
}

Result<SdoRdfTripleS> RdfStore::InsertTriple(const std::string& model_name,
                                             const std::string& subject,
                                             const std::string& property,
                                             const std::string& object) {
  // "When a user attempts to insert a triple, a check is first made to
  // ensure that the RDF graph exists."
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  RDFDB_ASSIGN_OR_RETURN(Term s, ParseApiSubject(subject));
  RDFDB_ASSIGN_OR_RETURN(Term p, ParseApiPredicate(property));
  RDFDB_ASSIGN_OR_RETURN(Term o, ParseApiTerm(object));
  return ThenLog(InsertTerms(model_id, s, p, o, TripleContext::kDirect),
                 redo_log_, [&](RedoLog& log) {
                   return log.LogInsert(model_name, subject, property, object);
                 });
}

Result<SdoRdfTriple> RdfStore::TripleTextFor(LinkId rdf_t_id) const {
  RDFDB_ASSIGN_OR_RETURN(LinkRow row, links_->Get(rdf_t_id));
  SdoRdfTriple out;
  for (auto [value_id, slot] :
       {std::make_pair(row.start_node_id, &out.subject),
        std::make_pair(row.p_value_id, &out.property),
        std::make_pair(row.end_node_id, &out.object)}) {
    RDFDB_ASSIGN_OR_RETURN(Term term, values_->GetTerm(value_id));
    if (term.is_blank()) {
      // The original label, so replay re-resolves the same model-scoped
      // node.
      auto original = values_->LookupBlankLabel(value_id);
      if (!original.has_value()) {
        return Status::Corruption("blank node without rdf_blank_node$ row");
      }
      *slot = "_:" + original->second;
    } else {
      *slot = term.ToNTriples();
    }
  }
  return out;
}

Result<SdoRdfTripleS> RdfStore::ReifyTriple(const std::string& model_name,
                                            LinkId rdf_t_id) {
  return ThenLog(ReifyLink(model_name, rdf_t_id), redo_log_,
                 [&](RedoLog& log) -> Status {
                   RDFDB_ASSIGN_OR_RETURN(SdoRdfTriple base,
                                          TripleTextFor(rdf_t_id));
                   return log.LogReify(model_name, base.subject,
                                       base.property, base.object);
                 });
}

Result<SdoRdfTripleS> RdfStore::ReifyLink(const std::string& model_name,
                                          LinkId rdf_t_id) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  // The reified triple must exist, in the reifying model: recovery
  // re-finds a logged reification's base by its text in that model.
  RDFDB_ASSIGN_OR_RETURN(LinkRow base, links_->Get(rdf_t_id));
  if (base.model_id != model_id) {
    return Status::InvalidArgument("LINK_ID " + std::to_string(rdf_t_id) +
                                   " is not in model " + model_name);
  }
  Term resource = Term::Uri(DBUriForLink(rdf_t_id));
  Term type = Term::Uri(std::string(kRdfType));
  Term statement = Term::Uri(std::string(kRdfStatement));
  return InsertTerms(model_id, resource, type, statement,
                     TripleContext::kDirect);
}

Result<SdoRdfTripleS> RdfStore::AssertAboutTriple(
    const std::string& model_name, const std::string& subject,
    const std::string& property, LinkId rdf_t_id) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  RDFDB_ASSIGN_OR_RETURN(Term s, ParseApiSubject(subject));
  RDFDB_ASSIGN_OR_RETURN(Term p, ParseApiPredicate(property));
  return ThenLog(AssertAboutTerms(model_name, model_id, s, p, rdf_t_id),
                 redo_log_, [&](RedoLog& log) -> Status {
                   RDFDB_ASSIGN_OR_RETURN(SdoRdfTriple base,
                                          TripleTextFor(rdf_t_id));
                   return log.LogAssert(model_name, subject, property,
                                        base.subject, base.property,
                                        base.object, /*implied=*/false);
                 });
}

Result<SdoRdfTripleS> RdfStore::AssertAboutTerms(const std::string& model_name,
                                                 ModelId model_id,
                                                 const Term& subject,
                                                 const Term& property,
                                                 LinkId rdf_t_id) {
  RDFDB_ASSIGN_OR_RETURN(bool reified, IsLinkReified(model_id, rdf_t_id));
  if (!reified) {
    // "... which calls the reification constructor (if the triple was not
    // previously reified)".
    RDFDB_RETURN_NOT_OK(ReifyLink(model_name, rdf_t_id).status());
  }
  Term o = Term::Uri(DBUriForLink(rdf_t_id));
  return InsertTerms(model_id, subject, property, o, TripleContext::kDirect);
}

Result<SdoRdfTripleS> RdfStore::AssertImplied(const std::string& model_name,
                                              const std::string& reif_sub,
                                              const std::string& reif_prop,
                                              const std::string& subject,
                                              const std::string& property,
                                              const std::string& object) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  // Parse every term before the first mutation, so a bad term fails the
  // call with the store untouched.
  RDFDB_ASSIGN_OR_RETURN(Term rs, ParseApiSubject(reif_sub));
  RDFDB_ASSIGN_OR_RETURN(Term rp, ParseApiPredicate(reif_prop));
  RDFDB_ASSIGN_OR_RETURN(Term s, ParseApiSubject(subject));
  RDFDB_ASSIGN_OR_RETURN(Term p, ParseApiPredicate(property));
  RDFDB_ASSIGN_OR_RETURN(Term o, ParseApiTerm(object));
  // "It first inserts the base triple (subject, property, object)" — as
  // an implied statement; if it already exists as a fact it stays Direct.
  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS base,
      InsertTerms(model_id, s, p, o, TripleContext::kImplied));
  return ThenLog(
      AssertAboutTerms(model_name, model_id, rs, rp, base.rdf_t_id()),
      redo_log_, [&](RedoLog& log) {
        return log.LogAssert(model_name, reif_sub, reif_prop, subject,
                             property, object, /*implied=*/true);
      });
}

Status RdfStore::CheckConsistency() const {
  if (links_->CachedTripleCount() != links_->TotalTripleCount()) {
    return Status::Corruption(
        "quad cache has " + std::to_string(links_->CachedTripleCount()) +
        " live triples, rdf_link$ has " +
        std::to_string(links_->TotalTripleCount()));
  }

  // Every link endpoint must have an rdf_node$ row, and every VALUE_ID
  // column must resolve in rdf_value$.
  Status status = Status::OK();
  links_->table().Scan([&](storage::RowId, const storage::Row& row) {
    auto fail = [&](const std::string& what, size_t col) {
      status = Status::Corruption(
          "LINK_ID " + std::to_string(row[0].as_int64()) + what +
          std::to_string(row[col].as_int64()));
      return false;
    };
    for (size_t col : {1u, 3u}) {
      if (!links_->HasNode(row[col].as_int64())) {
        return fail(" has no rdf_node$ row for endpoint ", col);
      }
    }
    for (size_t col : {1u, 2u, 3u, 4u}) {
      if (!values_->GetTerm(row[col].as_int64()).ok()) {
        return fail(" references missing VALUE_ID ", col);
      }
    }
    return true;
  });
  RDFDB_RETURN_NOT_OK(status);

  // No orphaned nodes: every rdf_node$ row has at least one live link.
  links_->ForEachNode([&](ndm::NodeId node) {
    bool linked = false;
    links_->ForEachLink(node, ndm::Direction::kBoth,
                        [&](const ndm::Link&) { linked = true; });
    if (!linked && status.ok()) {
      status = Status::Corruption("orphaned node " + std::to_string(node));
    }
  });
  return status;
}

Status RdfStore::DeleteTriple(const std::string& model_name,
                              const std::string& subject,
                              const std::string& property,
                              const std::string& object) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, GetModelId(model_name));
  RDFDB_ASSIGN_OR_RETURN(Term s, ParseApiSubject(subject));
  RDFDB_ASSIGN_OR_RETURN(Term p, ParseApiPredicate(property));
  RDFDB_ASSIGN_OR_RETURN(Term o, ParseApiTerm(object));
  std::optional<ValueId> s_id = LookupTerm(model_id, s);
  std::optional<ValueId> p_id = LookupTerm(model_id, p);
  std::optional<ValueId> o_id = LookupTerm(model_id, o);
  if (!s_id || !p_id || !o_id) {
    return Status::NotFound("triple not found in model " + model_name);
  }
  return ThenLog(links_->Delete(model_id, *s_id, *p_id, *o_id), redo_log_,
                 [&](RedoLog& log) {
                   return log.LogDelete(model_name, subject, property, object);
                 });
}

RdfStore::MemoryBreakdown RdfStore::MemoryUsage() const {
  MemoryBreakdown breakdown;
  breakdown.value_store_bytes = values_->ApproxBytes();
  breakdown.link_table_bytes = links_->TableBytes();
  breakdown.quad_cache_bytes = links_->CacheBytes();
  breakdown.tracked_heap_bytes = obs::TrackedHeapBytes();
  return breakdown;
}

void RdfStore::UpdateMemoryGauges(const MemoryBreakdown& breakdown) const {
  metrics_->mem_value_store_bytes->Set(
      static_cast<int64_t>(breakdown.value_store_bytes));
  metrics_->mem_link_table_bytes->Set(
      static_cast<int64_t>(breakdown.link_table_bytes));
  metrics_->mem_quad_cache_bytes->Set(
      static_cast<int64_t>(breakdown.quad_cache_bytes));
  metrics_->mem_term_dict_bytes->Set(
      static_cast<int64_t>(breakdown.term_dict_bytes));
  metrics_->mem_retired_version_bytes->Set(
      static_cast<int64_t>(breakdown.retired_version_bytes));
  metrics_->mem_tracked_heap_bytes->Set(
      static_cast<int64_t>(breakdown.tracked_heap_bytes));
  metrics_->active_operations->Set(
      static_cast<int64_t>(obs::ActiveOpCount()));
}

Status RdfStore::Save(const std::string& path, storage::Env* env) const {
  Timer save_timer;
  obs::ScopedLatency span(metrics_->snapshot_save_ns);
  metrics_->snapshot_saves->Inc();
  Status status = storage::SaveSnapshotToFile(*db_, path, env, timeline_);
  if (event_log_ != nullptr) {
    if (status.ok()) {
      event_log_->Append(
          "snapshot", "save",
          {obs::EventField::Str("path", path),
           obs::EventField::Num("links",
                                static_cast<int64_t>(links_->link_count())),
           obs::EventField::Num("elapsed_us",
                                save_timer.ElapsedNanos() / 1000)});
    } else {
      obs::LogErrorEvent(event_log_, "Save", status);
    }
  }
  return status;
}

Result<std::unique_ptr<RdfStore>> RdfStore::Open(const std::string& path,
                                                 storage::Env* env) {
  Timer open_timer;
  // Load the snapshot into a scratch database first, then replay rows
  // through a fresh store so indexes, caches and sequences are all
  // rebuilt consistently.
  auto store = std::make_unique<RdfStore>();
  storage::Database scratch("ORADB");
  RDFDB_RETURN_NOT_OK(storage::LoadSnapshotFromFile(path, &scratch, env));

  auto copy_rows = [&](const char* table_name) -> Status {
    const storage::Table* src = scratch.GetTable("MDSYS", table_name);
    if (src == nullptr) {
      return Status::Corruption(std::string("snapshot missing MDSYS.") +
                                table_name);
    }
    storage::Table* dst = store->db_->GetTable("MDSYS", table_name);
    Status status = Status::OK();
    src->Scan([&](storage::RowId, const storage::Row& row) {
      auto insert = dst->Insert(row);
      if (!insert.ok()) {
        status = insert.status();
        return false;
      }
      return true;
    });
    return status;
  };

  RDFDB_RETURN_NOT_OK(copy_rows("RDF_VALUE$"));
  RDFDB_RETURN_NOT_OK(copy_rows("RDF_BLANK_NODE$"));
  RDFDB_RETURN_NOT_OK(copy_rows("RDF_MODEL$"));
  RDFDB_RETURN_NOT_OK(copy_rows("RDF_NODE$"));
  RDFDB_RETURN_NOT_OK(copy_rows("RDF_LINK$"));

  // The raw row copies above bypassed ValueStore::LookupOrInsert and
  // LinkStore::Insert, so the value-store lookup structures and the
  // id-native quad cache (which serve every dictionary probe and
  // pattern scan) are still empty.
  store->values_->RebuildLookups();
  store->links_->RebuildCache();

  // Re-seed sequences past the highest stored ids.
  auto reseed = [&](const char* table_name, size_t id_col,
                    const char* seq_name) {
    const storage::Table* table =
        store->db_->GetTable("MDSYS", table_name);
    int64_t max_id = 0;
    table->Scan([&](storage::RowId, const storage::Row& row) {
      max_id = std::max(max_id, row[id_col].as_int64());
      return true;
    });
    storage::Sequence* seq = store->db_->GetSequence("MDSYS", seq_name);
    if (seq->Peek() <= max_id) seq->Reset(max_id + 1);
  };
  reseed("RDF_VALUE$", 0, "RDF_VALUE_SEQ");
  reseed("RDF_LINK$", 0, "RDF_LINK_SEQ");
  reseed("RDF_MODEL$", 0, "RDF_MODEL_SEQ");

  // Recreate per-model views.
  {
    const storage::Table* model_table =
        store->db_->GetTable("MDSYS", "RDF_MODEL$");
    Status status = Status::OK();
    model_table->Scan([&](storage::RowId, const storage::Row& row) {
      int64_t model_id = row[0].as_int64();
      const std::string& model_name = row[1].as_string();
      std::string owner = row[4].is_null() ? "" : row[4].as_string();
      auto view = store->db_->CreateView(
          "MDSYS", ModelStore::ViewNameFor(model_name),
          &store->links_->table(),
          storage::Eq(/*MODEL_ID column=*/9,
                      storage::Value::Int64(model_id)),
          owner);
      if (!view.ok()) {
        status = view.status();
        return false;
      }
      return true;
    });
    RDFDB_RETURN_NOT_OK(status);
  }

  store->metrics_->snapshot_loads->Inc();
  store->metrics_->snapshot_load_ns->Observe(
      static_cast<uint64_t>(open_timer.ElapsedNanos()));
  return store;
}

}  // namespace rdfdb::rdf
