#include "rdf/snapshot_store.h"

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/resource_tracker.h"
#include "obs/store_metrics.h"

namespace rdfdb::rdf {

// ---- StoreVersion ---------------------------------------------------------

Result<ModelId> StoreVersion::GetModelId(
    const std::string& model_name) const {
  auto it = models_by_lower_name_.find(ToLower(model_name));
  if (it == models_by_lower_name_.end()) {
    return Status::NotFound("model " + model_name);
  }
  return it->second;
}

std::optional<ValueId> StoreVersion::LookupValue(const Term& term) const {
  return dict_->Lookup(term);
}

std::optional<ValueId> StoreVersion::LookupBlank(
    ModelId model_id, const std::string& label) const {
  return dict_->LookupBlank(model_id, label);
}

Result<Term> StoreVersion::TermForValueId(ValueId value_id) const {
  return dict_->TermForValueId(value_id);
}

size_t StoreVersion::TripleCount(ModelId model_id) const {
  const LinkStore::ModelIdCache* cache = CacheFor(model_id);
  return cache == nullptr ? 0 : cache->live_count();
}

size_t StoreVersion::TotalTripleCount() const {
  size_t n = 0;
  for (const auto& [model_id, cache] : caches_) n += cache->live_count();
  return n;
}

// ---- SnapshotRdfStore -----------------------------------------------------

SnapshotRdfStore::SnapshotRdfStore() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // An empty store cannot fail to snapshot.
  Status status = PublishLocked();
  (void)status;
}

Result<ModelInfo> SnapshotRdfStore::CreateRdfModel(
    const std::string& model_name, const std::string& app_table,
    const std::string& app_column, const std::string& owner) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Result<ModelInfo> result =
      store_.CreateRdfModel(model_name, app_table, app_column, owner);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return result;
}

Status SnapshotRdfStore::DropRdfModel(const std::string& model_name) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Status status = store_.DropRdfModel(model_name);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return status;
}

Result<SdoRdfTripleS> SnapshotRdfStore::InsertTriple(
    const std::string& model_name, const std::string& subject,
    const std::string& property, const std::string& object) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Result<SdoRdfTripleS> result =
      store_.InsertTriple(model_name, subject, property, object);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return result;
}

Status SnapshotRdfStore::DeleteTriple(const std::string& model_name,
                                      const std::string& subject,
                                      const std::string& property,
                                      const std::string& object) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Status status = store_.DeleteTriple(model_name, subject, property, object);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return status;
}

Result<SdoRdfTripleS> SnapshotRdfStore::ReifyTriple(
    const std::string& model_name, LinkId rdf_t_id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Result<SdoRdfTripleS> result = store_.ReifyTriple(model_name, rdf_t_id);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return result;
}

Result<SdoRdfTripleS> SnapshotRdfStore::AssertAboutTriple(
    const std::string& model_name, const std::string& subject,
    const std::string& property, LinkId rdf_t_id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Result<SdoRdfTripleS> result =
      store_.AssertAboutTriple(model_name, subject, property, rdf_t_id);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return result;
}

Result<SdoRdfTripleS> SnapshotRdfStore::AssertImplied(
    const std::string& model_name, const std::string& reif_sub,
    const std::string& reif_prop, const std::string& subject,
    const std::string& property, const std::string& object) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  Result<SdoRdfTripleS> result = store_.AssertImplied(
      model_name, reif_sub, reif_prop, subject, property, object);
  RDFDB_RETURN_NOT_OK(PublishLocked());
  return result;
}

void SnapshotRdfStore::SetObservability(obs::EventLog* event_log,
                                        obs::SlowQueryLog* slow_query_log,
                                        obs::Timeline* timeline) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  store_.set_event_log(event_log);
  store_.set_slow_query_log(slow_query_log);
  store_.set_timeline(timeline);
  // Re-publish so readers pick up the new attachments.
  Status status = PublishLocked();
  (void)status;
}

Status SnapshotRdfStore::PublishLocked() {
  Timer timer;
  obs::ResourceScope publish_scope("publish");
  // Absorb rdf_value$ rows appended since the previous publish. The
  // dictionary is monotonic and its tables are published with release
  // stores, so readers on older versions stay safe.
  RDFDB_RETURN_NOT_OK(dict_.Ingest(store_.values()));

  std::shared_ptr<StoreVersion> version(new StoreVersion());
  version->caches_ = store_.links().ShareCaches();
  for (const std::string& name : store_.ModelNames()) {
    Result<ModelId> model_id = store_.GetModelId(name);
    if (!model_id.ok()) continue;  // racing drop is impossible; belt-and-braces
    version->models_by_lower_name_.emplace(ToLower(name), *model_id);
    version->model_names_.push_back(name);
  }
  version->dict_ = &dict_;
  version->metrics_ = store_.metrics();
  version->slow_query_log_ = store_.slow_query_log();
  version->timeline_ = store_.timeline();
  version->seq_ = ++seq_counter_;

  // Publish protocol (see rdf/epoch.h): release-store the pointer,
  // then seq_cst-advance the epoch, then retire the displaced version
  // at the new epoch.
  current_.store(version.get(), std::memory_order_release);
  std::shared_ptr<const StoreVersion> displaced = std::move(current_sp_);
  current_sp_ = std::move(version);
  const uint64_t retire_epoch = gc_.Advance();
  if (displaced != nullptr) {
    // Exclusive footprint of the displaced version: the quad caches it
    // holds that the new version no longer shares (i.e. the pre-CoW
    // copies of whatever this publish mutated). Shared caches cost
    // nothing extra to retain, so they are not charged.
    size_t exclusive_bytes = 0;
    for (const auto& [model_id, cache] : displaced->caches_) {
      auto it = current_sp_->caches_.find(model_id);
      if (it == current_sp_->caches_.end() ||
          it->second.get() != cache.get()) {
        exclusive_bytes += cache->ApproxBytes();
      }
    }
    gc_.Retire(std::shared_ptr<const void>(displaced), retire_epoch,
               exclusive_bytes);
  }
  gc_.Sweep();

  obs::StoreMetrics* metrics = store_.metrics();
  metrics->versions_published->Inc();
  metrics->publish_ns->Observe(timer.ElapsedNanos());
  metrics->retired_versions->Set(
      static_cast<int64_t>(gc_.RetiredOutstanding()));
  metrics->epoch_lag->Set(static_cast<int64_t>(gc_.OldestPinLag()));
  metrics->mem_retired_version_bytes->Set(
      static_cast<int64_t>(gc_.RetiredBytes()));
  CheckRetentionLocked();
  return Status::OK();
}

void SnapshotRdfStore::CheckRetentionLocked() const {
  const double age = gc_.OldestRetireAgeSeconds();
  store_.metrics()->retention_age_seconds->Set(static_cast<int64_t>(age));
  if (retention_warn_seconds_ <= 0.0 || age < retention_warn_seconds_) {
    return;
  }
  obs::EventLog* log = store_.event_log();
  if (log == nullptr) return;
  // Re-warn at most once per threshold interval while the stall lasts.
  const auto now = std::chrono::steady_clock::now();
  if (last_stall_warn_.time_since_epoch().count() != 0 &&
      std::chrono::duration<double>(now - last_stall_warn_).count() <
          retention_warn_seconds_) {
    return;
  }
  last_stall_warn_ = now;
  log->Append(
      "epoch", "retention_stall",
      {obs::EventField::Num("age_seconds", static_cast<int64_t>(age)),
       obs::EventField::Num(
           "retired_versions",
           static_cast<int64_t>(gc_.RetiredOutstanding())),
       obs::EventField::Num("retired_bytes",
                            static_cast<int64_t>(gc_.RetiredBytes())),
       obs::EventField::Num("epoch_lag",
                            static_cast<int64_t>(gc_.OldestPinLag()))});
}

RdfStore::MemoryBreakdown SnapshotRdfStore::MemoryUsage() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  RdfStore::MemoryBreakdown breakdown = store_.MemoryUsage();
  breakdown.term_dict_bytes = dict_.ApproxBytes();
  breakdown.retired_version_bytes = gc_.RetiredBytes();
  return breakdown;
}

void SnapshotRdfStore::UpdateMemoryGauges() const {
  const RdfStore::MemoryBreakdown breakdown = MemoryUsage();
  std::lock_guard<std::mutex> lock(writer_mu_);
  store_.UpdateMemoryGauges(breakdown);
  obs::StoreMetrics* metrics = store_.metrics();
  metrics->retired_versions->Set(
      static_cast<int64_t>(gc_.RetiredOutstanding()));
  metrics->epoch_lag->Set(static_cast<int64_t>(gc_.OldestPinLag()));
  CheckRetentionLocked();
}

}  // namespace rdfdb::rdf
