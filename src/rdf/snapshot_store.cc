#include "rdf/snapshot_store.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/timer.h"
#include "obs/active_ops.h"
#include "obs/resource_tracker.h"
#include "obs/store_metrics.h"
#include "storage/env.h"

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

Status StoreVersion::AppendNTriples(ValueId value_id,
                                    std::string* out) const {
  return dict_->AppendNTriples(value_id, out);
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

SnapshotRdfStore::SnapshotRdfStore(std::unique_ptr<RdfStore> store)
    : store_(std::move(store)) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  // A freshly built or opened store cannot fail to snapshot.
  Status status = PublishLocked();
  (void)status;
}

Result<std::unique_ptr<SnapshotRdfStore>> SnapshotRdfStore::Open(
    const std::string& snapshot_path, const std::string& log_path,
    const LoggedStoreOptions& options) {
  storage::Env* env =
      options.env != nullptr ? options.env : storage::Env::Default();
  const std::string manifest_path = ManifestPath(snapshot_path);

  uint64_t generation = 0;
  uint64_t min_seq = 1;
  std::string snapshot_to_load;
  if (env->FileExists(manifest_path)) {
    RDFDB_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                           ReadManifest(manifest_path, env));
    generation = manifest.generation;
    min_seq = manifest.log_start_seq;
    if (generation > 0) {
      snapshot_to_load = storage::DirName(snapshot_path) + "/" +
                         manifest.snapshot_file;
    }
  } else if (env->FileExists(snapshot_path)) {
    // Single-file layout (no manifest yet: a legacy store, or a store
    // saved whole with RdfStore::Save): the bare snapshot plus the full
    // log.
    snapshot_to_load = snapshot_path;
  }

  std::unique_ptr<RdfStore> store;
  if (snapshot_to_load.empty()) {
    store = std::make_unique<RdfStore>();
  } else {
    RDFDB_ASSIGN_OR_RETURN(store, RdfStore::Open(snapshot_to_load, env));
  }

  // Replay stats land in the store's metrics registry and its events in
  // the event log (ReplayRedoLog emits both), so recovery is observable
  // after the fact.
  if (options.event_log != nullptr) store->set_event_log(options.event_log);
  ReplayOptions replay_opts;
  replay_opts.min_seq = min_seq;
  replay_opts.env = env;
  RDFDB_ASSIGN_OR_RETURN(ReplayStats replayed,
                         ReplayRedoLog(log_path, store.get(), replay_opts));

  RedoLogOptions log_opts;
  log_opts.sync_mode = options.sync_mode;
  log_opts.env = env;
  log_opts.next_seq = std::max(replayed.last_seq + 1, min_seq);
  RDFDB_ASSIGN_OR_RETURN(std::unique_ptr<RedoLog> log,
                         RedoLog::Open(log_path, log_opts));

  store->metrics()->recovery_opens->Inc();
  // The recovered state is exactly what the files hold: nothing to cover.
  store->ClearUnloggedWrites();
  store->set_redo_log(log.get());
  std::unique_ptr<SnapshotRdfStore> out(
      new SnapshotRdfStore(std::move(store)));
  out->log_ = std::move(log);
  out->snapshot_path_ = snapshot_path;
  out->env_ = env;
  out->generation_ = generation;
  out->recovery_stats_ = replayed;
  return out;
}

Status SnapshotRdfStore::CoverLocked() {
  if (log_ == nullptr || !store_->has_unlogged_writes()) return Status::OK();
  return CheckpointLocked();
}

Status SnapshotRdfStore::CommitLocked() {
  Status covered = CoverLocked();
  Status published = PublishLocked();
  return covered.ok() ? published : covered;
}

Status SnapshotRdfStore::CheckpointLocked() {
  if (log_ == nullptr) {
    return Status::NotSupported("checkpoint of a store without a redo log");
  }
  obs::ActiveOpGuard active_op(obs::OpKind::kCheckpoint, snapshot_path_);
  // 1. Snapshot the current state into the next generation (atomic:
  //    Save writes tmp + fsync + rename + dir fsync). Every record
  //    below log_start_seq is in the state being saved: the writer
  //    lock is held.
  const uint64_t next_gen = generation_ + 1;
  const std::string snap_file = GenerationFileName(snapshot_path_, next_gen);
  const uint64_t log_start_seq = log_->next_seq();
  RDFDB_RETURN_NOT_OK(store_->Save(snap_file, env_));

  // 2. Swap the manifest. From this instant recovery uses the new
  //    generation; records below log_start_seq become stale.
  CheckpointManifest manifest;
  manifest.generation = next_gen;
  manifest.snapshot_file = storage::BaseName(snap_file);
  manifest.log_start_seq = log_start_seq;
  RDFDB_RETURN_NOT_OK(
      WriteManifest(ManifestPath(snapshot_path_), manifest, env_));
  const uint64_t prev_gen = generation_;
  generation_ = next_gen;
  store_->ClearUnloggedWrites();

  // 3. Reclaim: truncate the log (stale records would be skipped by
  //    seq anyway) and drop the superseded snapshot. A crash in here
  //    costs disk space, not correctness.
  RDFDB_RETURN_NOT_OK(log_->Truncate());
  if (prev_gen > 0) {
    (void)env_->RemoveFile(GenerationFileName(snapshot_path_, prev_gen));
  } else if (env_->FileExists(snapshot_path_)) {
    // Legacy bare snapshot superseded by the first manifest.
    (void)env_->RemoveFile(snapshot_path_);
  }
  return Status::OK();
}

void SnapshotRdfStore::SetObservability(obs::EventLog* event_log,
                                        obs::SlowQueryLog* slow_query_log,
                                        obs::Timeline* timeline) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  store_->set_event_log(event_log);
  store_->set_slow_query_log(slow_query_log);
  store_->set_timeline(timeline);
  // Re-publish so readers pick up the new attachments.
  Status status = PublishLocked();
  (void)status;
}

Status SnapshotRdfStore::PublishLocked() {
  Timer timer;
  obs::ResourceScope publish_scope("publish");
  const RdfStore& live = *store_;
  // Absorb rdf_value$ rows appended since the previous publish. The
  // dictionary is monotonic and its tables are published with release
  // stores, so readers on older versions stay safe.
  RDFDB_RETURN_NOT_OK(dict_.Ingest(live.values()));

  std::shared_ptr<StoreVersion> version(new StoreVersion());
  version->caches_ = live.links().ShareCaches();
  for (const std::string& name : live.ModelNames()) {
    Result<ModelId> model_id = live.GetModelId(name);
    if (!model_id.ok()) continue;  // racing drop is impossible; belt-and-braces
    version->models_by_lower_name_.emplace(ToLower(name), *model_id);
  }
  version->dict_ = &dict_;
  version->metrics_ = live.metrics();
  version->slow_query_log_ = live.slow_query_log();
  version->timeline_ = live.timeline();
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

  obs::StoreMetrics* metrics = store_->metrics();
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
  store_->metrics()->retention_age_seconds->Set(static_cast<int64_t>(age));
  if (retention_warn_seconds_ <= 0.0 || age < retention_warn_seconds_) {
    return;
  }
  obs::EventLog* log = store_->event_log();
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
  RdfStore::MemoryBreakdown breakdown = store_->MemoryUsage();
  breakdown.term_dict_bytes = dict_.ApproxBytes();
  breakdown.retired_version_bytes = gc_.RetiredBytes();
  return breakdown;
}

void SnapshotRdfStore::UpdateMemoryGauges() const {
  const RdfStore::MemoryBreakdown breakdown = MemoryUsage();
  std::lock_guard<std::mutex> lock(writer_mu_);
  store_->UpdateMemoryGauges(breakdown);
  obs::StoreMetrics* metrics = store_->metrics();
  metrics->retired_versions->Set(
      static_cast<int64_t>(gc_.RetiredOutstanding()));
  metrics->epoch_lag->Set(static_cast<int64_t>(gc_.OldestPinLag()));
  CheckRetentionLocked();
}

}  // namespace rdfdb::rdf
