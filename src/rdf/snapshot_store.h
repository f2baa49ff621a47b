// SnapshotRdfStore: lock-free snapshot reads over the RDF store.
//
// A readers-writer lock around the store would serialize every read
// against every write, so a bulk load would stall all readers for its
// whole duration. This store has no reader-side lock at all: the
// (single, internally serialized) writer batches
// mutations against the live RdfStore and, at each publish boundary,
// snapshots the store's read state into an immutable StoreVersion —
// the copy-on-write per-model quad caches, a model-name map and the
// lock-free term dictionary view — and swaps it in behind one atomic
// pointer.
//
// Readers pin an epoch (one CAS on an idle per-reader slot), load the
// current version pointer, and run every lookup — IS_TRIPLE,
// IS_REIFIED, GET_TRIPLE_ID, stats, and full SDO_RDF_MATCH through the
// compiled executor's scan kernel — against that frozen object with
// zero locks and zero per-row atomics. Superseded versions go onto an
// epoch-stamped retire list and are freed once the oldest pinned
// reader has moved past them (rdf/epoch.h has the full memory-ordering
// argument).
//
// Consistency: writers serialize among themselves on writer_mu_; a
// publish happens inside the same critical section as the mutations it
// covers, so a Snapshot() taken after a mutation call returns always
// sees that mutation (read-your-writes), and every snapshot is a
// point-in-time transaction-consistent view (never a partial batch).

#ifndef RDFDB_RDF_SNAPSHOT_STORE_H_
#define RDFDB_RDF_SNAPSHOT_STORE_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdf/epoch.h"
#include "rdf/rdf_store.h"
#include "rdf/store_view.h"
#include "rdf/term_dict.h"

namespace rdfdb::rdf {

class SnapshotRdfStore;

/// One immutable published version of the store's read state. It
/// implements StoreView's hooks over its pinned caches and the term
/// dictionary, so the point reads, statistics and queries it answers
/// are the same StoreView code the live RdfStore runs. All methods are
/// const and touch no locks and no shared mutable state.
class StoreVersion : public StoreView {
 public:
  StoreVersion(const StoreVersion&) = delete;
  StoreVersion& operator=(const StoreVersion&) = delete;

  // ---- StoreView --------------------------------------------------------

  Result<ModelId> GetModelId(const std::string& model_name) const override;
  std::vector<std::string> ModelNames() const override {
    return model_names_;
  }
  std::optional<ValueId> LookupValue(const Term& term) const override;
  std::optional<ValueId> LookupBlank(ModelId model_id,
                                     const std::string& label) const override;
  Result<Term> TermForValueId(ValueId value_id) const override;
  const LinkStore::ModelIdCache* CacheFor(ModelId model_id) const override {
    auto it = caches_.find(model_id);
    return it == caches_.end() ? nullptr : it->second.get();
  }
  obs::StoreMetrics* metrics() const override { return metrics_; }
  obs::SlowQueryLog* slow_query_log() const override {
    return slow_query_log_;
  }
  obs::Timeline* timeline() const override { return timeline_; }

  /// Triples in one model (0 when the model is unknown or empty).
  size_t TripleCount(ModelId model_id) const;

  /// Live triples across all models (tombstoned quads excluded).
  size_t TotalTripleCount() const;

  /// Publish sequence number (1 = the initial empty version).
  uint64_t sequence() const { return seq_; }

 private:
  friend class SnapshotRdfStore;
  StoreVersion() = default;

  std::unordered_map<int64_t, std::shared_ptr<const LinkStore::ModelIdCache>>
      caches_;
  std::unordered_map<std::string, ModelId> models_by_lower_name_;
  std::vector<std::string> model_names_;  ///< sorted, original case
  const TermDict* dict_ = nullptr;        ///< owned by the SnapshotRdfStore
  obs::StoreMetrics* metrics_ = nullptr;
  obs::SlowQueryLog* slow_query_log_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  uint64_t seq_ = 0;
};

/// MVCC-lite store: one internally-serialized writer, lock-free
/// snapshot readers. Safe to call from any thread.
class SnapshotRdfStore {
 public:
  /// Publishes an initial (empty) version so Snapshot() never observes
  /// a null pointer.
  SnapshotRdfStore();

  SnapshotRdfStore(const SnapshotRdfStore&) = delete;
  SnapshotRdfStore& operator=(const SnapshotRdfStore&) = delete;

  /// A pinned snapshot: keeps one published version (and its epoch
  /// slot) alive for the pin's lifetime. Cheap to take; hold only for
  /// the duration of a read, since a long-lived pin delays version
  /// reclamation (visible as rdfdb_oldest_pinned_epoch_lag).
  class ReadPin {
   public:
    ReadPin(ReadPin&&) noexcept = default;
    ReadPin& operator=(ReadPin&&) noexcept = default;
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;

    const StoreVersion& view() const { return *version_; }
    const StoreVersion* operator->() const { return version_; }
    const StoreVersion& operator*() const { return *version_; }

   private:
    friend class SnapshotRdfStore;
    ReadPin(EpochGc::Pin pin, const StoreVersion* version)
        : pin_(std::move(pin)), version_(version) {}
    EpochGc::Pin pin_;
    const StoreVersion* version_;
  };

  /// Pin the current version. Lock-free (one CAS, no mutex, no
  /// reference-count contention).
  ReadPin Snapshot() const {
    // Pin first, then load: the version read here cannot be retired
    // before the pin's epoch, so it stays alive while pinned.
    EpochGc::Pin pin = gc_.Enter();
    const StoreVersion* version = current_.load(std::memory_order_acquire);
    return ReadPin(std::move(pin), version);
  }

  // ---- Mutations (writer lock; each publishes a new version) ------------

  Result<ModelInfo> CreateRdfModel(const std::string& model_name,
                                   const std::string& app_table,
                                   const std::string& app_column,
                                   const std::string& owner = "");
  Status DropRdfModel(const std::string& model_name);
  Result<SdoRdfTripleS> InsertTriple(const std::string& model_name,
                                     const std::string& subject,
                                     const std::string& property,
                                     const std::string& object);
  Status DeleteTriple(const std::string& model_name,
                      const std::string& subject,
                      const std::string& property,
                      const std::string& object);
  Result<SdoRdfTripleS> ReifyTriple(const std::string& model_name,
                                    LinkId rdf_t_id);
  Result<SdoRdfTripleS> AssertAboutTriple(const std::string& model_name,
                                          const std::string& subject,
                                          const std::string& property,
                                          LinkId rdf_t_id);
  Result<SdoRdfTripleS> AssertImplied(const std::string& model_name,
                                      const std::string& reif_sub,
                                      const std::string& reif_prop,
                                      const std::string& subject,
                                      const std::string& property,
                                      const std::string& object);

  /// Run a batch of mutations against the live store under the writer
  /// lock, then publish ONE version covering all of them — the bulk
  /// load path (publishing per-chunk instead of per-triple). `fn` takes
  /// `RdfStore&` and returns void or Status; a publish still happens if
  /// it fails partway, so readers converge on whatever state it left.
  template <typename Fn>
  Status Apply(Fn&& fn) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    Status status = Status::OK();
    if constexpr (std::is_void_v<decltype(fn(std::declval<RdfStore&>()))>) {
      fn(store_);
    } else {
      status = fn(store_);
    }
    Status published = PublishLocked();
    return status.ok() ? published : status;
  }

  // ---- Convenience pinned reads -----------------------------------------
  //
  // One-shot reads that pin, read, and unpin. Loops should take one
  // Snapshot() and issue every probe against it instead.

  Result<bool> IsTriple(const std::string& model_name,
                        const std::string& subject,
                        const std::string& property,
                        const std::string& object) const {
    return Snapshot()->IsTriple(model_name, subject, property, object);
  }
  Result<bool> IsReified(const std::string& model_name,
                         const std::string& subject,
                         const std::string& property,
                         const std::string& object) const {
    return Snapshot()->IsReified(model_name, subject, property, object);
  }
  Result<LinkId> GetTripleId(const std::string& model_name,
                             const std::string& subject,
                             const std::string& property,
                             const std::string& object) const {
    return Snapshot()->GetTripleId(model_name, subject, property, object);
  }
  Result<ModelId> GetModelId(const std::string& model_name) const {
    return Snapshot()->GetModelId(model_name);
  }
  Result<RdfStore::ModelStats> GetModelStats(
      const std::string& model_name,
      const RdfStore::ModelStatsOptions& options = {}) const {
    return Snapshot()->GetModelStats(model_name, options);
  }
  Result<SdoRdfTriple> ResolveTriple(LinkId rdf_t_id) const {
    return Snapshot()->ResolveTriple(rdf_t_id);
  }

  // ---- Observability / introspection ------------------------------------

  obs::MetricsRegistry& metrics_registry() const {
    return store_.metrics_registry();
  }

  /// Attach the always-on facilities under the writer lock; they are
  /// propagated into the next published version (any null detaches).
  void SetObservability(obs::EventLog* event_log,
                        obs::SlowQueryLog* slow_query_log,
                        obs::Timeline* timeline);

  /// Versions published so far (>= 1: the constructor publishes).
  uint64_t PublishedVersions() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return seq_counter_;
  }
  /// Superseded versions still pinned by some reader.
  size_t RetiredOutstanding() const { return gc_.RetiredOutstanding(); }
  uint64_t CurrentEpoch() const { return gc_.CurrentEpoch(); }
  uint64_t OldestPinLag() const { return gc_.OldestPinLag(); }

  /// Estimated exclusive bytes held by retired-but-pinned versions.
  size_t RetiredBytes() const { return gc_.RetiredBytes(); }
  /// Seconds the oldest retired version has been blocked from
  /// reclamation (0 = nothing retained).
  double OldestRetireAgeSeconds() const {
    return gc_.OldestRetireAgeSeconds();
  }

  /// Full footprint: the live store's breakdown plus the term
  /// dictionary and retired-version retention. Takes the writer lock.
  RdfStore::MemoryBreakdown MemoryUsage() const;

  /// MemoryUsage() pushed into the mem_* gauges, plus a refresh of the
  /// epoch gauges and the epoch-stall watchdog check. This is the stats
  /// server's refresh hook target.
  void UpdateMemoryGauges() const;

  /// Seconds a retired version may stay blocked before the watchdog
  /// emits a "epoch_stall" warning event (<= 0 disables; default 5).
  /// Warnings are re-armed only after the stall clears or another
  /// threshold's worth of seconds passes.
  void set_retention_warn_seconds(double seconds) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    retention_warn_seconds_ = seconds;
  }

 private:
  /// Snapshot the live store's read state into a fresh StoreVersion,
  /// swap it in, retire the displaced one, and sweep.
  Status PublishLocked();

  /// Refresh the retention-age gauge; emit the epoch-stall warning
  /// event when the configured threshold is exceeded. Caller holds
  /// writer_mu_.
  void CheckRetentionLocked() const;

  // Declaration order is the destruction contract (reverse): the
  // current version and the retire list die before the dictionary and
  // the live store they point into.
  RdfStore store_;
  TermDict dict_;
  mutable EpochGc gc_;
  std::shared_ptr<const StoreVersion> current_sp_;
  std::atomic<const StoreVersion*> current_{nullptr};
  mutable std::mutex writer_mu_;
  uint64_t seq_counter_ = 0;  ///< under writer_mu_
  double retention_warn_seconds_ = 5.0;            ///< under writer_mu_
  mutable std::chrono::steady_clock::time_point
      last_stall_warn_{};  ///< under writer_mu_
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_SNAPSHOT_STORE_H_
