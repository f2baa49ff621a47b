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
//
// Durability: a store from Open() has a redo log. Every write takes the
// writer lock, mutates the live store (which logs each call that
// applied), publishes one version and returns; a batch that wrote
// around the log is covered by a checkpoint before Apply returns.

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
#include "rdf/redo_log.h"
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
  std::optional<ValueId> LookupValue(const Term& term) const override;
  std::optional<ValueId> LookupBlank(ModelId model_id,
                                     const std::string& label) const override;
  Result<Term> TermForValueId(ValueId value_id) const override;
  Status AppendNTriples(ValueId value_id, std::string* out) const override;
  const LinkStore::ModelIdCache* CacheFor(ModelId model_id) const override {
    auto it = caches_.find(model_id);
    return it == caches_.end() ? nullptr : it->second.get();
  }
  const LinkStore::IdQuad* FindLink(LinkId rdf_t_id) const override {
    return LinkStore::FindLinkIn(caches_, rdf_t_id);
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

  /// The term dictionary this version reads (shared by every version
  /// of the store, which outlives them all).
  const TermDict& dict() const { return *dict_; }

  /// Publish sequence number (1 = the initial empty version).
  uint64_t sequence() const { return seq_; }

 private:
  friend class SnapshotRdfStore;
  StoreVersion() = default;

  std::unordered_map<int64_t, std::shared_ptr<const LinkStore::ModelIdCache>>
      caches_;
  std::unordered_map<std::string, ModelId> models_by_lower_name_;
  const TermDict* dict_ = nullptr;        ///< owned by the SnapshotRdfStore
  obs::StoreMetrics* metrics_ = nullptr;
  obs::SlowQueryLog* slow_query_log_ = nullptr;
  obs::Timeline* timeline_ = nullptr;
  uint64_t seq_ = 0;
};

/// MVCC-lite store: one internally-serialized writer, lock-free
/// snapshot readers, and (when opened on files) a redo log with
/// crash-safe checkpoints. Safe to call from any thread.
class SnapshotRdfStore {
 public:
  /// A log-free in-memory store. Publishes an initial (empty) version
  /// so Snapshot() never observes a null pointer.
  SnapshotRdfStore() : SnapshotRdfStore(std::make_unique<RdfStore>()) {}

  /// Open the logged store rooted at `snapshot_path`: read
  /// `<snapshot_path>.manifest` if present (else fall back to a bare
  /// snapshot file at `snapshot_path`, else start empty), replay
  /// `log_path` on top, and append every later write to it.
  static Result<std::unique_ptr<SnapshotRdfStore>> Open(
      const std::string& snapshot_path, const std::string& log_path,
      const LoggedStoreOptions& options = {});

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

  // ---- Mutations --------------------------------------------------------
  //
  // Each is the RdfStore call of the same name and arguments, run as a
  // one-call write batch through Apply: writer lock, mutate, log,
  // publish.

  template <typename... Args>
  Result<ModelInfo> CreateRdfModel(const Args&... args) {
    return Apply([&](RdfStore& live) { return live.CreateRdfModel(args...); });
  }
  template <typename... Args>
  Status DropRdfModel(const Args&... args) {
    return Apply([&](RdfStore& live) { return live.DropRdfModel(args...); });
  }
  template <typename... Args>
  Result<SdoRdfTripleS> InsertTriple(const Args&... args) {
    return Apply([&](RdfStore& live) { return live.InsertTriple(args...); });
  }
  template <typename... Args>
  Status DeleteTriple(const Args&... args) {
    return Apply([&](RdfStore& live) { return live.DeleteTriple(args...); });
  }
  template <typename... Args>
  Result<SdoRdfTripleS> ReifyTriple(const Args&... args) {
    return Apply([&](RdfStore& live) { return live.ReifyTriple(args...); });
  }
  template <typename... Args>
  Result<SdoRdfTripleS> AssertAboutTriple(const Args&... args) {
    return Apply(
        [&](RdfStore& live) { return live.AssertAboutTriple(args...); });
  }
  template <typename... Args>
  Result<SdoRdfTripleS> AssertImplied(const Args&... args) {
    return Apply([&](RdfStore& live) { return live.AssertImplied(args...); });
  }

  /// Run `fn` against the live store under the writer lock.
  ///
  /// A `fn` that takes `const RdfStore&` is a read: it neither logs nor
  /// publishes, and Apply returns what it returns.
  ///
  /// A `fn` that takes `RdfStore&` is a write batch returning void,
  /// Status or Result<T>. Its constructor calls log themselves; if it
  /// wrote around them (RdfStore::MarkUnloggedWrite, e.g. a bulk load),
  /// a logged store checkpoints. Then ONE version covering the whole
  /// batch is published — also when `fn` failed partway, so readers
  /// converge on whatever state it left. Apply returns `fn`'s result,
  /// or the checkpoint/publish error when `fn` succeeded.
  /// If an earlier batch's checkpoint failed, a write batch retries it
  /// first and fails without running `fn` if it fails again.
  template <typename Fn>
  auto Apply(Fn&& fn) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if constexpr (std::is_invocable_v<Fn&, const RdfStore&>) {
      return fn(std::as_const(*store_));
    } else if constexpr (std::is_void_v<std::invoke_result_t<Fn&, RdfStore&>>) {
      Status covered = CoverLocked();
      if (covered.ok()) fn(*store_);
      return covered.ok() ? CommitLocked() : covered;
    } else {
      Status covered = CoverLocked();
      if (!covered.ok()) return decltype(fn(*store_))(covered);
      auto result = fn(*store_);
      Status committed = CommitLocked();
      if (result.ok() && !committed.ok()) return decltype(result)(committed);
      return result;
    }
  }

  /// Under the writer lock, write generation G+1 (atomic), swap the
  /// manifest to it with log_start_seq = the next unused seq, then
  /// truncate the log and delete generation G. A crash at any point
  /// recovers from G + the full log, or G+1 + the log filtered by seq
  /// (DESIGN.md §11). NotSupported on a log-free store.
  Status Checkpoint() {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return CheckpointLocked();
  }

  /// Current snapshot generation (0 = none yet).
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return generation_;
  }
  /// Stats from the replay that Open performed.
  const ReplayStats& recovery_stats() const { return recovery_stats_; }

  /// Snapshot file name for generation `gen` of the store rooted at
  /// `snapshot_path` ("<snapshot_path>.g<gen>").
  static std::string GenerationFileName(const std::string& snapshot_path,
                                        uint64_t gen) {
    return snapshot_path + ".g" + std::to_string(gen);
  }
  /// Manifest path for the store rooted at `snapshot_path`.
  static std::string ManifestPath(const std::string& snapshot_path) {
    return snapshot_path + ".manifest";
  }

  // ---- Observability / introspection ------------------------------------

  obs::MetricsRegistry& metrics_registry() const {
    return store_->metrics_registry();
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
  explicit SnapshotRdfStore(std::unique_ptr<RdfStore> store);

  /// Checkpoint a logged store that holds unlogged writes, if any.
  Status CoverLocked();
  /// The end of every write batch: CoverLocked, then publish.
  Status CommitLocked();

  Status CheckpointLocked();

  /// Snapshot the live store's read state into a fresh StoreVersion,
  /// swap it in, retire the displaced one, and sweep.
  Status PublishLocked();

  /// Refresh the retention-age gauge; emit the epoch-stall warning
  /// event when the configured threshold is exceeded. Caller holds
  /// writer_mu_.
  void CheckRetentionLocked() const;

  // Declaration order is the destruction contract (reverse): the
  // current version and the retire list die before the dictionary and
  // the live store they point into, and the store before its log.
  std::unique_ptr<RedoLog> log_;  ///< null = log-free
  std::unique_ptr<RdfStore> store_;
  TermDict dict_;
  mutable EpochGc gc_;
  std::shared_ptr<const StoreVersion> current_sp_;
  std::atomic<const StoreVersion*> current_{nullptr};
  mutable std::mutex writer_mu_;
  uint64_t seq_counter_ = 0;  ///< under writer_mu_
  double retention_warn_seconds_ = 5.0;            ///< under writer_mu_
  mutable std::chrono::steady_clock::time_point
      last_stall_warn_{};  ///< under writer_mu_
  // Checkpoint state of a logged store (under writer_mu_).
  std::string snapshot_path_;
  storage::Env* env_ = nullptr;
  uint64_t generation_ = 0;
  ReplayStats recovery_stats_;
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_SNAPSHOT_STORE_H_
