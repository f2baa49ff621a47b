// Logical redo logging + crash-safe checkpointing for the RDF store.
//
// The storage engine is in-memory with snapshot checkpoints
// (storage/snapshot.h); this module adds the write-ahead piece: an
// append-only, checksummed log of the RDF-level mutations, a replayer
// that reapplies them to a store, and the manifest of the
// generation-numbered checkpoint protocol that ties the two together.
// RdfStore appends a record for each successful constructor, delete and
// model DDL call once a log is attached; SnapshotRdfStore::Open and
// Checkpoint run the protocol. Recovery is
//
//     read manifest -> load snapshot generation G -> replay log
//                      records with seq >= manifest.log_start_seq
//
// Record framing (one '\n'-terminated line per record):
//
//     <seq>\t<crc32c-hex>\t<tag>\t<field>...\n
//
// `seq` is a store-lifetime monotonic sequence number (decimal), `crc`
// is CRC32C over everything after the second tab (the escaped body).
// Tabs/newlines/backslashes inside field values are escaped. Replay
// tolerates exactly one *torn final* record — an integrity failure
// (unparseable seq/crc or CRC mismatch) on the last record truncates
// the log at the last valid boundary and counts/logs the event — but
// fails hard with Corruption on mid-log damage, sequence gaps, or any
// CRC-valid record that is semantically malformed.
//
// Records are logical (API strings, not physical ids): LINK_IDs are
// assigned by sequences and would not be stable across replay, so
// reification operations log the base triple's (s, p, o) instead of
// its rdf_t_id.
//
// All I/O goes through storage::Env so the crash torture harness can
// inject faults at any byte (tests/test_crash_recovery.cc).

#ifndef RDFDB_RDF_REDO_LOG_H_
#define RDFDB_RDF_REDO_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdf/rdf_store.h"
#include "storage/env.h"

namespace rdfdb::rdf {

/// When appended records are pushed to durable storage.
enum class SyncMode {
  kNone,         ///< OS decides (fastest; a crash may lose recent records)
  kBatch,        ///< fdatasync every `batch_sync_every` records
  kEveryRecord,  ///< fdatasync per append: an OK return is durable
};

struct RedoLogOptions {
  SyncMode sync_mode = SyncMode::kEveryRecord;
  /// Filesystem to write through; nullptr = storage::Env::Default().
  storage::Env* env = nullptr;
  /// Sequence number the next appended record carries. Callers recover
  /// it from ReplayStats::last_seq (+1) / the checkpoint manifest.
  uint64_t next_seq = 1;
  /// kBatch: fdatasync after every N appended records.
  size_t batch_sync_every = 64;
};

/// Append-only log writer. After any failed append or sync the log is
/// *poisoned*: the partial tail on disk must not be extended, so every
/// later append fails fast with the original error (which carries the
/// errno text) instead of interleaving records after garbage.
class RedoLog {
 public:
  /// Open (creating or appending to) the log at `path`.
  static Result<std::unique_ptr<RedoLog>> Open(
      const std::string& path, const RedoLogOptions& options = {});

  ~RedoLog() = default;
  RedoLog(const RedoLog&) = delete;
  RedoLog& operator=(const RedoLog&) = delete;

  Status LogCreateModel(const std::string& model, const std::string& table,
                        const std::string& column, const std::string& owner);
  Status LogDropModel(const std::string& model);
  Status LogInsert(const std::string& model, const std::string& s,
                   const std::string& p, const std::string& o);
  Status LogDelete(const std::string& model, const std::string& s,
                   const std::string& p, const std::string& o);
  /// Reification of the triple identified by (s, p, o).
  Status LogReify(const std::string& model, const std::string& s,
                  const std::string& p, const std::string& o);
  /// Assertion <as, ap, DBUri(base)> about the base triple (s, p, o);
  /// `implied` distinguishes the six-argument constructor.
  Status LogAssert(const std::string& model, const std::string& as,
                   const std::string& ap, const std::string& s,
                   const std::string& p, const std::string& o,
                   bool implied);

  /// Force buffered records durable (kBatch callers; no-op work-wise
  /// for kEveryRecord).
  Status Sync();

  /// Truncate the log (after a successful checkpoint). The sequence
  /// counter keeps running — seq is monotonic for the store lifetime.
  Status Truncate();

  const std::string& path() const { return path_; }
  /// Sequence number the next append will carry.
  uint64_t next_seq() const { return next_seq_; }
  /// Non-OK once the log is poisoned by a failed append/sync.
  const Status& poisoned() const { return poisoned_; }

 private:
  RedoLog(std::string path, std::unique_ptr<storage::WritableFile> file,
          const RedoLogOptions& options)
      : path_(std::move(path)),
        file_(std::move(file)),
        env_(options.env != nullptr ? options.env
                                    : storage::Env::Default()),
        sync_mode_(options.sync_mode),
        batch_sync_every_(options.batch_sync_every),
        next_seq_(options.next_seq) {}

  Status Append(const std::vector<std::string>& fields);

  std::string path_;
  std::unique_ptr<storage::WritableFile> file_;
  storage::Env* env_;
  SyncMode sync_mode_;
  size_t batch_sync_every_;
  uint64_t next_seq_;
  size_t unsynced_records_ = 0;
  Status poisoned_;  // non-OK => log is dead
};

struct ReplayOptions {
  /// Records with seq < min_seq are already covered by the snapshot the
  /// caller loaded (the manifest's log_start_seq); they are skipped,
  /// not reapplied.
  uint64_t min_seq = 1;
  /// Filesystem; nullptr = storage::Env::Default().
  storage::Env* env = nullptr;
  /// When false, a torn final record is reported in the stats but the
  /// file is left untouched (rdfdb_fsck's read-only verification).
  bool truncate_torn_tail = true;
};

/// Replay outcome. Also emitted into the store's metrics registry
/// (rdfdb_replay_records_total / rdfdb_replay_ns / torn-tail and
/// stale-skip counters) by ReplayRedoLog.
struct ReplayStats {
  size_t records = 0;  ///< applied records (excludes stale-skipped)
  size_t models_created = 0;
  size_t models_dropped = 0;
  size_t inserts = 0;
  size_t deletes = 0;
  size_t reifications = 0;
  size_t assertions = 0;
  int64_t replay_ns = 0;  ///< wall time of the whole replay

  uint64_t first_seq = 0;  ///< seq of the first record in the file (0 = empty)
  uint64_t last_seq = 0;   ///< seq of the last intact record (0 = empty)
  size_t stale_skipped = 0;   ///< records below min_seq (pre-checkpoint)
  bool torn_tail = false;     ///< a torn final record was dropped
  uint64_t torn_offset = 0;   ///< byte offset the log was truncated at

  /// One-line human-readable rendering.
  std::string ToString() const;
};

/// Re-apply every record in `path` with seq >= opts.min_seq to
/// `store`. Fails with Corruption (annotated with byte offsets) on
/// mid-log damage, seq gaps, or malformed CRC-valid records;
/// individual operations that fail (e.g. delete of a vanished triple)
/// fail the replay too — the log is authoritative. A missing file is
/// an empty log.
Result<ReplayStats> ReplayRedoLog(const std::string& path, RdfStore* store,
                                  const ReplayOptions& opts = {});

/// Integrity-check the log without applying anything (rdfdb_fsck):
/// verifies per-record CRCs and seq continuity, reports a torn tail,
/// never writes. `store` semantics (whether an op would apply) are NOT
/// checked.
Result<ReplayStats> VerifyRedoLog(const std::string& path,
                                  const ReplayOptions& opts = {});

/// The checkpoint manifest: a tiny text file naming the authoritative
/// snapshot generation and the first log seq not covered by it. It is
/// the recovery root — swapped by atomic rename, guarded by CRC32C.
struct CheckpointManifest {
  uint64_t generation = 0;
  std::string snapshot_file;  ///< basename, relative to the manifest dir
  uint64_t log_start_seq = 1;
};

Result<CheckpointManifest> ReadManifest(const std::string& path,
                                        storage::Env* env = nullptr);
Status WriteManifest(const std::string& path, const CheckpointManifest& m,
                     storage::Env* env = nullptr);

/// Options of a logged SnapshotRdfStore (SnapshotRdfStore::Open).
struct LoggedStoreOptions {
  SyncMode sync_mode = SyncMode::kEveryRecord;
  /// Filesystem everything (snapshots, log, manifest) goes through;
  /// nullptr = storage::Env::Default().
  storage::Env* env = nullptr;
  /// Attached to the store before recovery runs, so replay's events
  /// (replay/torn_tail, replay/done) are written; null = none.
  obs::EventLog* event_log = nullptr;
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_REDO_LOG_H_
