#include "rdf/redo_log.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string_view>

#include "common/crc32c.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/active_ops.h"
#include "obs/store_metrics.h"
#include "storage/snapshot.h"

namespace rdfdb::rdf {

namespace {

// Record tags.
constexpr const char* kTagCreateModel = "C";
constexpr const char* kTagDropModel = "X";
constexpr const char* kTagInsert = "I";
constexpr const char* kTagDelete = "D";
constexpr const char* kTagReify = "R";
constexpr const char* kTagAssert = "A";         // about an existing triple
constexpr const char* kTagAssertImplied = "M";  // six-arg constructor

std::string EscapeField(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeField(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (size_t i = 0; i < value.size(); ++i) {
    if (value[i] != '\\' || i + 1 >= value.size()) {
      out.push_back(value[i]);
      continue;
    }
    ++i;
    switch (value[i]) {
      case 't':
        out.push_back('\t');
        break;
      case 'n':
        out.push_back('\n');
        break;
      default:
        out.push_back(value[i]);
    }
  }
  return out;
}

std::string CrcHex(uint32_t crc) {
  char buf[9];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

bool ParseU64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

bool ParseCrcHex(std::string_view s, uint32_t* out) {
  if (s.size() != 8) return false;
  uint32_t v = 0;
  for (char c : s) {
    uint32_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = 10u + static_cast<uint32_t>(c - 'a');
    else return false;
    v = (v << 4) | digit;
  }
  *out = v;
  return true;
}

storage::Env* OrDefault(storage::Env* env) {
  return env != nullptr ? env : storage::Env::Default();
}

/// One framing-intact record: seq verified monotonic by ScanLog, CRC
/// verified, body still escaped.
struct RawRecord {
  uint64_t seq = 0;
  std::string_view body;  ///< escaped tag + fields
  size_t offset = 0;      ///< byte offset of the record's first byte
};

struct ScanOutcome {
  uint64_t first_seq = 0;
  uint64_t last_seq = 0;
  size_t intact_records = 0;
  bool torn_tail = false;
  uint64_t torn_offset = 0;
};

/// Walk every line of `data`, verifying framing (seq, CRC32C, strict
/// seq continuity). Intact records are handed to `cb` in order; a cb
/// error aborts the scan. An integrity failure on the *final* record
/// is reported as a torn tail; anywhere else it is Corruption with the
/// byte offset.
Result<ScanOutcome> ScanLog(
    const std::string& data,
    const std::function<Status(const RawRecord&)>& cb) {
  // Collect (offset, line) pairs, skipping blank lines, so "final
  // record" is well-defined even with a missing trailing newline.
  std::vector<std::pair<size_t, std::string_view>> lines;
  size_t pos = 0;
  while (pos < data.size()) {
    size_t nl = data.find('\n', pos);
    size_t end = (nl == std::string::npos) ? data.size() : nl;
    if (end > pos) lines.emplace_back(pos, std::string_view(data).substr(pos, end - pos));
    pos = (nl == std::string::npos) ? data.size() : nl + 1;
  }

  ScanOutcome out;
  for (size_t i = 0; i < lines.size(); ++i) {
    const auto& [offset, line] = lines[i];
    const bool is_final = (i + 1 == lines.size());

    auto torn_or_corrupt = [&](const std::string& why) -> Result<ScanOutcome> {
      if (is_final) {
        out.torn_tail = true;
        out.torn_offset = offset;
        return out;
      }
      return Status::Corruption("redo log record at byte offset " +
                                std::to_string(offset) + ": " + why);
    };

    size_t tab1 = line.find('\t');
    size_t tab2 =
        (tab1 == std::string_view::npos) ? std::string_view::npos
                                         : line.find('\t', tab1 + 1);
    if (tab2 == std::string_view::npos) {
      return torn_or_corrupt("missing seq/crc framing");
    }
    uint64_t seq;
    if (!ParseU64(line.substr(0, tab1), &seq)) {
      return torn_or_corrupt("unparseable seq field");
    }
    uint32_t stored_crc;
    if (!ParseCrcHex(line.substr(tab1 + 1, tab2 - tab1 - 1), &stored_crc)) {
      return torn_or_corrupt("unparseable crc field");
    }
    std::string_view body = line.substr(tab2 + 1);
    uint32_t actual_crc = Crc32c(body);
    if (actual_crc != stored_crc) {
      return torn_or_corrupt("CRC32C mismatch (stored " +
                             CrcHex(stored_crc) + ", computed " +
                             CrcHex(actual_crc) + ")");
    }
    // Integrity established: seq gaps beyond this point are hard
    // corruption even on the final record (the bytes are intact, so a
    // gap means lost records, not a torn write).
    if (out.intact_records == 0) {
      out.first_seq = seq;
    } else if (seq != out.last_seq + 1) {
      return Status::Corruption(
          "redo log record at byte offset " + std::to_string(offset) +
          ": seq gap (" + std::to_string(out.last_seq) + " -> " +
          std::to_string(seq) + ")");
    }
    out.last_seq = seq;
    ++out.intact_records;
    RDFDB_RETURN_NOT_OK(cb(RawRecord{seq, body, offset}));
  }
  return out;
}

/// Shared by replay and verify: scan `path` through `opts.env`,
/// applying `apply` to every intact record with seq >= opts.min_seq;
/// fills the framing-level fields of `stats`. `enforce_start_seq` is
/// the recovery-only check that the log begins at or before
/// opts.min_seq (records missing otherwise); standalone verification
/// has no manifest context, so fsck turns it off.
Status ScanLogFile(const std::string& path, const ReplayOptions& opts,
                   bool enforce_start_seq, ReplayStats* stats,
                   const std::function<Status(const RawRecord&)>& apply) {
  storage::Env* env = OrDefault(opts.env);
  if (!env->FileExists(path)) return Status::OK();  // fresh database
  RDFDB_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));

  auto scanned = ScanLog(data, [&](const RawRecord& rec) -> Status {
    if (rec.seq < opts.min_seq) {
      ++stats->stale_skipped;
      return Status::OK();
    }
    return apply(rec);
  });
  if (!scanned.ok()) return scanned.status();

  stats->first_seq = scanned->first_seq;
  stats->last_seq = scanned->last_seq;
  stats->torn_tail = scanned->torn_tail;
  stats->torn_offset = scanned->torn_offset;

  if (enforce_start_seq && scanned->intact_records > 0 &&
      scanned->first_seq > opts.min_seq) {
    return Status::Corruption(
        "redo log " + path + " starts at seq " +
        std::to_string(scanned->first_seq) + " but the manifest covers " +
        "only up to seq " + std::to_string(opts.min_seq) +
        ": records are missing");
  }

  if (scanned->torn_tail && opts.truncate_torn_tail) {
    RDFDB_RETURN_NOT_OK(
        env->TruncateFile(path, scanned->torn_offset));
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<RedoLog>> RedoLog::Open(
    const std::string& path, const RedoLogOptions& options) {
  storage::Env* env = OrDefault(options.env);
  auto file = env->NewWritableFile(path, /*truncate=*/false);
  if (!file.ok()) {
    return Status::IOError("cannot open redo log " + path + ": " +
                           file.status().message());
  }
  RedoLogOptions resolved = options;
  resolved.env = env;
  return std::unique_ptr<RedoLog>(
      new RedoLog(path, std::move(*file), resolved));
}

Status RedoLog::Append(const std::vector<std::string>& fields) {
  if (!poisoned_.ok()) return poisoned_;
  std::string body;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) body.push_back('\t');
    body += EscapeField(fields[i]);
  }
  std::string line = std::to_string(next_seq_);
  line.push_back('\t');
  line += CrcHex(Crc32c(body));
  line.push_back('\t');
  line += body;
  line.push_back('\n');

  auto poison = [this](const char* stage, const Status& cause) {
    poisoned_ = Status::IOError("redo log poisoned by failed " +
                                std::string(stage) + ": " +
                                cause.message());
    return poisoned_;
  };

  Status appended = file_->Append(line);
  if (!appended.ok()) return poison("append", appended);
  Status flushed = file_->Flush();
  if (!flushed.ok()) return poison("flush", flushed);
  ++unsynced_records_;
  if (sync_mode_ == SyncMode::kEveryRecord ||
      (sync_mode_ == SyncMode::kBatch &&
       unsynced_records_ >= batch_sync_every_)) {
    Status synced = file_->Sync();
    if (!synced.ok()) return poison("sync", synced);
    unsynced_records_ = 0;
  }
  ++next_seq_;
  return Status::OK();
}

Status RedoLog::Sync() {
  if (!poisoned_.ok()) return poisoned_;
  if (unsynced_records_ == 0) return Status::OK();
  RDFDB_RETURN_NOT_OK(file_->Flush());
  Status synced = file_->Sync();
  if (!synced.ok()) {
    poisoned_ = Status::IOError("redo log poisoned by failed sync: " +
                                synced.message());
    return poisoned_;
  }
  unsynced_records_ = 0;
  return Status::OK();
}

Status RedoLog::LogCreateModel(const std::string& model,
                               const std::string& table,
                               const std::string& column,
                               const std::string& owner) {
  return Append({kTagCreateModel, model, table, column, owner});
}

Status RedoLog::LogDropModel(const std::string& model) {
  return Append({kTagDropModel, model});
}

Status RedoLog::LogInsert(const std::string& model, const std::string& s,
                          const std::string& p, const std::string& o) {
  return Append({kTagInsert, model, s, p, o});
}

Status RedoLog::LogDelete(const std::string& model, const std::string& s,
                          const std::string& p, const std::string& o) {
  return Append({kTagDelete, model, s, p, o});
}

Status RedoLog::LogReify(const std::string& model, const std::string& s,
                         const std::string& p, const std::string& o) {
  return Append({kTagReify, model, s, p, o});
}

Status RedoLog::LogAssert(const std::string& model, const std::string& as,
                          const std::string& ap, const std::string& s,
                          const std::string& p, const std::string& o,
                          bool implied) {
  return Append({implied ? kTagAssertImplied : kTagAssert, model, as, ap,
                 s, p, o});
}

Status RedoLog::Truncate() {
  if (!poisoned_.ok()) return poisoned_;
  Status closed = file_->Close();
  if (!closed.ok()) {
    poisoned_ = closed;
    return poisoned_;
  }
  auto reopened = env_->NewWritableFile(path_, /*truncate=*/true);
  if (!reopened.ok()) {
    poisoned_ = Status::IOError("redo log truncate failed: " +
                                reopened.status().message());
    return poisoned_;
  }
  file_ = std::move(*reopened);
  unsynced_records_ = 0;
  return file_->Sync();
}

std::string ReplayStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "replay: %zu record(s) — %zu model(s) created, %zu dropped, "
                "%zu insert(s), %zu delete(s), %zu reification(s), "
                "%zu assertion(s), %zu stale skipped%s in %.1fms",
                records, models_created, models_dropped, inserts, deletes,
                reifications, assertions, stale_skipped,
                torn_tail ? ", torn tail dropped" : "",
                static_cast<double>(replay_ns) / 1e6);
  return buf;
}

Result<ReplayStats> ReplayRedoLog(const std::string& path, RdfStore* store,
                                  const ReplayOptions& opts) {
  Timer replay_timer;
  obs::TimelineScope replay_span(store->timeline(), "redo_replay", "replay",
                                 /*lane=*/0, path);
  obs::ActiveOpGuard active_op(obs::OpKind::kReplay, path);
  ReplayStats stats;

  auto apply = [&](const RawRecord& rec) -> Status {
    std::vector<std::string> fields;
    for (std::string& field : Split(std::string(rec.body), '\t')) {
      fields.push_back(UnescapeField(field));
    }
    auto bad = [&](const std::string& why) {
      return Status::Corruption(
          "redo log record seq " + std::to_string(rec.seq) +
          " (byte offset " + std::to_string(rec.offset) + "): " + why);
    };
    const std::string& tag = fields[0];
    ++stats.records;
    if (tag == kTagCreateModel) {
      if (fields.size() != 5) return bad("C needs 4 fields");
      RDFDB_ASSIGN_OR_RETURN(ModelInfo info,
                             store->CreateRdfModel(fields[1], fields[2],
                                                   fields[3], fields[4]));
      (void)info;
      ++stats.models_created;
    } else if (tag == kTagDropModel) {
      if (fields.size() != 2) return bad("X needs 1 field");
      RDFDB_RETURN_NOT_OK(store->DropRdfModel(fields[1]));
      ++stats.models_dropped;
    } else if (tag == kTagInsert) {
      if (fields.size() != 5) return bad("I needs 4 fields");
      RDFDB_ASSIGN_OR_RETURN(
          SdoRdfTripleS triple,
          store->InsertTriple(fields[1], fields[2], fields[3], fields[4]));
      (void)triple;
      ++stats.inserts;
    } else if (tag == kTagDelete) {
      if (fields.size() != 5) return bad("D needs 4 fields");
      RDFDB_RETURN_NOT_OK(
          store->DeleteTriple(fields[1], fields[2], fields[3], fields[4]));
      ++stats.deletes;
    } else if (tag == kTagReify) {
      if (fields.size() != 5) return bad("R needs 4 fields");
      RDFDB_ASSIGN_OR_RETURN(
          LinkId base,
          store->GetTripleId(fields[1], fields[2], fields[3], fields[4]));
      RDFDB_ASSIGN_OR_RETURN(SdoRdfTripleS reif,
                             store->ReifyTriple(fields[1], base));
      (void)reif;
      ++stats.reifications;
    } else if (tag == kTagAssert) {
      if (fields.size() != 7) return bad("A needs 6 fields");
      RDFDB_ASSIGN_OR_RETURN(
          LinkId base,
          store->GetTripleId(fields[1], fields[4], fields[5], fields[6]));
      RDFDB_ASSIGN_OR_RETURN(
          SdoRdfTripleS assertion,
          store->AssertAboutTriple(fields[1], fields[2], fields[3], base));
      (void)assertion;
      ++stats.assertions;
    } else if (tag == kTagAssertImplied) {
      if (fields.size() != 7) return bad("M needs 6 fields");
      RDFDB_ASSIGN_OR_RETURN(
          SdoRdfTripleS assertion,
          store->AssertImplied(fields[1], fields[2], fields[3], fields[4],
                               fields[5], fields[6]));
      (void)assertion;
      ++stats.assertions;
    } else {
      return bad("unknown record tag '" + tag + "'");
    }
    return Status::OK();
  };

  RDFDB_RETURN_NOT_OK(
      ScanLogFile(path, opts, /*enforce_start_seq=*/true, &stats, apply));

  stats.replay_ns = replay_timer.ElapsedNanos();
  store->metrics()->replay_records->Inc(stats.records);
  store->metrics()->replay_ns->Observe(
      static_cast<uint64_t>(stats.replay_ns));
  if (stats.torn_tail) store->metrics()->replay_torn_tails->Inc();
  if (stats.stale_skipped > 0) {
    store->metrics()->replay_stale_skipped->Inc(stats.stale_skipped);
  }
  if (obs::EventLog* elog = store->event_log()) {
    if (stats.torn_tail) {
      elog->Append(
          "replay", "torn_tail",
          {obs::EventField::Str("path", path),
           obs::EventField::Num("truncated_at",
                                static_cast<int64_t>(stats.torn_offset)),
           obs::EventField::Num("last_seq",
                                static_cast<int64_t>(stats.last_seq))});
    }
    elog->Append(
        "replay", "done",
        {obs::EventField::Str("path", path),
         obs::EventField::Num("records",
                              static_cast<int64_t>(stats.records)),
         obs::EventField::Num("inserts",
                              static_cast<int64_t>(stats.inserts)),
         obs::EventField::Num("stale_skipped",
                              static_cast<int64_t>(stats.stale_skipped)),
         obs::EventField::Num("elapsed_us", stats.replay_ns / 1000)});
  }
  return stats;
}

Result<ReplayStats> VerifyRedoLog(const std::string& path,
                                  const ReplayOptions& opts) {
  ReplayStats stats;
  ReplayOptions read_only = opts;
  read_only.truncate_torn_tail = false;
  // No manifest context here: a log legitimately truncated by a past
  // checkpoint starts at seq > 1, which is not damage. Callers compare
  // stats.first_seq against their manifest themselves (rdfdb_fsck).
  RDFDB_RETURN_NOT_OK(ScanLogFile(path, read_only,
                                  /*enforce_start_seq=*/false, &stats,
                                  [&](const RawRecord&) {
                                    ++stats.records;
                                    return Status::OK();
                                  }));
  return stats;
}

// --- Checkpoint manifest ------------------------------------------------

namespace {

constexpr const char* kManifestHeader = "RDFDB-MANIFEST v1";

std::string EncodeManifestBody(const CheckpointManifest& m) {
  std::string body;
  body += kManifestHeader;
  body += '\n';
  body += "gen " + std::to_string(m.generation) + '\n';
  body += "snapshot " + m.snapshot_file + '\n';
  body += "log_start_seq " + std::to_string(m.log_start_seq) + '\n';
  return body;
}

}  // namespace

Status WriteManifest(const std::string& path, const CheckpointManifest& m,
                     storage::Env* env) {
  env = OrDefault(env);
  std::string body = EncodeManifestBody(m);
  body += "crc " + CrcHex(Crc32c(body)) + '\n';
  const std::string tmp = path + ".tmp";
  RDFDB_ASSIGN_OR_RETURN(std::unique_ptr<storage::WritableFile> file,
                         env->NewWritableFile(tmp, /*truncate=*/true));
  RDFDB_RETURN_NOT_OK(file->Append(body));
  RDFDB_RETURN_NOT_OK(file->Sync());
  RDFDB_RETURN_NOT_OK(file->Close());
  RDFDB_RETURN_NOT_OK(env->RenameFile(tmp, path));
  return env->SyncDir(storage::DirName(path));
}

Result<CheckpointManifest> ReadManifest(const std::string& path,
                                        storage::Env* env) {
  env = OrDefault(env);
  RDFDB_ASSIGN_OR_RETURN(std::string data, env->ReadFileToString(path));
  auto bad = [&](const std::string& why) {
    return Status::Corruption("manifest " + path + ": " + why);
  };
  // The crc line is the last one; everything before it is checksummed.
  size_t crc_pos = data.rfind("crc ");
  if (crc_pos == std::string::npos || crc_pos == 0 ||
      data[crc_pos - 1] != '\n') {
    return bad("missing crc line");
  }
  std::string body = data.substr(0, crc_pos);
  uint32_t stored_crc;
  std::string crc_line = data.substr(crc_pos + 4);
  while (!crc_line.empty() &&
         (crc_line.back() == '\n' || crc_line.back() == '\r')) {
    crc_line.pop_back();
  }
  if (!ParseCrcHex(crc_line, &stored_crc)) return bad("unparseable crc");
  if (Crc32c(body) != stored_crc) {
    return bad("CRC32C mismatch (stored " + CrcHex(stored_crc) +
               ", computed " + CrcHex(Crc32c(body)) + ")");
  }

  std::istringstream in(body);
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return bad("bad header");
  }
  CheckpointManifest m;
  bool have_gen = false, have_snap = false, have_seq = false;
  while (std::getline(in, line)) {
    if (line.rfind("gen ", 0) == 0) {
      if (!ParseU64(std::string_view(line).substr(4), &m.generation)) {
        return bad("unparseable gen");
      }
      have_gen = true;
    } else if (line.rfind("snapshot ", 0) == 0) {
      m.snapshot_file = line.substr(9);
      have_snap = true;
    } else if (line.rfind("log_start_seq ", 0) == 0) {
      if (!ParseU64(std::string_view(line).substr(14), &m.log_start_seq)) {
        return bad("unparseable log_start_seq");
      }
      have_seq = true;
    } else {
      return bad("unknown manifest line '" + line + "'");
    }
  }
  if (!have_gen || !have_snap || !have_seq) {
    return bad("missing required field");
  }
  if (m.snapshot_file.find('/') != std::string::npos) {
    return bad("snapshot entry must be a bare file name");
  }
  return m;
}

}  // namespace rdfdb::rdf
