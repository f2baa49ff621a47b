// Randomized crash-recovery torture harness (the tentpole's acceptance
// test): run a scripted workload through a FaultInjectingEnv, crash at
// hundreds of distinct byte offsets and operation indices, reopen the
// store from the surviving files with a clean Env, and verify that the
// recovered triple set is exactly the reference state after some
// prefix of the workload — and, at SyncMode::kEveryRecord, that no
// acknowledged mutation was lost even when everything unsynced is
// dropped at the crash.
//
// The seed is overridable: RDFDB_TORTURE_SEED=12345 ./test_crash_recovery

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "rdf/snapshot_store.h"
#include "storage/env.h"
#include "test_temp_dir.h"

namespace rdfdb::rdf {
namespace {

uint64_t TortureSeed() {
  if (const char* s = std::getenv("RDFDB_TORTURE_SEED")) {
    return static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
  }
  return 20260806;
}

// --- scripted workload --------------------------------------------------

struct Op {
  enum Kind {
    kCreateModel,
    kDropModel,
    kInsert,
    kDelete,
    kReify,
    kAssertAbout,
    kAssertImplied,
    kCheckpoint,
  };
  Kind kind;
  std::string model, a, b, s, p, o;
};

/// Deterministic workload: two models, mixed mutations, one model
/// drop/recreate, two checkpoints. Ops reference a small closed vocab
/// so deletes/reifications usually hit existing triples.
std::vector<Op> MakeWorkload(uint64_t seed, size_t n_ops) {
  Random rng(seed);
  std::vector<std::string> models = {"alpha", "beta"};
  auto subj = [&] { return "ex:s" + std::to_string(rng.Uniform(8)); };
  auto prop = [&] { return "ex:p" + std::to_string(rng.Uniform(4)); };
  auto obj = [&] {
    if (rng.Uniform(4) == 0) {
      return "\"v" + std::to_string(rng.Uniform(16)) + "\"";
    }
    return "ex:o" + std::to_string(rng.Uniform(10));
  };

  std::vector<Op> ops;
  ops.push_back({Op::kCreateModel, models[0], "t0", "c0", "", "", ""});
  ops.push_back({Op::kCreateModel, models[1], "t1", "c1", "", "", ""});
  while (ops.size() < n_ops) {
    const std::string model = models[rng.Uniform(2)];
    uint32_t dice = rng.Uniform(100);
    if (ops.size() == n_ops / 3 || ops.size() == (2 * n_ops) / 3) {
      ops.push_back({Op::kCheckpoint, "", "", "", "", "", ""});
    } else if (ops.size() == n_ops / 2) {
      // Drop and recreate the second model mid-stream.
      ops.push_back({Op::kDropModel, models[1], "", "", "", "", ""});
      ops.push_back({Op::kCreateModel, models[1], "t1", "c1", "", "", ""});
    } else if (dice < 55) {
      ops.push_back({Op::kInsert, model, "", "", subj(), prop(), obj()});
    } else if (dice < 70) {
      ops.push_back({Op::kDelete, model, "", "", subj(), prop(), obj()});
    } else if (dice < 82) {
      ops.push_back({Op::kReify, model, "", "", subj(), prop(), obj()});
    } else if (dice < 92) {
      ops.push_back({Op::kAssertAbout, model, "ex:agent", "ex:said",
                     subj(), prop(), obj()});
    } else {
      ops.push_back({Op::kAssertImplied, model, "ex:agent", "ex:claims",
                     subj(), prop(), obj()});
    }
  }
  return ops;
}

/// Apply one op through the logged store. Semantic failures (delete of
/// a missing triple, reify of a missing triple) are expected — only
/// successful ops reach the log. Checkpoint failure under an armed
/// fault is a crash like any other.
Status ApplyLogged(SnapshotRdfStore* db, const Op& op) {
  switch (op.kind) {
    case Op::kCreateModel:
      return db->CreateRdfModel(op.model, op.a, op.b).status();
    case Op::kDropModel:
      return db->DropRdfModel(op.model);
    case Op::kInsert:
      return db->InsertTriple(op.model, op.s, op.p, op.o).status();
    case Op::kDelete:
      return db->DeleteTriple(op.model, op.s, op.p, op.o);
    case Op::kReify: {
      auto id = db->Snapshot()->GetTripleId(op.model, op.s, op.p, op.o);
      if (!id.ok()) return id.status();
      return db->ReifyTriple(op.model, *id).status();
    }
    case Op::kAssertAbout: {
      auto id = db->Snapshot()->GetTripleId(op.model, op.s, op.p, op.o);
      if (!id.ok()) return id.status();
      return db->AssertAboutTriple(op.model, op.a, op.b, *id).status();
    }
    case Op::kAssertImplied:
      return db->AssertImplied(op.model, op.a, op.b, op.s, op.p, op.o)
          .status();
    case Op::kCheckpoint:
      return db->Checkpoint();
  }
  return Status::InvalidArgument("unknown op");
}

/// The same op against the plain in-memory reference store (checkpoint
/// is a logical no-op). Mirrors ApplyLogged's semantics exactly.
void ApplyReference(RdfStore* store, const Op& op) {
  switch (op.kind) {
    case Op::kCreateModel:
      (void)store->CreateRdfModel(op.model, op.a, op.b);
      break;
    case Op::kDropModel:
      (void)store->DropRdfModel(op.model);
      break;
    case Op::kInsert:
      (void)store->InsertTriple(op.model, op.s, op.p, op.o);
      break;
    case Op::kDelete:
      (void)store->DeleteTriple(op.model, op.s, op.p, op.o);
      break;
    case Op::kReify: {
      auto id = store->GetTripleId(op.model, op.s, op.p, op.o);
      if (id.ok()) (void)store->ReifyTriple(op.model, *id);
      break;
    }
    case Op::kAssertAbout: {
      auto id = store->GetTripleId(op.model, op.s, op.p, op.o);
      if (id.ok()) (void)store->AssertAboutTriple(op.model, op.a, op.b, *id);
      break;
    }
    case Op::kAssertImplied:
      (void)store->AssertImplied(op.model, op.a, op.b, op.s, op.p, op.o);
      break;
    case Op::kCheckpoint:
      break;
  }
}

/// Canonical textual fingerprint of the store's logical state: every
/// model's triples (resolved to display text + context), sorted.
std::string DumpStore(const RdfStore& store) {
  std::vector<std::string> lines;
  for (const std::string& model : store.ModelNames()) {
    auto model_id = store.GetModelId(model);
    if (!model_id.ok()) continue;
    lines.push_back("model " + model);
    store.links().ScanModel(*model_id, [&](const LinkRow& row) {
      auto triple = store.ResolveTriple(row.link_id);
      if (triple.ok()) {
        lines.push_back(model + "|" + triple->subject + "|" +
                        triple->property + "|" + triple->object + "|" +
                        std::to_string(static_cast<int>(row.context)));
      }
      return true;
    });
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// --- harness ------------------------------------------------------------

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    seed_ = TortureSeed();
    ops_ = MakeWorkload(seed_, 90);
    // Reference prefix dumps: dumps_[k] = state after the first k ops.
    RdfStore reference;
    dumps_.push_back(DumpStore(reference));
    for (const Op& op : ops_) {
      ApplyReference(&reference, op);
      dumps_.push_back(DumpStore(reference));
    }
  }

  std::string BasePath(size_t run) const {
    return temp_.Path("torture_" + std::to_string(seed_) + "_" +
                      std::to_string(run));
  }

  static void RemoveStoreFiles(const std::string& base) {
    auto rm = [](const std::string& p) { std::remove(p.c_str()); };
    rm(base);
    rm(base + ".tmp");
    rm(base + ".log");
    rm(SnapshotRdfStore::ManifestPath(base));
    rm(SnapshotRdfStore::ManifestPath(base) + ".tmp");
    for (uint64_t gen = 1; gen <= 8; ++gen) {
      rm(SnapshotRdfStore::GenerationFileName(base, gen));
      rm(SnapshotRdfStore::GenerationFileName(base, gen) + ".tmp");
    }
  }

  /// Run the workload against `base` through `env` until an op fails
  /// (the simulated process death) or the script ends. Returns the
  /// number of acknowledged (OK) mutating ops; semantic failures with
  /// the env still alive don't stop the run and aren't acked.
  size_t RunWorkload(const std::string& base, storage::FaultInjectingEnv* env,
                     SyncMode sync_mode) {
    LoggedStoreOptions options;
    options.sync_mode = sync_mode;
    options.env = env;
    auto db = SnapshotRdfStore::Open(base, base + ".log", options);
    if (!db.ok()) return 0;  // crashed during open
    size_t acked = 0;
    for (const Op& op : ops_) {
      Status status = ApplyLogged(db->get(), op);
      if (status.ok()) {
        ++acked;
      } else if (env->crashed()) {
        break;  // the process died here
      }
      // else: semantic failure (e.g. delete of absent triple) — the
      // reference made the same non-change; keep going.
    }
    return acked;
  }

  /// Recover from the on-disk state with a clean env and return the
  /// index of the *largest* reference prefix it matches (-1 = none).
  int RecoverAndMatch(const std::string& base, std::string* dump_out,
                      bool* torn_out = nullptr) {
    auto recovered = SnapshotRdfStore::Open(base, base + ".log");
    EXPECT_TRUE(recovered.ok())
        << "recovery failed: " << recovered.status().ToString();
    if (!recovered.ok()) return -1;
    std::string dump = (*recovered)->Apply([](const RdfStore& store) {
      EXPECT_TRUE(store.CheckConsistency().ok());
      return DumpStore(store);
    });
    if (torn_out != nullptr) {
      *torn_out = (*recovered)->recovery_stats().torn_tail;
    }
    if (dump_out != nullptr) *dump_out = dump;
    for (int k = static_cast<int>(dumps_.size()) - 1; k >= 0; --k) {
      if (dumps_[static_cast<size_t>(k)] == dump) return k;
    }
    return -1;
  }

  test::TestTempDir temp_;
  uint64_t seed_ = 0;
  std::vector<Op> ops_;
  std::vector<std::string> dumps_;
};

TEST_F(CrashRecoveryTest, SurvivesCrashAtEveryInjectionPoint) {
  // Profile pass: how many bytes / mutating ops does the full workload
  // produce? (No fault armed.)
  uint64_t total_bytes, total_ops;
  {
    const std::string base = BasePath(0);
    RemoveStoreFiles(base);
    storage::FaultInjectingEnv env;
    size_t acked = RunWorkload(base, &env, SyncMode::kEveryRecord);
    EXPECT_GT(acked, ops_.size() / 2);
    total_bytes = env.bytes_appended();
    total_ops = env.mutating_ops();
    // Sanity: the clean run recovers to exactly the final state.
    EXPECT_EQ(RecoverAndMatch(base, nullptr),
              static_cast<int>(ops_.size()));
    RemoveStoreFiles(base);
  }
  ASSERT_GT(total_bytes, 0u);
  ASSERT_GT(total_ops, 0u);

  // Injection points: ~160 byte offsets + ~60 op indices, all distinct.
  constexpr size_t kBytePoints = 160;
  constexpr size_t kOpPoints = 60;
  std::set<std::pair<int, uint64_t>> points;  // (kind, value)
  for (size_t i = 0; i < kBytePoints; ++i) {
    points.insert({0, 1 + (total_bytes * i) / kBytePoints});
  }
  for (size_t i = 0; i < kOpPoints; ++i) {
    points.insert({1, 1 + (total_ops * i) / kOpPoints});
  }
  ASSERT_GE(points.size(), 200u) << "workload too small to place the "
                                    "required distinct injection points";

  size_t run = 1, torn_recoveries = 0;
  for (const auto& [kind, value] : points) {
    const std::string base = BasePath(run);
    RemoveStoreFiles(base);
    storage::FaultInjectingEnv env;
    // Alternate the page-cache-loss model so both "torn bytes survive"
    // and "unsynced bytes vanish" crashes are covered.
    const bool drop_unsynced = (run % 2 == 0);
    env.set_drop_unsynced_on_crash(drop_unsynced);
    if (kind == 0) {
      env.CrashAfterBytes(value);
    } else {
      env.CrashAfterOps(value);
    }

    size_t acked = RunWorkload(base, &env, SyncMode::kEveryRecord);

    std::string dump;
    bool torn = false;
    int matched = RecoverAndMatch(base, &dump, &torn);
    if (torn) ++torn_recoveries;
    ASSERT_GE(matched, 0)
        << "crash point " << (kind == 0 ? "bytes=" : "ops=") << value
        << " (seed " << seed_ << "): recovered state matches no "
        << "reference prefix\nrecovered:\n"
        << dump;
    // kEveryRecord: an OK return means the record was fdatasync'd, so
    // even with every unsynced byte dropped no acked op may be lost.
    // (`matched` may exceed `acked`: semantic-failure ops don't change
    // state, and a crash mid-ack can leave an un-acked op durable.)
    EXPECT_GE(matched, static_cast<int>(acked))
        << "crash point " << (kind == 0 ? "bytes=" : "ops=") << value
        << " (seed " << seed_ << ", drop_unsynced=" << drop_unsynced
        << "): lost acked mutations (acked " << acked << ", recovered "
        << "prefix " << matched << ")";

    RemoveStoreFiles(base);
    ++run;
  }
  // The byte-offset sweep lands mid-record constantly (without
  // drop-unsynced a torn prefix stays on disk); if no run ever saw a
  // torn tail the injection isn't exercising what it claims to.
  EXPECT_GT(torn_recoveries, 0u);
  RecordProperty("torn_recoveries", static_cast<int>(torn_recoveries));
}

TEST_F(CrashRecoveryTest, SyncModeNoneStillRecoversToSomePrefix) {
  // At kNone an OK return promises nothing durable — but recovery must
  // still land on *some* consistent reference prefix (never a corrupt
  // or torn-in-the-middle state), even when unsynced bytes vanish.
  uint64_t total_ops;
  {
    const std::string base = BasePath(9000);
    RemoveStoreFiles(base);
    storage::FaultInjectingEnv env;
    (void)RunWorkload(base, &env, SyncMode::kNone);
    total_ops = env.mutating_ops();
    RemoveStoreFiles(base);
  }
  ASSERT_GT(total_ops, 0u);
  constexpr size_t kPoints = 20;
  for (size_t i = 0; i < kPoints; ++i) {
    const std::string base = BasePath(9001 + i);
    RemoveStoreFiles(base);
    storage::FaultInjectingEnv env;
    env.set_drop_unsynced_on_crash(true);
    env.CrashAfterOps(1 + (total_ops * i) / kPoints);
    size_t acked = RunWorkload(base, &env, SyncMode::kNone);
    (void)acked;  // explicitly NOT guaranteed durable at kNone
    int matched = RecoverAndMatch(base, nullptr);
    ASSERT_GE(matched, 0) << "kNone crash point " << i << " (seed "
                          << seed_ << ")";
    RemoveStoreFiles(base);
  }
}

}  // namespace
}  // namespace rdfdb::rdf
