#include "rdf/redo_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"
#include "obs/event_log.h"
#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"
#include "test_temp_dir.h"

namespace rdfdb::rdf {
namespace {

class RedoLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snapshot_path_ = temp_.Path("redo_snap.bin");
    log_path_ = temp_.Path("redo.log");
  }

  /// A framing-valid log line (correct CRC) with the given seq and
  /// already-escaped body.
  static std::string FramedRecord(uint64_t seq, const std::string& body) {
    char crc[16];
    std::snprintf(crc, sizeof(crc), "%08x", Crc32c(body));
    return std::to_string(seq) + "\t" + crc + "\t" + body + "\n";
  }

  // The store roots several files at snapshot_path_ (manifest +
  // generation snapshots); all of them live in this case's directory.
  test::TestTempDir temp_;
  std::string snapshot_path_;
  std::string log_path_;
};

TEST_F(RedoLogTest, CrashRecoveryFromLogOnly) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("cia", "ciadata", "triple").ok());
    ASSERT_TRUE((*db)
                    ->InsertTriple("cia", "gov:files",
                                   "gov:terrorSuspect", "id:JohnDoe")
                    .ok());
    ASSERT_TRUE((*db)
                    ->InsertTriple("cia", "gov:files",
                                   "gov:terrorSuspect", "id:JaneDoe")
                    .ok());
    // "Crash": drop the in-memory store without checkpointing.
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  (*recovered)->Apply([&](const RdfStore& store) {
    EXPECT_TRUE(*store.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoe"));
    EXPECT_TRUE(*store.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                                "id:JaneDoe"));
    EXPECT_EQ(store.links().TotalTripleCount(), 2u);
    EXPECT_TRUE(store.CheckConsistency().ok());
  });
}

TEST_F(RedoLogTest, ReificationAndAssertionsReplay) {
  LinkId original_base = 0;
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("cia", "ciadata", "triple").ok());
    auto base = (*db)->InsertTriple("cia", "gov:files",
                                    "gov:terrorSuspect", "id:JohnDoe");
    ASSERT_TRUE(base.ok());
    original_base = base->rdf_t_id();
    ASSERT_TRUE((*db)->ReifyTriple("cia", base->rdf_t_id()).ok());
    ASSERT_TRUE((*db)
                    ->AssertAboutTriple("cia", "gov:MI5", "gov:source",
                                        base->rdf_t_id())
                    .ok());
    ASSERT_TRUE((*db)
                    ->AssertImplied("cia", "gov:Interpol", "gov:source",
                                    "gov:files", "gov:terrorSuspect",
                                    "id:JohnDoeJr")
                    .ok());
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  (*recovered)->Apply([&](const RdfStore& store) {
    EXPECT_TRUE(*store.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoe"));
    EXPECT_TRUE(*store.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoeJr"));
    // Implied context preserved through replay.
    auto implied_id = store.GetTripleId("cia", "gov:files",
                                        "gov:terrorSuspect", "id:JohnDoeJr");
    ASSERT_TRUE(implied_id.ok());
    EXPECT_EQ(store.links().Get(*implied_id)->context,
              TripleContext::kImplied);
    // Same logical state: 1 fact + 2 reifs + 2 assertions + 1 implied = 6.
    EXPECT_EQ(store.links().TotalTripleCount(), 6u);
    (void)original_base;
  });
}

TEST_F(RedoLogTest, DeletesReplay) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:c", "gov:p", "gov:d").ok());
    ASSERT_TRUE((*db)->DeleteTriple("m", "gov:a", "gov:p", "gov:b").ok());
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  (*recovered)->Apply([&](const RdfStore& store) {
    EXPECT_FALSE(*store.IsTriple("m", "gov:a", "gov:p", "gov:b"));
    EXPECT_TRUE(*store.IsTriple("m", "gov:c", "gov:p", "gov:d"));
  });
}

TEST_F(RedoLogTest, TypedLiteralsAndBlanksSurviveReplay) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE(
        (*db)->InsertTriple("m", "gov:x", "gov:age", "\"+025\"^^xsd:int")
            .ok());
    ASSERT_TRUE((*db)
                    ->InsertTriple("m", "_:b1", "gov:label",
                                   "\"tab\\there\"@en")
                    .ok());
    // Reify a triple with a blank subject (exercises the original-label
    // recovery path in logical logging).
    auto base = (*db)->Snapshot()->GetTripleId("m", "_:b1", "gov:label",
                                 "\"tab\\there\"@en");
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE((*db)->ReifyTriple("m", *base).ok());
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  (*recovered)->Apply([&](const RdfStore& store) {
    EXPECT_TRUE(*store.IsTriple("m", "gov:x", "gov:age",
                                "\"+025\"^^xsd:int"));
    // Canonicalization still applied after replay: query the canon form.
    auto id = store.GetTripleId("m", "gov:x", "gov:age",
                                "\"+025\"^^xsd:int");
    ASSERT_TRUE(id.ok());
    auto row = store.links().Get(*id);
    EXPECT_NE(row->end_node_id, row->canon_end_node_id);
    EXPECT_TRUE(*store.IsReified("m", "_:b1", "gov:label",
                                 "\"tab\\there\"@en"));
  });
}

TEST_F(RedoLogTest, CheckpointTruncatesLogAndKeepsState) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // Post-checkpoint mutation lands in the fresh log.
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:c", "gov:p", "gov:d").ok());
  }
  // Log contains only the post-checkpoint record.
  std::ifstream log(log_path_);
  std::string line;
  size_t lines = 0;
  while (std::getline(log, line)) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, 1u);

  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  (*recovered)->Apply([&](const RdfStore& store) {
    EXPECT_TRUE(*store.IsTriple("m", "gov:a", "gov:p", "gov:b"));
    EXPECT_TRUE(*store.IsTriple("m", "gov:c", "gov:p", "gov:d"));
    EXPECT_TRUE(store.CheckConsistency().ok());
  });
}

TEST_F(RedoLogTest, ModelDropReplays) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("temp", "t", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("temp", "gov:a", "gov:p", "gov:b")
                    .ok());
    ASSERT_TRUE((*db)->DropRdfModel("temp").ok());
    ASSERT_TRUE((*db)->CreateRdfModel("keep", "k", "triple").ok());
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  (*recovered)->Apply([&](const RdfStore& store) {
    EXPECT_TRUE(store.GetModelId("temp").status().IsNotFound());
    EXPECT_TRUE(store.GetModelId("keep").ok());
    EXPECT_EQ(store.links().TotalTripleCount(), 0u);
  });
}

TEST_F(RedoLogTest, FailedOperationsAreNotLogged) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    // Inserting into a missing model fails and must leave no record.
    EXPECT_FALSE(
        (*db)->InsertTriple("ghost", "gov:a", "gov:p", "gov:b").ok());
    EXPECT_FALSE((*db)->DeleteTriple("ghost", "a", "b", "c").ok());
  }
  std::ifstream log(log_path_);
  std::string contents((std::istreambuf_iterator<char>(log)),
                       std::istreambuf_iterator<char>());
  EXPECT_TRUE(contents.empty());
  // And recovery from the empty log succeeds.
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
}

TEST_F(RedoLogTest, CorruptLogRejected) {
  // Mid-log damage (a later record follows the garbage) is always hard
  // Corruption — the torn-tail tolerance covers only the final record.
  {
    std::ofstream log(log_path_);
    log << "Z\tgarbage\trecord\n";
    log << FramedRecord(2, "X\tm");
  }
  EXPECT_TRUE(SnapshotRdfStore::Open(snapshot_path_, log_path_)
                  .status()
                  .IsCorruption());
}

TEST_F(RedoLogTest, TruncatedFieldCountRejected) {
  // CRC-valid but semantically malformed (wrong arity) — never
  // tolerated, even as the final record.
  {
    std::ofstream log(log_path_);
    log << FramedRecord(1, "I\tmodel\tsubject");  // I needs 4 fields
  }
  RdfStore store;
  EXPECT_TRUE(ReplayRedoLog(log_path_, &store).status().IsCorruption());
}

TEST_F(RedoLogTest, TornFinalRecordToleratedAndTruncated) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
  }
  // Simulate a crash mid-append: a partial record at the tail.
  std::uintmax_t clean_size;
  {
    std::ifstream log(log_path_, std::ios::binary | std::ios::ate);
    clean_size = static_cast<std::uintmax_t>(log.tellg());
    std::ofstream append(log_path_, std::ios::app);
    append << "3\tdeadbe";  // torn: no CRC, no body, no newline
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->recovery_stats().torn_tail);
  EXPECT_EQ((*recovered)->recovery_stats().records, 2u);
  EXPECT_TRUE(*(*recovered)->Snapshot()->IsTriple("m", "gov:a", "gov:p",
                                              "gov:b"));
  // The torn bytes were truncated away at the last valid boundary.
  std::ifstream log(log_path_, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::uintmax_t>(log.tellg()), clean_size);
  // ... so a second recovery is clean.
  recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE((*recovered)->recovery_stats().torn_tail);
}

TEST_F(RedoLogTest, RecoveryEventsReachTheEventLogGivenAtOpen) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
  }
  {
    std::ofstream append(log_path_, std::ios::app);
    append << "3\tdeadbe";  // torn final record
  }
  std::ostringstream sink;
  obs::EventLog::Options event_options;
  event_options.sink = &sink;
  auto events = obs::EventLog::Open(std::move(event_options));
  ASSERT_TRUE(events.ok());
  LoggedStoreOptions options;
  options.event_log = events->get();
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovery_stats().torn_tail);
  (*events)->Flush();
  const std::string lines = sink.str();
  const size_t torn =
      lines.find("\"cat\":\"replay\",\"event\":\"torn_tail\"");
  const size_t done = lines.find("\"cat\":\"replay\",\"event\":\"done\"");
  ASSERT_NE(torn, std::string::npos) << lines;
  ASSERT_NE(done, std::string::npos) << lines;
  EXPECT_LT(torn, done);
  EXPECT_NE(lines.find("\"records\":2"), std::string::npos) << lines;
}

TEST_F(RedoLogTest, SeqGapRejected) {
  {
    std::ofstream log(log_path_);
    log << FramedRecord(1, "C\tm\tt\tc\t");
    log << FramedRecord(3, "X\tm");  // 2 is missing
  }
  EXPECT_TRUE(SnapshotRdfStore::Open(snapshot_path_, log_path_)
                  .status()
                  .IsCorruption());
}

TEST_F(RedoLogTest, PoisonedLogFailsFast) {
  auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(db.ok());
  storage::FaultInjectingEnv env;
  RedoLogOptions opts;
  opts.env = &env;
  auto log = RedoLog::Open(log_path_ + ".poison", opts);
  ASSERT_TRUE(log.ok());
  env.CrashAfterBytes(5);  // first append tears mid-record
  Status first = (*log)->LogDropModel("some_model_name");
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE((*log)->poisoned().ok());
  // Every later append fails fast with the original error, even though
  // the env would now accept... nothing, it is frozen; but poisoning is
  // checked before any I/O is attempted.
  Status second = (*log)->LogDropModel("x");
  EXPECT_EQ(second.message(), first.message());
  std::remove((log_path_ + ".poison").c_str());
}

TEST_F(RedoLogTest, MissingLogIsEmpty) {
  RdfStore store;
  auto stats = ReplayRedoLog("/nonexistent/never.log", &store);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 0u);
}

TEST_F(RedoLogTest, EscapingRoundTrips) {
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    // Literal with tab, newline and backslash.
    ASSERT_TRUE((*db)
                    ->InsertTriple("m", "gov:doc", "gov:body",
                                   "\"line1\\nline2\\ttabbed\"")
                    .ok());
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*(*recovered)->Snapshot()->IsTriple(
      "m", "gov:doc", "gov:body", "\"line1\\nline2\\ttabbed\""));
}

TEST_F(RedoLogTest, ParsedInsertsInABatchAreLogged) {
  // The server's /insert path: one Apply batch of parsed triples. Each
  // insert appends its record, so no checkpoint is needed to cover it.
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)
                    ->Apply([](RdfStore& live) -> Status {
                      RDFDB_RETURN_NOT_OK(
                          live.CreateRdfModel("m", "mdata", "triple")
                              .status());
                      RDFDB_ASSIGN_OR_RETURN(ModelId model,
                                             live.GetModelId("m"));
                      for (const char* label : {"b1", "b2"}) {
                        RDFDB_RETURN_NOT_OK(
                            live.InsertParsedTriple(
                                    model, Term::BlankNode(label),
                                    Term::Uri("http://ex/p"),
                                    Term::PlainLiteralLang("tab\there", "en"))
                                .status());
                      }
                      return Status::OK();
                    })
                    .ok());
    EXPECT_EQ((*db)->generation(), 0u);
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->recovery_stats().inserts, 2u);
  EXPECT_TRUE(*(*recovered)->Snapshot()->IsTriple("m", "_:b2", "<http://ex/p>",
                                      "\"tab\\there\"@en"));
  EXPECT_EQ((*recovered)->Snapshot()->TotalTripleCount(), 2u);
}

TEST_F(RedoLogTest, BatchWrittenAroundTheLogIsCheckpointed) {
  // No record covers a bulk load (it marks an unlogged write): Apply
  // checkpoints before it returns.
  std::vector<NTriple> statements;
  for (int i = 0; i < 50; ++i) {
    statements.push_back(NTriple{Term::Uri("http://ex/s" + std::to_string(i)),
                                 Term::Uri("http://ex/p"),
                                 Term::PlainLiteral("v")});
  }
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    EXPECT_EQ((*db)->generation(), 0u);
    ASSERT_TRUE((*db)
                    ->Apply([&](RdfStore& live) {
                      return BulkLoad(&live, "m", statements).status();
                    })
                    .ok());
    EXPECT_EQ((*db)->generation(), 1u);
    // A read-only batch changes nothing, so it does not checkpoint.
    (*db)->Apply([](const RdfStore& live) {
      EXPECT_EQ(live.links().TotalTripleCount(), 50u);
    });
    EXPECT_EQ((*db)->generation(), 1u);
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->Snapshot()->TotalTripleCount(), 50u);
  EXPECT_EQ((*recovered)->recovery_stats().records, 0u);
}

TEST_F(RedoLogTest, FailedCoveringCheckpointBlocksLaterWrites) {
  // A bulk load whose covering checkpoint fails stays uncovered: the
  // next write batch retries the checkpoint before it runs, so no
  // record is ever logged over bulk-loaded state that no file holds.
  std::vector<NTriple> statements;
  for (int i = 0; i < 50; ++i) {
    statements.push_back(NTriple{Term::Uri("http://ex/s" + std::to_string(i)),
                                 Term::Uri("http://ex/p"),
                                 Term::PlainLiteral("v")});
  }
  storage::FaultInjectingEnv env;
  LoggedStoreOptions options;
  options.env = &env;
  {
    auto db = SnapshotRdfStore::Open(snapshot_path_, log_path_, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    env.FailOnce(1);  // the checkpoint's first file operation
    EXPECT_FALSE((*db)
                     ->Apply([&](RdfStore& live) {
                       return BulkLoad(&live, "m", statements).status();
                     })
                     .ok());
    EXPECT_EQ((*db)->generation(), 0u);

    // The retried checkpoint fails too: the insert does not run.
    env.FailOnce(1);
    EXPECT_FALSE(
        (*db)->InsertTriple("m", "<http://ex/x>", "<http://ex/p>", "\"v\"")
            .ok());
    EXPECT_EQ((*db)->generation(), 0u);
    EXPECT_FALSE(*(*db)->Snapshot()->IsTriple("m", "<http://ex/x>",
                                              "<http://ex/p>", "\"v\""));

    // Now the checkpoint lands first, then the delete of a bulk-loaded
    // triple is logged on top of it.
    ASSERT_TRUE(
        (*db)->DeleteTriple("m", "<http://ex/s0>", "<http://ex/p>", "\"v\"")
            .ok());
    EXPECT_EQ((*db)->generation(), 1u);
  }
  auto recovered = SnapshotRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->recovery_stats().deletes, 1u);
  EXPECT_EQ((*recovered)->Snapshot()->TotalTripleCount(), 49u);
  EXPECT_FALSE(*(*recovered)->Snapshot()->IsTriple(
      "m", "<http://ex/s0>", "<http://ex/p>", "\"v\""));
}

TEST_F(RedoLogTest, CheckpointNeedsALog) {
  SnapshotRdfStore store;
  EXPECT_TRUE(store.Checkpoint().IsNotSupported());
}

}  // namespace
}  // namespace rdfdb::rdf
