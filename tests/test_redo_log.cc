#include "rdf/redo_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/crc32c.h"
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
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  RdfStore& store = (*recovered)->store();
  EXPECT_TRUE(*store.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                              "id:JohnDoe"));
  EXPECT_TRUE(*store.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                              "id:JaneDoe"));
  EXPECT_EQ(store.links().TotalTripleCount(), 2u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST_F(RedoLogTest, ReificationAndAssertionsReplay) {
  LinkId original_base = 0;
  {
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  RdfStore& store = (*recovered)->store();
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
}

TEST_F(RedoLogTest, DeletesReplay) {
  {
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:a", "gov:p", "gov:b").ok());
    ASSERT_TRUE((*db)->InsertTriple("m", "gov:c", "gov:p", "gov:d").ok());
    ASSERT_TRUE((*db)->DeleteTriple("m", "gov:a", "gov:p", "gov:b").ok());
  }
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  RdfStore& store = (*recovered)->store();
  EXPECT_FALSE(*store.IsTriple("m", "gov:a", "gov:p", "gov:b"));
  EXPECT_TRUE(*store.IsTriple("m", "gov:c", "gov:p", "gov:d"));
}

TEST_F(RedoLogTest, TypedLiteralsAndBlanksSurviveReplay) {
  {
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
    auto base = (*db)->store().GetTripleId("m", "_:b1", "gov:label",
                                           "\"tab\\there\"@en");
    ASSERT_TRUE(base.ok());
    ASSERT_TRUE((*db)->ReifyTriple("m", *base).ok());
  }
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  RdfStore& store = (*recovered)->store();
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
}

TEST_F(RedoLogTest, CheckpointTruncatesLogAndKeepsState) {
  {
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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

  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  RdfStore& store = (*recovered)->store();
  EXPECT_TRUE(*store.IsTriple("m", "gov:a", "gov:p", "gov:b"));
  EXPECT_TRUE(*store.IsTriple("m", "gov:c", "gov:p", "gov:d"));
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST_F(RedoLogTest, ModelDropReplays) {
  {
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("temp", "t", "triple").ok());
    ASSERT_TRUE((*db)->InsertTriple("temp", "gov:a", "gov:p", "gov:b")
                    .ok());
    ASSERT_TRUE((*db)->DropRdfModel("temp").ok());
    ASSERT_TRUE((*db)->CreateRdfModel("keep", "k", "triple").ok());
  }
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  RdfStore& store = (*recovered)->store();
  EXPECT_TRUE(store.GetModelId("temp").status().IsNotFound());
  EXPECT_TRUE(store.GetModelId("keep").ok());
  EXPECT_EQ(store.links().TotalTripleCount(), 0u);
}

TEST_F(RedoLogTest, FailedOperationsAreNotLogged) {
  {
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
  EXPECT_TRUE(LoggedRdfStore::Open(snapshot_path_, log_path_)
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
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE((*recovered)->recovery_stats().torn_tail);
  EXPECT_EQ((*recovered)->recovery_stats().records, 2u);
  EXPECT_TRUE(*(*recovered)->store().IsTriple("m", "gov:a", "gov:p",
                                              "gov:b"));
  // The torn bytes were truncated away at the last valid boundary.
  std::ifstream log(log_path_, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::uintmax_t>(log.tellg()), clean_size);
  // ... so a second recovery is clean.
  recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE((*recovered)->recovery_stats().torn_tail);
}

TEST_F(RedoLogTest, SeqGapRejected) {
  {
    std::ofstream log(log_path_);
    log << FramedRecord(1, "C\tm\tt\tc\t");
    log << FramedRecord(3, "X\tm");  // 2 is missing
  }
  EXPECT_TRUE(LoggedRdfStore::Open(snapshot_path_, log_path_)
                  .status()
                  .IsCorruption());
}

TEST_F(RedoLogTest, PoisonedLogFailsFast) {
  auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
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
    auto db = LoggedRdfStore::Open(snapshot_path_, log_path_);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    // Literal with tab, newline and backslash.
    ASSERT_TRUE((*db)
                    ->InsertTriple("m", "gov:doc", "gov:body",
                                   "\"line1\\nline2\\ttabbed\"")
                    .ok());
  }
  auto recovered = LoggedRdfStore::Open(snapshot_path_, log_path_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(*(*recovered)->store().IsTriple(
      "m", "gov:doc", "gov:body", "\"line1\\nline2\\ttabbed\""));
}

}  // namespace
}  // namespace rdfdb::rdf
