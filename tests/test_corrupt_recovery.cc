// Corrupt-input corpus: truncated, bit-flipped, and length-attacked
// snapshot/log/manifest files must produce Status errors — never a
// crash, unbounded allocation, or hang. Runs under ASan via
// tools/run_asan.sh.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/crc32c.h"
#include "rdf/redo_log.h"
#include "rdf/snapshot_store.h"
#include "storage/database.h"
#include "storage/env.h"
#include "storage/snapshot.h"
#include "test_temp_dir.h"

namespace rdfdb {
namespace {

using rdf::CheckpointManifest;
using rdf::RdfStore;
using rdf::ReplayOptions;
using rdf::ReplayRedoLog;
using rdf::SnapshotRdfStore;
using rdf::VerifyRedoLog;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Re-create the 24-byte snapshot footer for a (possibly tampered)
/// payload so envelope-valid structural attacks reach the parser.
std::string FooterFor(uint32_t table_count, const std::string& payload) {
  std::string footer;
  AppendU32(&footer, table_count);
  AppendU64(&footer, payload.size());
  AppendU32(&footer, Crc32c(payload));
  AppendU32(&footer, 1);           // footer version
  AppendU32(&footer, 0x52444246);  // "RDBF"
  return footer;
}

constexpr size_t kFooterSize = 24;

class CorruptRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = temp_.Path("base");
    victim_ = temp_.Path("victim");

    // Build a real store: checkpoint (=> generation snapshot +
    // manifest) plus post-checkpoint log records.
    auto db = SnapshotRdfStore::Open(base_, base_ + ".log");
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateRdfModel("m", "mdata", "triple").ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*db)
                      ->InsertTriple("m", "ex:s" + std::to_string(i % 5),
                                     "ex:p" + std::to_string(i % 3),
                                     "ex:o" + std::to_string(i))
                      .ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*db)
                      ->InsertTriple("m", "ex:post", "ex:p",
                                     "ex:tail" + std::to_string(i))
                      .ok());
    }
    snapshot_bytes_ =
        ReadFile(SnapshotRdfStore::GenerationFileName(base_, 1));
    manifest_bytes_ = ReadFile(SnapshotRdfStore::ManifestPath(base_));
    log_bytes_ = ReadFile(base_ + ".log");
    ASSERT_GT(snapshot_bytes_.size(), kFooterSize);
    ASSERT_FALSE(manifest_bytes_.empty());
    ASSERT_FALSE(log_bytes_.empty());
  }

  test::TestTempDir temp_;
  std::string base_, victim_;
  std::string snapshot_bytes_, manifest_bytes_, log_bytes_;
};

TEST_F(CorruptRecoveryTest, TruncatedSnapshotRejected) {
  const size_t sizes[] = {0,
                          1,
                          kFooterSize - 1,
                          snapshot_bytes_.size() / 2,
                          snapshot_bytes_.size() - kFooterSize,
                          snapshot_bytes_.size() - 1};
  for (size_t size : sizes) {
    WriteFile(victim_, snapshot_bytes_.substr(0, size));
    storage::Database db("ORADB");
    Status status = storage::LoadSnapshotFromFile(victim_, &db);
    EXPECT_TRUE(status.IsCorruption())
        << "truncated to " << size << ": " << status.ToString();
    EXPECT_FALSE(storage::VerifySnapshotFile(victim_).ok());
  }
}

TEST_F(CorruptRecoveryTest, BitFlippedSnapshotRejected) {
  // Every byte of the file is covered by the payload CRC or by a
  // checked footer field, so every flip must be detected.
  const size_t step =
      std::max<size_t>(1, snapshot_bytes_.size() / 150);
  for (size_t i = 0; i < snapshot_bytes_.size(); i += step) {
    std::string bad = snapshot_bytes_;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    WriteFile(victim_, bad);
    storage::Database db("ORADB");
    Status status = storage::LoadSnapshotFromFile(victim_, &db);
    EXPECT_TRUE(status.IsCorruption())
        << "flip at byte " << i << " undetected: " << status.ToString();
  }
}

TEST_F(CorruptRecoveryTest, SnapshotLengthFieldAttacksFailFast) {
  // Envelope-valid payloads with hostile interior length/count fields:
  // the parser must reject them via its allocation bounds, not after
  // allocating gigabytes. Payload header: magic, version, table_count.
  auto attack = [&](const std::string& payload, uint32_t table_count) {
    WriteFile(victim_, payload + FooterFor(table_count, payload));
    storage::Database db("ORADB");
    Status status = storage::LoadSnapshotFromFile(victim_, &db);
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  };

  {  // implausible table count
    std::string p;
    AppendU32(&p, 0x52444244);
    AppendU32(&p, 1);
    AppendU32(&p, 0xFFFFFFFFu);
    attack(p, 0xFFFFFFFFu);
  }
  {  // schema-name length far beyond the bytes present
    std::string p;
    AppendU32(&p, 0x52444244);
    AppendU32(&p, 1);
    AppendU32(&p, 1);            // one table
    AppendU32(&p, 0x7FFFFFF0u);  // name length: ~2 GB
    p += "x";
    attack(p, 1);
  }
  {  // implausible column count behind valid names
    std::string p;
    AppendU32(&p, 0x52444244);
    AppendU32(&p, 1);
    AppendU32(&p, 1);
    AppendU32(&p, 1);
    p += "S";  // schema name
    AppendU32(&p, 1);
    p += "T";                    // table name
    AppendU32(&p, 0xFFFFFFFFu);  // column count
    attack(p, 1);
  }
  {  // huge string cell length inside row data is capped by stream size
    std::string p;
    AppendU32(&p, 0x52444244);
    AppendU32(&p, 1);
    AppendU32(&p, 1);
    AppendU32(&p, 1);
    p += "S";
    AppendU32(&p, 1);
    p += "T";
    AppendU32(&p, 1);  // one column
    AppendU32(&p, 1);
    p += "C";          // column name
    AppendU32(&p, 3);  // ValueType::kString tag
    AppendU32(&p, 1);  // nullable
    AppendU32(&p, 1);  // one row
    AppendU32(&p, 3);  // cell tag: string
    AppendU32(&p, 0x60000000u);  // 1.5 GB cell
    attack(p, 1);
  }
}

TEST_F(CorruptRecoveryTest, SnapshotTrailingJunkRejected) {
  std::string payload =
      snapshot_bytes_.substr(0, snapshot_bytes_.size() - kFooterSize);
  std::string junk_payload = payload + "JUNK-AFTER-TABLES";
  // Footer is consistent with the junk-extended payload, so only the
  // parse-consumed-everything check can catch it.
  uint32_t table_count = 0;
  std::memcpy(&table_count, payload.data() + 8, sizeof(table_count));
  WriteFile(victim_, junk_payload + FooterFor(table_count, junk_payload));
  storage::Database db("ORADB");
  Status status = storage::LoadSnapshotFromFile(victim_, &db);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.ToString().find("trailing junk"), std::string::npos)
      << status.ToString();
}

TEST_F(CorruptRecoveryTest, BitFlippedLogNeverCrashesSometimesTolerated) {
  // A flip in the *final* record is torn-tail-tolerated by design;
  // anywhere else replay must fail with Corruption (or skip a
  // stale-looking record). Whatever the flip, it must never crash,
  // hang, or return success with a record count above the original.
  const size_t original_records = 8u;  // post-checkpoint inserts
  const size_t step = std::max<size_t>(1, log_bytes_.size() / 120);
  size_t detected = 0;
  for (size_t i = 0; i < log_bytes_.size(); i += step) {
    std::string bad = log_bytes_;
    bad[i] = static_cast<char>(bad[i] ^ 0x08);
    WriteFile(victim_, bad);
    ReplayOptions opts;
    opts.truncate_torn_tail = false;
    auto stats = VerifyRedoLog(victim_, opts);
    if (!stats.ok()) {
      EXPECT_TRUE(stats.status().IsCorruption())
          << "flip at " << i << ": " << stats.status().ToString();
      ++detected;
    } else {
      EXPECT_LE(stats->records, original_records) << "flip at " << i;
    }
  }
  // The vast majority of flips hit CRC-covered record bodies mid-log.
  EXPECT_GT(detected, 0u);
}

TEST_F(CorruptRecoveryTest, MidLogTruncationIsATornTail) {
  // Cutting the log mid-record leaves a torn *final* record: replay
  // applies every complete record and drops the tail — by contract,
  // not a Corruption.
  size_t second_nl = log_bytes_.find('\n', log_bytes_.find('\n') + 1);
  ASSERT_NE(second_nl, std::string::npos);
  WriteFile(victim_, log_bytes_.substr(0, second_nl + 10));
  ReplayOptions opts;
  opts.truncate_torn_tail = false;
  auto stats = VerifyRedoLog(victim_, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->torn_tail);
  EXPECT_EQ(stats->records, 2u);
  // VerifyRedoLog is read-only: the torn bytes must still be there.
  EXPECT_EQ(ReadFile(victim_).size(), second_nl + 10);
}

TEST_F(CorruptRecoveryTest, ManifestCorruptionRejected) {
  const std::string manifest_path = SnapshotRdfStore::ManifestPath(base_);
  // Bit flips anywhere in the manifest are caught by its CRC line (or
  // by field validation for flips inside the crc line itself).
  for (size_t i = 0; i < manifest_bytes_.size(); ++i) {
    std::string bad = manifest_bytes_;
    bad[i] = static_cast<char>(bad[i] ^ 0x04);
    WriteFile(manifest_path, bad);
    auto read = rdf::ReadManifest(manifest_path);
    EXPECT_FALSE(read.ok()) << "flip at byte " << i;
    // A corrupt recovery root fails the whole open — it must not
    // silently fall back to an empty store.
    EXPECT_FALSE(SnapshotRdfStore::Open(base_, base_ + ".log").ok())
        << "flip at byte " << i;
  }
  WriteFile(manifest_path, "not a manifest at all\n");
  EXPECT_TRUE(
      rdf::ReadManifest(manifest_path).status().IsCorruption());
  WriteFile(manifest_path, "");
  EXPECT_FALSE(rdf::ReadManifest(manifest_path).ok());
  // Restore and prove the corpus base is genuinely recoverable.
  WriteFile(manifest_path, manifest_bytes_);
  auto recovered = SnapshotRdfStore::Open(base_, base_ + ".log");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  (*recovered)->Apply([](const RdfStore& store) {
    EXPECT_EQ(store.links().TotalTripleCount(), 28u);
    EXPECT_TRUE(store.CheckConsistency().ok());
  });
}

TEST_F(CorruptRecoveryTest, SeqTamperingRejected) {
  // Renumber a mid-log record (keeping its CRC valid — CRC covers the
  // body, not the seq): the continuity check must catch it.
  size_t first_nl = log_bytes_.find('\n');
  size_t second_nl = log_bytes_.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  std::string line2 =
      log_bytes_.substr(first_nl + 1, second_nl - first_nl - 1);
  size_t tab = line2.find('\t');
  std::string tampered = log_bytes_.substr(0, first_nl + 1) + "99" +
                         line2.substr(tab) +
                         log_bytes_.substr(second_nl);
  WriteFile(victim_, tampered);
  auto stats = VerifyRedoLog(victim_);
  EXPECT_TRUE(stats.status().IsCorruption()) << stats.status().ToString();
  EXPECT_NE(stats.status().ToString().find("seq gap"), std::string::npos);
}

TEST_F(CorruptRecoveryTest, PristineFilesVerifyClean) {
  auto info = storage::VerifySnapshotFile(
      SnapshotRdfStore::GenerationFileName(base_, 1));
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_GT(info->table_count, 0u);
  auto log_stats = VerifyRedoLog(base_ + ".log");
  ASSERT_TRUE(log_stats.ok()) << log_stats.status().ToString();
  EXPECT_EQ(log_stats->records, 8u);  // post-checkpoint inserts
  EXPECT_FALSE(log_stats->torn_tail);
  auto manifest = rdf::ReadManifest(SnapshotRdfStore::ManifestPath(base_));
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->generation, 1u);
}

}  // namespace
}  // namespace rdfdb
