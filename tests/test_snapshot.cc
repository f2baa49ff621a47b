#include "storage/snapshot.h"
#include "test_temp_dir.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

namespace rdfdb::storage {
namespace {

Schema MixedSchema() {
  return Schema({
      ColumnDef{"ID", ValueType::kInt64, false},
      ColumnDef{"NAME", ValueType::kString, true},
      ColumnDef{"SCORE", ValueType::kDouble, true},
      ColumnDef{"BODY", ValueType::kClob, true},
  });
}

TEST(SnapshotTest, RoundTripPreservesTablesAndRows) {
  Database src;
  Table* table = *src.CreateTable("S", "T", MixedSchema());
  (void)*table->Insert({Value::Int64(1), Value::String("a"),
                        Value::Double(1.5), Value::Clob("blob")});
  (void)*table->Insert({Value::Int64(2), Value::Null(), Value::Null(),
                        Value::Null()});

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(src, buffer).ok());

  Database dst;
  ASSERT_TRUE(LoadSnapshot(buffer, &dst).ok());
  Table* loaded = dst.GetTable("S", "T");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->row_count(), 2u);
  const Row* row = loaded->Get(0);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[0].as_int64(), 1);
  EXPECT_EQ((*row)[1].as_string(), "a");
  EXPECT_DOUBLE_EQ((*row)[2].as_double(), 1.5);
  EXPECT_EQ((*row)[3].as_clob(), "blob");
  const Row* row2 = loaded->Get(1);
  EXPECT_TRUE((*row2)[1].is_null());
}

TEST(SnapshotTest, RoundTripPreservesSchemaTypes) {
  Database src;
  (void)*src.CreateTable("S", "T", MixedSchema());
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(src, buffer).ok());
  Database dst;
  ASSERT_TRUE(LoadSnapshot(buffer, &dst).ok());
  const Schema& schema = dst.GetTable("S", "T")->schema();
  EXPECT_EQ(schema.num_columns(), 4u);
  EXPECT_EQ(schema.column(0).type, ValueType::kInt64);
  EXPECT_FALSE(schema.column(0).nullable);
  EXPECT_EQ(schema.column(3).type, ValueType::kClob);
  EXPECT_TRUE(schema.column(3).nullable);
}

TEST(SnapshotTest, MultipleTables) {
  Database src;
  (void)*src.CreateTable("A", "T1", MixedSchema());
  Table* t2 = *src.CreateTable("B", "T2", MixedSchema());
  (void)*t2->Insert({Value::Int64(9), Value::Null(), Value::Null(),
                     Value::Null()});
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(src, buffer).ok());
  Database dst;
  ASSERT_TRUE(LoadSnapshot(buffer, &dst).ok());
  EXPECT_EQ(dst.TableNames(),
            (std::vector<std::string>{"A.T1", "B.T2"}));
  EXPECT_EQ(dst.GetTable("B", "T2")->row_count(), 1u);
}

TEST(SnapshotTest, SkipsTombstonedRows) {
  Database src;
  Table* table = *src.CreateTable("S", "T", MixedSchema());
  RowId doomed = *table->Insert({Value::Int64(1), Value::Null(),
                                 Value::Null(), Value::Null()});
  (void)*table->Insert({Value::Int64(2), Value::Null(), Value::Null(),
                        Value::Null()});
  ASSERT_TRUE(table->Delete(doomed).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(src, buffer).ok());
  Database dst;
  ASSERT_TRUE(LoadSnapshot(buffer, &dst).ok());
  EXPECT_EQ(dst.GetTable("S", "T")->row_count(), 1u);
}

TEST(SnapshotTest, RejectsGarbage) {
  std::stringstream buffer("this is not a snapshot");
  Database dst;
  EXPECT_TRUE(LoadSnapshot(buffer, &dst).IsCorruption());
}

TEST(SnapshotTest, RejectsTruncatedStream) {
  Database src;
  Table* table = *src.CreateTable("S", "T", MixedSchema());
  (void)*table->Insert({Value::Int64(1), Value::String("abcdef"),
                        Value::Null(), Value::Null()});
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(src, buffer).ok());
  std::string bytes = buffer.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  Database dst;
  EXPECT_FALSE(LoadSnapshot(truncated, &dst).ok());
}

TEST(SnapshotTest, FileRoundTrip) {
  test::TestTempDir temp;
  std::string path = temp.Path("snapshot_test.bin");
  Database src;
  Table* table = *src.CreateTable("S", "T", MixedSchema());
  (void)*table->Insert({Value::Int64(3), Value::String("file"),
                        Value::Null(), Value::Null()});
  ASSERT_TRUE(SaveSnapshotToFile(src, path).ok());
  Database dst;
  ASSERT_TRUE(LoadSnapshotFromFile(path, &dst).ok());
  EXPECT_EQ(dst.GetTable("S", "T")->row_count(), 1u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIOError) {
  Database dst;
  EXPECT_TRUE(
      LoadSnapshotFromFile("/nonexistent/nope.bin", &dst).IsIOError());
}

}  // namespace
}  // namespace rdfdb::storage
