#include "storage/env.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "test_temp_dir.h"

namespace rdfdb::storage {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_.Path("env_test.dat");
    path2_ = temp_.Path("env_test2.dat");
  }

  test::TestTempDir temp_;
  std::string path_;
  std::string path2_;
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  Env* env = Env::Default();
  {
    auto file = env->NewWritableFile(path_, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("hello ").ok());
    ASSERT_TRUE((*file)->Append("world").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_TRUE(env->FileExists(path_));
  auto contents = env->ReadFileToString(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(*contents, "hello world");
  auto size = env->GetFileSize(path_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 11u);
}

TEST_F(EnvTest, AppendModeContinuesExistingFile) {
  Env* env = Env::Default();
  {
    auto file = env->NewWritableFile(path_, /*truncate=*/true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("abc").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  {
    auto file = env->NewWritableFile(path_, /*truncate=*/false);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("def").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  EXPECT_EQ(*env->ReadFileToString(path_), "abcdef");
}

TEST_F(EnvTest, RenameReplacesAtomically) {
  Env* env = Env::Default();
  auto write = [&](const std::string& p, const std::string& data) {
    auto file = env->NewWritableFile(p, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append(data).ok());
    ASSERT_TRUE((*file)->Close().ok());
  };
  write(path_, "old");
  write(path2_, "new");
  ASSERT_TRUE(env->RenameFile(path2_, path_).ok());
  EXPECT_EQ(*env->ReadFileToString(path_), "new");
  EXPECT_FALSE(env->FileExists(path2_));
  ASSERT_TRUE(env->SyncDir(DirName(path_)).ok());
}

TEST_F(EnvTest, TruncateShrinks) {
  Env* env = Env::Default();
  {
    auto file = env->NewWritableFile(path_, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("0123456789").ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  ASSERT_TRUE(env->TruncateFile(path_, 4).ok());
  EXPECT_EQ(*env->ReadFileToString(path_), "0123");
}

TEST_F(EnvTest, MissingFileErrors) {
  Env* env = Env::Default();
  EXPECT_FALSE(env->FileExists(path_));
  EXPECT_TRUE(env->ReadFileToString(path_).status().IsIOError());
  EXPECT_TRUE(env->GetFileSize(path_).status().IsIOError());
  EXPECT_TRUE(env->RemoveFile(path_).IsIOError());
}

TEST_F(EnvTest, PathHelpers) {
  EXPECT_EQ(DirName("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(DirName("c.txt"), ".");
  EXPECT_EQ(DirName("/c.txt"), "/");
  EXPECT_EQ(BaseName("/a/b/c.txt"), "c.txt");
  EXPECT_EQ(BaseName("c.txt"), "c.txt");
}

// --- FaultInjectingEnv --------------------------------------------------

TEST_F(EnvTest, CrashAfterBytesTearsTheWrite) {
  FaultInjectingEnv env;
  auto file = env.NewWritableFile(path_, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("0123").ok());
  env.CrashAfterBytes(3);
  // 10-byte append, 3-byte budget: the torn 3-byte prefix lands.
  EXPECT_FALSE((*file)->Append("abcdefghij").ok());
  EXPECT_TRUE(env.crashed());
  // Frozen: everything mutating now fails...
  EXPECT_FALSE((*file)->Append("x").ok());
  EXPECT_FALSE((*file)->Sync().ok());
  EXPECT_FALSE(env.NewWritableFile(path2_, true).ok());
  EXPECT_FALSE(env.RenameFile(path_, path2_).ok());
  // ...but reads still work (the test inspects the post-crash disk).
  EXPECT_EQ(*env.ReadFileToString(path_), "0123abc");
}

TEST_F(EnvTest, CrashAfterOpsFreezesBeforeTheOp) {
  FaultInjectingEnv env;
  auto file = env.NewWritableFile(path_, true);  // op 1
  ASSERT_TRUE(file.ok());
  env.CrashAfterOps(1);
  ASSERT_TRUE((*file)->Append("one").ok());   // op 2: allowed
  EXPECT_FALSE((*file)->Append("two").ok());  // op 3: crash, not executed
  EXPECT_TRUE(env.crashed());
  EXPECT_EQ(*env.ReadFileToString(path_), "one");
}

TEST_F(EnvTest, FailOnceIsTransient) {
  FaultInjectingEnv env;
  auto file = env.NewWritableFile(path_, true);
  ASSERT_TRUE(file.ok());
  env.FailOnce(1);
  EXPECT_FALSE((*file)->Append("lost").ok());  // injected failure, no write
  EXPECT_FALSE(env.crashed());
  EXPECT_TRUE((*file)->Append("kept").ok());  // env still alive
  EXPECT_EQ(*env.ReadFileToString(path_), "kept");
}

TEST_F(EnvTest, DropUnsyncedOnCrashKeepsOnlySyncedPrefix) {
  FaultInjectingEnv env;
  env.set_drop_unsynced_on_crash(true);
  auto file = env.NewWritableFile(path_, true);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("-in-page-cache").ok());  // never synced
  env.CrashAfterOps(0);
  EXPECT_FALSE((*file)->Append("x").ok());  // crash fires here
  EXPECT_TRUE(env.crashed());
  // The unsynced suffix evaporated with the "page cache".
  EXPECT_EQ(*env.ReadFileToString(path_), "durable");
}

TEST_F(EnvTest, ResetUnfreezes) {
  FaultInjectingEnv env;
  env.CrashAfterOps(0);
  EXPECT_FALSE(env.NewWritableFile(path_, true).ok());
  EXPECT_TRUE(env.crashed());
  env.Reset();
  EXPECT_FALSE(env.crashed());
  auto file = env.NewWritableFile(path_, true);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->Append("ok").ok());
}

TEST_F(EnvTest, ReopenedAppendFileCountsExistingBytesAsSynced) {
  FaultInjectingEnv env;
  env.set_drop_unsynced_on_crash(true);
  {
    auto file = env.NewWritableFile(path_, true);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE((*file)->Append("persisted").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto file = env.NewWritableFile(path_, /*truncate=*/false);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("+unsynced").ok());
  env.CrashAfterOps(0);
  EXPECT_FALSE((*file)->Sync().ok());
  // Pre-existing bytes survive; only the unsynced new tail is dropped.
  EXPECT_EQ(*env.ReadFileToString(path_), "persisted");
}

}  // namespace
}  // namespace rdfdb::storage
