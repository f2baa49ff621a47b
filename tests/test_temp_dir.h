// Per-test scratch directories.
//
// gtest_discover_tests registers every test case as its own ctest
// entry, so the cases of one binary run as concurrent processes under
// `ctest -j`. A fixed file name under ::testing::TempDir() is then
// shared between them and the cases race. TestTempDir gives the running
// case its own empty directory, named after the suite, the test and the
// process id, and removes it again when it goes out of scope.

#ifndef RDFDB_TESTS_TEST_TEMP_DIR_H_
#define RDFDB_TESTS_TEST_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace rdfdb::test {

class TestTempDir {
 public:
  TestTempDir() {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = info == nullptr
                           ? std::string("global")
                           : std::string(info->test_suite_name()) + "." +
                                 info->name();
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized suite and test names
    }
    dir_ = (std::filesystem::path(::testing::TempDir()) /
            ("rdfdb_" + name + "_" + std::to_string(::getpid())))
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }

  ~TestTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  TestTempDir(const TestTempDir&) = delete;
  TestTempDir& operator=(const TestTempDir&) = delete;

  const std::string& dir() const { return dir_; }

  /// `name` inside the directory.
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

}  // namespace rdfdb::test

#endif  // RDFDB_TESTS_TEST_TEMP_DIR_H_
