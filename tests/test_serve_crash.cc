// Server-level crash tests for rdfdb_serve --data.
//
// AcknowledgedWritesSurviveSigkill imports a small N-Triples file into
// an empty data directory, acknowledges batched /insert and /reify
// requests, SIGKILLs the server, checks the directory with rdfdb_fsck
// (OK or TORN only), restarts the server on the same directory and
// queries every acknowledged write back. A graceful stop then
// checkpoints, and fsck must find every file OK.
//
// ImportIsAllOrNothing fails an import halfway through its file and
// SIGKILLs others mid-import: a restart must serve the whole file.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rdf/rdf_store.h"
#include "server/http.h"
#include "test_temp_dir.h"

namespace rdfdb {
namespace {

constexpr int kImported = 8;
constexpr int kInserts = 12;             // /insert requests ...
constexpr int kStatementsPerInsert = 3;  // ... of this many statements
constexpr int kClients = 3;              // ... sent by concurrent clients
constexpr int kReifications = 4;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Fork and exec `argv`, with stdout and stderr going to `output`.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& output) {
  pid_t pid = ::fork();
  if (pid == 0) {
    int fd = ::open(output.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) ::_exit(127);
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
    std::vector<char*> args;
    for (const std::string& arg : argv) {
      args.push_back(const_cast<char*>(arg.c_str()));
    }
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  return pid;
}

int WaitExit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// One rdfdb_serve process on an ephemeral port.
class Server {
 public:
  Server(const std::string& data_dir, const std::vector<std::string>& extra,
         const std::string& log_path)
      : log_path_(log_path) {
    std::vector<std::string> argv = {RDFDB_SERVE_BIN, "--port", "0",
                                     "--workers", "2", "--data", data_dir};
    argv.insert(argv.end(), extra.begin(), extra.end());
    pid_ = Spawn(argv, log_path_);
    // The banner names the bound port once the store is open.
    const std::string banner = "rdfdb_serve on http://127.0.0.1:";
    for (int i = 0; i < 600 && port_ == 0; ++i) {
      const std::string log = ReadFile(log_path_);
      const size_t at = log.find(banner);
      if (at != std::string::npos) {
        port_ = static_cast<uint16_t>(std::atoi(log.c_str() + at +
                                                banner.size()));
      } else if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
  }

  ~Server() {
    if (pid_ > 0) Stop(SIGKILL);
  }

  uint16_t port() const { return port_; }
  std::string log() const { return ReadFile(log_path_); }

  /// Send `signal` and reap the process; returns its exit code.
  int Stop(int signal) {
    if (pid_ <= 0) return -1;  // never kill(-1, ...)
    ::kill(pid_, signal);
    const int code = WaitExit(pid_);
    pid_ = -1;
    return code;
  }

  Result<server::HttpClientResponse> Request(const std::string& method,
                                             const std::string& target,
                                             const std::string& body = "") {
    return server::HttpRoundTrip("127.0.0.1", port_, method, target, {},
                                 body, /*timeout_ms=*/10000);
  }

 private:
  std::string log_path_;
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

std::string Subject(int i) {
  return "<urn:crash:s" + std::to_string(i) + ">";
}

std::string Statement(int i) {
  return Subject(i) + " <urn:crash:p> \"v" + std::to_string(i) + "\" .\n";
}

class ServeCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_dir_ = temp_.Path("data");
    import_path_ = temp_.Path("import.nt");
    std::ofstream import(import_path_);
    for (int i = 0; i < kImported; ++i) import << Statement(i);
  }

  /// rdfdb_fsck over every file in the data directory; each verdict
  /// must be one of `allowed`.
  void ExpectFsck(const std::vector<std::string>& allowed) {
    std::vector<std::string> argv = {RDFDB_FSCK_BIN};
    for (const auto& entry : std::filesystem::directory_iterator(data_dir_)) {
      argv.push_back(entry.path().string());
    }
    ASSERT_GT(argv.size(), 1u);
    const std::string output = temp_.Path("fsck.out");
    EXPECT_EQ(WaitExit(Spawn(argv, output)), 0) << ReadFile(output);
    std::istringstream lines(ReadFile(output));
    std::string line;
    size_t verdicts = 0;
    while (std::getline(lines, line)) {
      const std::string verdict = line.substr(0, line.find(' '));
      EXPECT_NE(std::find(allowed.begin(), allowed.end(), verdict),
                allowed.end())
          << line;
      ++verdicts;
    }
    EXPECT_EQ(verdicts, argv.size() - 1);
  }

  /// The LINK_ID of imported triple `i`, read from the snapshot the
  /// import saved.
  rdf::LinkId ImportedLinkId(int i) {
    auto store = rdf::RdfStore::Open(data_dir_ + "/store");
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return -1;
    auto id = (*store)->GetTripleId("m", Subject(i), "<urn:crash:p>",
                                    "\"v" + std::to_string(i) + "\"");
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : -1;
  }

  /// Query every `<urn:crash:p>` statement; expect `count` rows.
  void ExpectStatements(Server& server, int count) {
    auto triples = server.Request(
        "GET", "/query?model=m&q=" +
                   server::PercentEncode("(?s <urn:crash:p> ?o)"));
    ASSERT_TRUE(triples.ok()) << triples.status().ToString();
    ASSERT_EQ(triples->status, 200) << triples->body;
    const std::string& body = triples->body;
    EXPECT_NE(body.find("\"row_count\": " + std::to_string(count)),
              std::string::npos)
        << body.substr(0, 200);
    const std::string tag = "urn:crash:s";
    std::vector<bool> seen(count, false);
    for (size_t at = body.find(tag); at != std::string::npos;
         at = body.find(tag, at)) {
      at += tag.size();
      const int i = std::atoi(body.c_str() + at);
      if (i >= 0 && i < count) seen[i] = true;
    }
    for (int i = 0; i < count; ++i) {
      EXPECT_TRUE(seen[i]) << "statement " << i << " lost";
    }
  }

  test::TestTempDir temp_;
  std::string data_dir_;
  std::string import_path_;
};

TEST_F(ServeCrashTest, ImportIsAllOrNothing) {
  // A file that fails to parse halfway: the server exits without
  // serving and leaves no store behind.
  const std::string bad_path = temp_.Path("bad.nt");
  {
    std::ofstream bad(bad_path);
    for (int i = 0; i < kImported; ++i) bad << Statement(i);
    bad << "not a statement\n";
    for (int i = 0; i < kImported; ++i) bad << Statement(kImported + i);
  }
  {
    Server server(data_dir_, {bad_path, "m"}, temp_.Path("bad.log"));
    EXPECT_EQ(server.port(), 0);
    EXPECT_NE(server.log().find("load: "), std::string::npos)
        << server.log();
  }
  EXPECT_FALSE(std::filesystem::exists(data_dir_ + "/store"));

  // SIGKILL during the import of a larger file, at a few points. After
  // each kill the directory holds no store, or the whole import.
  constexpr int kLarge = 20000;
  const std::string large_path = temp_.Path("large.nt");
  {
    std::ofstream large(large_path);
    for (int i = 0; i < kLarge; ++i) large << Statement(i);
  }
  for (int delay_ms : {20, 150, 450}) {
    const pid_t pid = Spawn({RDFDB_SERVE_BIN, "--port", "0", "--data",
                             data_dir_, large_path, "m"},
                            temp_.Path("killed.log"));
    ASSERT_GT(pid, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ::kill(pid, SIGKILL);
    EXPECT_EQ(WaitExit(pid), 128 + SIGKILL);
    if (std::filesystem::exists(data_dir_ + "/store")) {
      auto store = rdf::RdfStore::Open(data_dir_ + "/store");
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      EXPECT_EQ((*store)->links().TotalTripleCount(),
                static_cast<size_t>(kLarge))
          << "killed after " << delay_ms << " ms";
    }
  }

  // The restart completes the import (or finds it complete).
  Server server(data_dir_, {large_path, "m"}, temp_.Path("restart.log"));
  ASSERT_NE(server.port(), 0) << server.log();
  ExpectStatements(server, kLarge);
  EXPECT_EQ(server.Stop(SIGTERM), 0) << server.log();
  ExpectFsck({"OK"});
}

TEST_F(ServeCrashTest, AcknowledgedWritesSurviveSigkill) {
  std::vector<rdf::LinkId> reified;
  {
    Server server(data_dir_, {import_path_, "m"}, temp_.Path("run1.log"));
    ASSERT_NE(server.port(), 0) << server.log();
    // The clients' batches and this thread's reifications interleave on
    // the store's writer lock and in the log.
    std::atomic<int> failed_inserts{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = c; r < kInserts; r += kClients) {
          std::string body;
          for (int k = 0; k < kStatementsPerInsert; ++k) {
            body += Statement(kImported + r * kStatementsPerInsert + k);
          }
          auto response = server.Request("POST", "/insert?model=m", body);
          if (!response.ok() || response->status != 200) ++failed_inserts;
        }
      });
    }
    for (int i = 0; i < kReifications; ++i) {
      const rdf::LinkId id = ImportedLinkId(i);
      auto response = server.Request(
          "POST", "/reify?model=m&id=" + std::to_string(id));
      EXPECT_TRUE(response.ok() && response->status == 200)
          << (response.ok() ? response->body : response.status().ToString());
      reified.push_back(id);
    }
    for (std::thread& client : clients) client.join();
    ASSERT_EQ(failed_inserts.load(), 0);
    ASSERT_FALSE(HasFailure());
    EXPECT_EQ(server.Stop(SIGKILL), 128 + SIGKILL);
  }

  // The files a killed server leaves are intact, or end in a torn
  // final log record that recovery truncates.
  ExpectFsck({"OK", "TORN"});

  Server server(data_dir_, {}, temp_.Path("run2.log"));
  ASSERT_NE(server.port(), 0) << server.log();
  ExpectStatements(server, kImported + kInserts * kStatementsPerInsert);

  auto statements = server.Request(
      "GET",
      "/query?model=m&q=" +
          server::PercentEncode(
              "(?r <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
              "<http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement>)"));
  ASSERT_TRUE(statements.ok()) << statements.status().ToString();
  ASSERT_EQ(statements->status, 200) << statements->body;
  EXPECT_NE(statements->body.find("\"row_count\": " +
                                  std::to_string(kReifications)),
            std::string::npos)
      << statements->body;
  for (rdf::LinkId id : reified) {
    EXPECT_NE(statements->body.find("LINK_ID=" + std::to_string(id) + "]"),
              std::string::npos)
        << "reification of " << id << " lost";
  }

  // A graceful drain checkpoints: every file is then OK.
  EXPECT_EQ(server.Stop(SIGTERM), 0) << server.log();
  ExpectFsck({"OK"});
}

}  // namespace
}  // namespace rdfdb
