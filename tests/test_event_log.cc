#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "rdf/bulk_load.h"
#include "rdf/rdf_store.h"
#include "test_temp_dir.h"

namespace rdfdb::obs {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(EventLogTest, EventsDrainInAppendOrderWithContiguousSeq) {
  std::ostringstream sink;
  EventLog::Options options;
  options.sink = &sink;
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());

  for (int i = 0; i < 10; ++i) {
    (*log)->Append("test", "tick", {EventField::Num("i", i)});
  }
  (*log)->Flush();

  std::vector<std::string> lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(lines[i].find("\"seq\":" + std::to_string(i)),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"i\":" + std::to_string(i)), std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"cat\":\"test\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"event\":\"tick\""), std::string::npos);
  }
  EXPECT_EQ((*log)->appended(), 10u);
  EXPECT_EQ((*log)->dropped(), 0u);
  EXPECT_EQ((*log)->written(), 10u);
}

TEST(EventLogTest, FieldsRenderNumbersUnquotedAndStringsEscaped) {
  std::ostringstream sink;
  EventLog::Options options;
  options.sink = &sink;
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());
  (*log)->Append("test", "mixed",
                 {EventField::Num("n", -7),
                  EventField::Str("s", "a \"quoted\"\nvalue")});
  (*log)->Flush();
  const std::string line = sink.str();
  EXPECT_NE(line.find("\"n\":-7"), std::string::npos) << line;
  EXPECT_NE(line.find("\"s\":\"a \\\"quoted\\\"\\nvalue\""),
            std::string::npos)
      << line;
}

// Overload: a stalled drainer (simulated by flooding far beyond
// capacity from inside a single append burst) must drop NEW events and
// count them, never block or corrupt the buffered prefix.
TEST(EventLogTest, OverloadDropsNewEventsAndCountsThem) {
  std::ostringstream sink;
  EventLog::Options options;
  options.sink = &sink;
  options.capacity = 8;
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());

  constexpr uint64_t kBurst = 10000;
  for (uint64_t i = 0; i < kBurst; ++i) {
    (*log)->Append("test", "burst", {EventField::Num("i", static_cast<int64_t>(i))});
  }
  (*log)->Flush();

  // appended counts every Append call; dropped is the subset that never
  // reached the ring, so written + dropped == appended.
  const uint64_t appended = (*log)->appended();
  const uint64_t dropped = (*log)->dropped();
  const uint64_t written = (*log)->written();
  EXPECT_EQ(appended, kBurst);
  EXPECT_EQ(written + dropped, appended);
  // With a ring of 8 against a 10k burst, some drops are certain.
  EXPECT_GT(dropped, 0u);

  // The written prefix is in seq order with gaps only where drops
  // happened: seq values strictly increase.
  std::vector<std::string> lines = Lines(sink.str());
  ASSERT_EQ(lines.size(), written);
  int64_t last_seq = -1;
  for (const std::string& line : lines) {
    auto pos = line.find("\"seq\":");
    ASSERT_NE(pos, std::string::npos);
    int64_t seq = std::strtoll(line.c_str() + pos + 6, nullptr, 10);
    EXPECT_GT(seq, last_seq);
    last_seq = seq;
  }
}

// The TSan target: concurrent producers against the drainer. Every
// appended event must surface exactly once, and the per-log seq must be
// unique across threads.
TEST(EventLogTest, ConcurrentWritersProduceExactlyOnceDelivery) {
  std::ostringstream sink;
  EventLog::Options options;
  options.sink = &sink;
  options.capacity = 1 << 14;  // ample: no drops expected
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        (*log)->Append("test", "mt",
                       {EventField::Num("thread", t),
                        EventField::Num("i", i)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  (*log)->Flush();

  EXPECT_EQ((*log)->appended(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ((*log)->written() + (*log)->dropped(), (*log)->appended());
  std::vector<std::string> lines = Lines(sink.str());
  EXPECT_EQ(lines.size(), (*log)->written());

  std::set<int64_t> seqs;
  for (const std::string& line : lines) {
    auto pos = line.find("\"seq\":");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_TRUE(
        seqs.insert(std::strtoll(line.c_str() + pos + 6, nullptr, 10))
            .second)
        << "duplicate seq in " << line;
  }
}

TEST(EventLogTest, FileSinkAppendsJsonl) {
  test::TestTempDir temp;
  const std::string path = temp.Path("event_log_test.jsonl");
  {
    EventLog::Options options;
    options.path = path;
    auto log = EventLog::Open(std::move(options));
    ASSERT_TRUE(log.ok());
    (*log)->Append("test", "file", {EventField::Str("k", "v")});
  }  // destructor drains + closes
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"event\":\"file\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(EventLogTest, LogErrorEventIsNullSafeAndStructured) {
  LogErrorEvent(nullptr, "Nowhere", Status::NotFound("x"));  // must not crash

  std::ostringstream sink;
  EventLog::Options options;
  options.sink = &sink;
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());
  LogErrorEvent(log->get(), "BulkLoad", Status::InvalidArgument("bad line"));
  (*log)->Flush();
  const std::string line = sink.str();
  EXPECT_NE(line.find("\"cat\":\"error\""), std::string::npos) << line;
  EXPECT_NE(line.find("BulkLoad"), std::string::npos);
  EXPECT_NE(line.find("bad line"), std::string::npos);
}

// End-to-end through the store: lifecycle, DDL, bulk-load chunk and
// done events arrive in causal order.
TEST(EventLogTest, StoreEmitsLifecycleModelAndBulkLoadEvents) {
  std::ostringstream sink;
  EventLog::Options options;
  options.sink = &sink;
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());
  {
    rdf::RdfStore store;
    store.set_event_log(log->get());
    ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
    std::vector<rdf::NTriple> triples;
    for (int i = 0; i < 50; ++i) {
      triples.push_back({rdf::Term::Uri("urn:s" + std::to_string(i)),
                         rdf::Term::Uri("urn:p"),
                         rdf::Term::PlainLiteral("v")});
    }
    ASSERT_TRUE(rdf::BulkLoad(&store, "m", triples).ok());
    EXPECT_FALSE(store.CreateRdfModel("m", "mdata", "triple").ok());
  }  // store close event
  (*log)->Flush();

  const std::string text = sink.str();
  const auto attach = text.find("\"event\":\"attach\"");
  const auto create = text.find("\"event\":\"create\"");
  const auto chunk = text.find("\"event\":\"chunk\"");
  const auto done = text.find("\"event\":\"done\"");
  const auto error = text.find("\"cat\":\"error\"");
  const auto close = text.find("\"event\":\"close\"");
  ASSERT_NE(attach, std::string::npos);
  ASSERT_NE(create, std::string::npos);
  ASSERT_NE(chunk, std::string::npos);
  ASSERT_NE(done, std::string::npos);
  ASSERT_NE(error, std::string::npos);  // duplicate CreateRdfModel
  ASSERT_NE(close, std::string::npos);
  EXPECT_LT(attach, create);
  EXPECT_LT(create, chunk);
  EXPECT_LT(chunk, done);
  EXPECT_LT(done, error);
  EXPECT_LT(error, close);
  EXPECT_NE(text.find("\"new_links\":50"), std::string::npos) << text;
}

}  // namespace
}  // namespace rdfdb::obs
