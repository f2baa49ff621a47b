#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/active_ops.h"
#include "obs/crash_dump.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "test_temp_dir.h"

namespace rdfdb::obs {
namespace {

// ---------------------------------------------------------------------
// Active-operation registry
// ---------------------------------------------------------------------

TEST(ActiveOps, GuardRegistersAndReleases) {
  const size_t before = ActiveOpCount();
  {
    ActiveOpGuard guard(OpKind::kQuery, "(?s ?p ?o)");
    ASSERT_TRUE(guard.registered());
    EXPECT_EQ(ActiveOpCount(), before + 1);
    std::vector<ActiveOpInfo> ops = ActiveOpsSnapshot();
    bool found = false;
    for (const ActiveOpInfo& op : ops) {
      if (op.id != guard.id()) continue;
      found = true;
      EXPECT_EQ(op.kind, OpKind::kQuery);
      EXPECT_EQ(op.detail, "(?s ?p ?o)");
      EXPECT_GE(op.age_ns, 0);
      EXPECT_GT(op.start_unix_ns, 0);
      EXPECT_NE(op.tid, 0u);
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(ActiveOpCount(), before);
}

TEST(ActiveOps, DetailTruncatedToSlotCapacity) {
  const std::string longdetail(4 * kActiveOpDetailBytes, 'x');
  ActiveOpGuard guard(OpKind::kBulkLoad, longdetail);
  for (const ActiveOpInfo& op : ActiveOpsSnapshot()) {
    if (op.id != guard.id()) continue;
    EXPECT_EQ(op.detail.size(), kActiveOpDetailBytes - 1);
    EXPECT_EQ(op.detail, longdetail.substr(0, kActiveOpDetailBytes - 1));
  }
}

TEST(ActiveOps, SummaryExcludesTheAskingOp) {
  ActiveOpGuard self(OpKind::kQuery, "the slow query itself");
  ActiveOpGuard other(OpKind::kBulkLoad, "concurrent load");
  const std::string summary = ActiveOpsSummaryExcluding(self.id());
  EXPECT_NE(summary.find("bulkload:1"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("query"), std::string::npos) << summary;
}

TEST(ActiveOps, LiveCpuAndAllocDeltasAreSane) {
  ActiveOpGuard guard(OpKind::kQuery, "busy");
  // Do some attributable work on this thread.
  std::string sink;
  for (int i = 0; i < 1000; ++i) sink += std::to_string(i);
  for (const ActiveOpInfo& op : ActiveOpsSnapshot()) {
    if (op.id != guard.id()) continue;
    EXPECT_GE(op.cpu_ns, 0);
    // Alloc deltas come from this thread's counter block, so the loop
    // above must be visible.
    EXPECT_GT(op.alloc_bytes, 0u);
    EXPECT_GT(op.allocs, 0u);
  }
}

TEST(ActiveOps, RenderActivityzIsWellFormedJson) {
  ActiveOpGuard guard(OpKind::kCheckpoint, "snap.\"v1\"");
  const std::string json = RenderActivityz();
  EXPECT_NE(json.find("\"active\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"registered_total\":"), std::string::npos);
  EXPECT_NE(json.find("\"checkpoint\""), std::string::npos) << json;
  // The quote inside the detail string must be escaped.
  EXPECT_NE(json.find("snap.\\\"v1\\\""), std::string::npos) << json;
}

// Seqlock torture: writers churn guards while readers snapshot. The
// assertion is that every observed op is internally consistent (valid
// kind, bounded age) — a torn read would show garbage kinds/details.
TEST(ActiveOps, SeqlockSurvivesConcurrentChurn) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      while (!stop.load(std::memory_order_relaxed)) {
        ActiveOpGuard guard(w % 2 == 0 ? OpKind::kQuery : OpKind::kBulkLoad,
                            "churn-" + std::to_string(w));
        (void)guard;
      }
    });
  }
  std::atomic<uint64_t> observed{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&stop, &observed] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (const ActiveOpInfo& op : ActiveOpsSnapshot()) {
          observed.fetch_add(1, std::memory_order_relaxed);
          EXPECT_GE(static_cast<uint32_t>(op.kind), 1u);
          EXPECT_LE(static_cast<uint32_t>(op.kind), 5u);
          EXPECT_LT(op.detail.size(), kActiveOpDetailBytes);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(ActiveOpsRegistered(), 0u);
}

// ---------------------------------------------------------------------
// Flight recorder: ring, reductions, render/parse
// ---------------------------------------------------------------------

class FlightRecorderTest : public ::testing::Test {
 protected:
  FlightRecorder::Options BaseOptions() {
    FlightRecorder::Options options;
    options.registry = &registry_;
    // A long thread interval: tests drive sampling via SampleNow() so
    // the ring contents are deterministic.
    options.sample_interval_ms = 60'000;
    return options;
  }

  MetricsRegistry registry_;
};

TEST_F(FlightRecorderTest, StartValidatesOptions) {
  FlightRecorder::Options options;  // no registry
  EXPECT_FALSE(FlightRecorder::Start(std::move(options)).ok());
  FlightRecorder::Options bad_interval = BaseOptions();
  bad_interval.sample_interval_ms = 0;
  EXPECT_FALSE(FlightRecorder::Start(std::move(bad_interval)).ok());
  FlightRecorder::Options bad_capacity = BaseOptions();
  bad_capacity.history_capacity = 0;
  EXPECT_FALSE(FlightRecorder::Start(std::move(bad_capacity)).ok());
}

TEST_F(FlightRecorderTest, RingWrapsAtCapacity) {
  Counter* work = registry_.RegisterCounter("test_work_total", "test");
  FlightRecorder::Options options = BaseOptions();
  options.history_capacity = 5;
  auto recorder = FlightRecorder::Start(std::move(options));
  ASSERT_TRUE(recorder.ok());
  for (int i = 0; i < 9; ++i) {
    work->Inc();
    (*recorder)->SampleNow();
  }
  const std::vector<HistoryPoint> history = (*recorder)->History();
  EXPECT_EQ(history.size(), 5u);
  EXPECT_GE((*recorder)->samples(), 9u);
  // Oldest-first ordering.
  for (size_t i = 1; i < history.size(); ++i) {
    EXPECT_GE(history[i].unix_ms, history[i - 1].unix_ms);
  }
}

TEST_F(FlightRecorderTest, ReducesCountersGaugesAndHistograms) {
  Counter* c = registry_.RegisterCounter("test_ops_total", "test");
  Gauge* g = registry_.RegisterGauge("test_depth", "test");
  Histogram* h = registry_.RegisterHistogram("test_latency_ns", "test",
                                             DefaultLatencyBucketsNs());
  auto recorder = FlightRecorder::Start(BaseOptions());
  ASSERT_TRUE(recorder.ok());

  c->Inc(100);
  g->Set(42);
  for (int i = 1; i <= 100; ++i) h->Observe(i * 1000);
  (*recorder)->SampleNow();

  const std::vector<HistoryPoint> history = (*recorder)->History();
  ASSERT_FALSE(history.empty());
  const HistoryPoint& point = history.back();
  ASSERT_TRUE(point.series.count("test_ops_total.rate"));
  EXPECT_GT(point.series.at("test_ops_total.rate"), 0.0);
  ASSERT_TRUE(point.series.count("test_depth"));
  EXPECT_EQ(point.series.at("test_depth"), 42.0);
  ASSERT_TRUE(point.series.count("test_latency_ns.p50"));
  ASSERT_TRUE(point.series.count("test_latency_ns.p95"));
  ASSERT_TRUE(point.series.count("test_latency_ns.p99"));
  EXPECT_GT(point.series.at("test_latency_ns.p99"),
            point.series.at("test_latency_ns.p50") * 0.99);
  ASSERT_TRUE(point.series.count("test_latency_ns.rate"));
  // The synthetic active-op series is always present.
  ASSERT_TRUE(point.series.count("rdfdb_active_ops"));
}

TEST_F(FlightRecorderTest, HealthSignalSeriesLandInTheRing) {
  // The PR 7 degraded-health signals: retention age (a plain gauge, so
  // it flows through the registry reduction) and event-log drop rates
  // (synthetic, from the attached EventLog's counters).
  Gauge* age = registry_.RegisterGauge("rdfdb_version_retention_age_seconds",
                                       "test retention age");
  age->Set(17);
  std::ostringstream sink;
  EventLog::Options log_options;
  log_options.sink = &sink;
  auto log = EventLog::Open(std::move(log_options));
  ASSERT_TRUE(log.ok());
  (*log)->Append("test", "x");

  FlightRecorder::Options options = BaseOptions();
  options.events = log->get();
  auto recorder = FlightRecorder::Start(std::move(options));
  ASSERT_TRUE(recorder.ok());
  (*recorder)->SampleNow();

  const std::vector<HistoryPoint> history = (*recorder)->History();
  ASSERT_FALSE(history.empty());
  const HistoryPoint& point = history.back();
  ASSERT_TRUE(point.series.count("rdfdb_version_retention_age_seconds"));
  EXPECT_EQ(point.series.at("rdfdb_version_retention_age_seconds"), 17.0);
  ASSERT_TRUE(point.series.count("rdfdb_event_log_appended_total.rate"));
  ASSERT_TRUE(point.series.count("rdfdb_event_log_dropped_total.rate"));
}

TEST_F(FlightRecorderTest, BackgroundSamplerTicksOnItsOwn) {
  FlightRecorder::Options options = BaseOptions();
  options.sample_interval_ms = 10;
  auto recorder = FlightRecorder::Start(std::move(options));
  ASSERT_TRUE(recorder.ok());
  for (int i = 0; i < 200 && (*recorder)->samples() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE((*recorder)->samples(), 3u);
}

TEST_F(FlightRecorderTest, RenderParseRoundtrip) {
  Counter* c = registry_.RegisterCounter("test_rt_total", "test");
  Gauge* g = registry_.RegisterGauge("test_rt_depth", "test");
  auto recorder = FlightRecorder::Start(BaseOptions());
  ASSERT_TRUE(recorder.ok());
  for (int i = 0; i < 4; ++i) {
    c->Inc(7);
    g->Set(i);
    (*recorder)->SampleNow();
  }

  const std::string text = (*recorder)->RenderHistoryText();
  auto parsed = ParseHistoryText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(parsed->interval_ms, (*recorder)->sample_interval_ms());
  EXPECT_EQ(parsed->t_unix_ms.size(), 4u);
  ASSERT_TRUE(parsed->series.count("test_rt_depth"));
  const std::vector<double>& depth = parsed->series.at("test_rt_depth");
  ASSERT_EQ(depth.size(), 4u);
  EXPECT_EQ(depth[0], 0.0);
  EXPECT_EQ(depth[3], 3.0);

  const std::string json = (*recorder)->RenderHistoryJson();
  EXPECT_NE(json.find("\"interval_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"points\": 4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test_rt_depth\""), std::string::npos);
}

TEST_F(FlightRecorderTest, SeriesAppearingMidRingParsesAsMissing) {
  auto recorder = FlightRecorder::Start(BaseOptions());
  ASSERT_TRUE(recorder.ok());
  (*recorder)->SampleNow();
  // A gauge registered after the first sample has no value there.
  Gauge* late = registry_.RegisterGauge("test_late_gauge", "test");
  late->Set(5);
  (*recorder)->SampleNow();

  auto parsed = ParseHistoryText((*recorder)->RenderHistoryText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(parsed->series.count("test_late_gauge"));
  const std::vector<double>& values = parsed->series.at("test_late_gauge");
  ASSERT_EQ(values.size(), 2u);
  EXPECT_TRUE(std::isnan(values[0]));
  EXPECT_EQ(values[1], 5.0);
}

TEST(ParseHistoryText, RejectsMalformedInput) {
  EXPECT_FALSE(ParseHistoryText("").ok());
  EXPECT_FALSE(ParseHistoryText("not a history\n").ok());
  EXPECT_FALSE(ParseHistoryText("flight_history v2\ninterval_ms 5\n").ok());
  // Declared three points but the series row carries two values.
  EXPECT_FALSE(ParseHistoryText("flight_history v1\ninterval_ms 1000\n"
                                "points 3\nt_unix_ms 1 2 3\nseries_a 1 2\n")
                   .ok());
}

TEST(ParseHistoryText, AcceptsTheDocumentedShape) {
  auto parsed = ParseHistoryText(
      "flight_history v1\ninterval_ms 250\npoints 3\n"
      "t_unix_ms 1000 1250 1500\nfoo.rate 1 2.5 -\nbar - - 9\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->interval_ms, 250);
  ASSERT_EQ(parsed->t_unix_ms.size(), 3u);
  EXPECT_EQ(parsed->t_unix_ms[2], 1500);
  EXPECT_EQ(parsed->series.at("foo.rate")[1], 2.5);
  EXPECT_TRUE(std::isnan(parsed->series.at("foo.rate")[2]));
  EXPECT_TRUE(std::isnan(parsed->series.at("bar")[0]));
  EXPECT_EQ(parsed->series.at("bar")[2], 9.0);
}

TEST(Sparkline, ScalesToSeriesRangeAndSkipsNaN) {
  EXPECT_EQ(Sparkline({}), "");
  EXPECT_EQ(Sparkline({3.0, 3.0, 3.0}), "▁▁▁");  // flat series
  EXPECT_EQ(Sparkline({0.0, 7.0}), "▁█");
  const std::string with_gap =
      Sparkline({0.0, std::nan(""), 7.0});
  EXPECT_EQ(with_gap, "▁ █");
}

TEST(FlightRecorderDefaults, CoverAtLeastThirtySecondsOfHistory) {
  EXPECT_GE(kDefaultSampleIntervalMs * static_cast<int64_t>(
                kDefaultHistoryCapacity),
            30'000);
}

// ---------------------------------------------------------------------
// Black box integration (live-process side; crash side is
// test_crash_dump.cc)
// ---------------------------------------------------------------------

TEST_F(FlightRecorderTest, BlackBoxMirrorsHistoryAndEvents) {
  test::TestTempDir temp;
  const std::string path = temp.Path("flight_recorder_bb.bin");
  Gauge* g = registry_.RegisterGauge("test_bb_gauge", "test");
  std::ostringstream sink;
  EventLog::Options log_options;
  log_options.sink = &sink;
  auto log = EventLog::Open(std::move(log_options));
  ASSERT_TRUE(log.ok());
  (*log)->Append("test", "\"note\":\"remembered\"");

  FlightRecorder::Options options = BaseOptions();
  options.events = log->get();
  options.black_box_path = path;
  auto recorder = FlightRecorder::Start(std::move(options));
  ASSERT_TRUE(recorder.ok());
  ASSERT_NE((*recorder)->black_box(), nullptr);
  g->Set(123);
  // The black box mirrors the event log's drained tail; drain the
  // appended event before sampling so the mirror cannot miss it.
  (*log)->Flush();
  (*recorder)->SampleNow();
  (*recorder)->SampleNow();

  // Read the file back the way rdfdb_postmortem would. The process is
  // alive, so the dump is "incomplete" (no crash record) but the
  // pre-serialized regions must already be in place.
  auto pm = ReadBlackBox(path);
  ASSERT_TRUE(pm.ok()) << pm.status().ToString();
  EXPECT_FALSE(pm->complete);
  EXPECT_EQ(pm->signo, 0);
  auto parsed = ParseHistoryText(pm->history_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->t_unix_ms.size(), 2u);
  ASSERT_TRUE(parsed->series.count("test_bb_gauge"));
  EXPECT_EQ(parsed->series.at("test_bb_gauge").back(), 123.0);
  EXPECT_NE(pm->events_tail.find("remembered"), std::string::npos)
      << pm->events_tail;
}

}  // namespace
}  // namespace rdfdb::obs
