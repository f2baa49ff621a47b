#include "obs/stats_router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "obs/active_ops.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/resource_tracker.h"
#include "obs/slow_query_log.h"
#include "obs/span_timeline.h"
#include "query/match.h"
#include "rdf/rdf_store.h"

namespace rdfdb::obs {
namespace {

// The suite keeps its earlier name so its test ids stay stable.
class StatsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("m", "mdata", "triple").ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store_
                      .InsertTriple("m", "<urn:s" + std::to_string(i) + ">",
                                    "<urn:p>", "\"v\"")
                      .ok());
    }
  }

  StatsRouter::Sources FullSources() {
    StatsRouter::Sources sources;
    sources.registry = &store_.metrics_registry();
    sources.slow_queries = &slow_;
    sources.timeline = &timeline_;
    return sources;
  }

  rdf::RdfStore store_;
  SlowQueryLog slow_{/*threshold_ns=*/0};
  Timeline timeline_;
};

TEST_F(StatsServerTest, HandleRoutesAllEndpoints) {
  // Drive one traced query through the store so every surface has data.
  store_.set_slow_query_log(&slow_);
  store_.set_timeline(&timeline_);
  query::MatchOptions options;
  ASSERT_TRUE(query::SdoRdfMatch(&store_, nullptr, "(?s <urn:p> ?o)",
                                 {"m"}, {}, {}, "", options)
                  .ok());

  StatsRouter server(FullSources());

  StatsRouter::Response health = server.Handle("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  StatsRouter::Response metrics = server.Handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(metrics.body.find("rdfdb_link_inserts_total 8"),
            std::string::npos);

  StatsRouter::Response varz = server.Handle("/varz");
  EXPECT_EQ(varz.status, 200);
  EXPECT_NE(varz.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(varz.body.find("\"uptime_seconds\""), std::string::npos);
  EXPECT_NE(varz.body.find("\"metrics\""), std::string::npos);
  EXPECT_NE(varz.body.find("\"slow_queries_captured\""), std::string::npos);

  StatsRouter::Response slow = server.Handle("/slow");
  EXPECT_EQ(slow.status, 200);
  EXPECT_NE(slow.body.find("(?s <urn:p> ?o)"), std::string::npos);

  StatsRouter::Response trace = server.Handle("/timeline");
  EXPECT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);

  StatsRouter::Response missing = server.Handle("/nope");
  EXPECT_EQ(missing.status, 404);
}

TEST_F(StatsServerTest, DetachedSurfacesReturn404) {
  StatsRouter::Sources sources;
  sources.registry = &store_.metrics_registry();
  StatsRouter server(sources);
  EXPECT_EQ(server.Handle("/slow").status, 404);
  EXPECT_EQ(server.Handle("/timeline").status, 404);
  EXPECT_EQ(server.Handle("/metrics").status, 200);
}

TEST_F(StatsServerTest, VarzRatesReflectActivityBetweenScrapes) {
  StatsRouter server(FullSources());
  (void)server.Handle("/varz");  // establish the previous snapshot
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  query::MatchOptions options;
  ASSERT_TRUE(query::SdoRdfMatch(&store_, nullptr, "(?s <urn:p> ?o)",
                                 {"m"}, {}, {}, "", options)
                  .ok());
  StatsRouter::Response varz = server.Handle("/varz");
  EXPECT_NE(varz.body.find("\"rdfdb_query_total\""), std::string::npos)
      << varz.body;
}

TEST_F(StatsServerTest, QueryStringIsStrippedFromRouting) {
  StatsRouter server(FullSources());
  StatsRouter::Response resp = server.Handle("/metrics?format=prometheus");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("rdfdb_link_inserts_total"), std::string::npos);
  EXPECT_EQ(server.Handle("/nope?x=1").status, 404);
}

TEST_F(StatsServerTest, ProfilezCapturesCollapsedStacksUnderLoad) {
  StatsRouter server(FullSources());
  std::atomic<bool> stop{false};
  std::thread burner([&] {
    volatile uint64_t acc = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 4096; ++i) acc = acc + static_cast<uint64_t>(i);
    }
  });
  StatsRouter::Response resp = server.Handle("/profilez?seconds=0.3");
  stop.store(true, std::memory_order_relaxed);
  burner.join();

  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("text/plain"), std::string::npos);
  ASSERT_FALSE(resp.body.empty());
  // Every line is flamegraph collapsed format: "frame(;frame)* count".
  std::istringstream in(resp.body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    for (size_t i = space + 1; i < line.size(); ++i) {
      EXPECT_TRUE(std::isdigit(line[i])) << line;
    }
  }
}

TEST_F(StatsServerTest, AlloczReportsLedgerAndScopes) {
  StatsRouter server(FullSources());
  {
    ResourceScope scope("statsz_test_scope");
    delete[] new char[1024];
  }
  StatsRouter::Response resp = server.Handle("/allocz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"heap_live_bytes\""), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"scopes\""), std::string::npos);
  EXPECT_NE(resp.body.find("statsz_test_scope"), std::string::npos);
}

TEST_F(StatsServerTest, HealthzDegradesOnEpochLagGauge) {
  MetricsRegistry registry;
  Gauge* lag = registry.RegisterGauge("rdfdb_oldest_pinned_epoch_lag",
                                      "test epoch lag");
  StatsRouter::Sources sources;
  sources.registry = &registry;
  sources.unhealthy_epoch_lag = 100;
  StatsRouter server(sources);

  EXPECT_EQ(server.Handle("/healthz").status, 200);
  lag->Set(5000);
  StatsRouter::Response resp = server.Handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("degraded:"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("epoch_lag=5000"), std::string::npos) << resp.body;
  lag->Set(0);
  EXPECT_EQ(server.Handle("/healthz").status, 200);
}

TEST_F(StatsServerTest, HealthzDegradesOnRetainedVersionAge) {
  MetricsRegistry registry;
  Gauge* age = registry.RegisterGauge("rdfdb_version_retention_age_seconds",
                                      "test retention age");
  StatsRouter::Sources sources;
  sources.registry = &registry;
  StatsRouter server(sources);

  age->Set(30);  // below the default 60 s threshold
  EXPECT_EQ(server.Handle("/healthz").status, 200);
  age->Set(120);
  StatsRouter::Response resp = server.Handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("retention_age_seconds=120"), std::string::npos)
      << resp.body;

  // A raised threshold makes the same reading healthy.
  StatsRouter::Sources relaxed;
  relaxed.registry = &registry;
  relaxed.unhealthy_retention_age_seconds = 1000.0;
  StatsRouter lenient(relaxed);
  EXPECT_EQ(lenient.Handle("/healthz").status, 200);
}

TEST_F(StatsServerTest, HealthzCountsOnlyNewEventLogDrops) {
  std::ostringstream out;
  EventLog::Options options;
  options.sink = &out;
  options.capacity = 1;  // one slot: a burst overwhelms the drainer
  auto log = EventLog::Open(std::move(options));
  ASSERT_TRUE(log.ok());

  auto force_drops = [&] {
    const uint64_t before = (*log)->dropped();
    for (int i = 0; i < 1000000 && (*log)->dropped() == before; ++i) {
      (*log)->Append("test", "spam");
    }
    return (*log)->dropped() > before;
  };
  // Drops that happened before the server existed are history.
  ASSERT_TRUE(force_drops());

  StatsRouter::Sources sources;
  sources.registry = &store_.metrics_registry();
  sources.events = log->get();
  StatsRouter server(sources);
  EXPECT_EQ(server.Handle("/healthz").status, 200);

  ASSERT_TRUE(force_drops());
  StatsRouter::Response resp = server.Handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("event_log_drops="), std::string::npos)
      << resp.body;
  // The check consumed the watermark: with no further drops, healthy.
  EXPECT_EQ(server.Handle("/healthz").status, 200);
}

TEST_F(StatsServerTest, ActivityzListsRegisteredOperations) {
  StatsRouter server(FullSources());
  ActiveOpGuard guard(OpKind::kBulkLoad, "statsz bulk op");
  StatsRouter::Response resp = server.Handle("/activityz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.content_type.find("application/json"), std::string::npos);
  EXPECT_NE(resp.body.find("\"bulkload\""), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("statsz bulk op"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("\"registered_total\""), std::string::npos);
}

TEST_F(StatsServerTest, HistoryzRequiresAnAttachedRecorder) {
  StatsRouter without(FullSources());
  EXPECT_EQ(without.Handle("/historyz").status, 404);

  FlightRecorder::Options options;
  options.registry = &store_.metrics_registry();
  options.sample_interval_ms = 60'000;  // driven manually below
  auto recorder = FlightRecorder::Start(std::move(options));
  ASSERT_TRUE(recorder.ok());
  (*recorder)->SampleNow();

  StatsRouter::Sources sources = FullSources();
  sources.recorder = recorder->get();
  StatsRouter server(sources);
  StatsRouter::Response resp = server.Handle("/historyz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"interval_ms\":"), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"t_unix_ms\""), std::string::npos);
}

TEST_F(StatsServerTest, RefreshHookRunsBeforeGaugeEndpoints) {
  int calls = 0;
  StatsRouter::Sources sources;
  sources.registry = &store_.metrics_registry();
  sources.refresh = [&calls] { ++calls; };
  StatsRouter server(sources);

  (void)server.Handle("/metrics");
  EXPECT_EQ(calls, 1);
  (void)server.Handle("/healthz");
  EXPECT_EQ(calls, 2);
  (void)server.Handle("/varz");
  EXPECT_EQ(calls, 3);
  // Endpoints that don't read derived gauges skip the refresh.
  (void)server.Handle("/allocz");
  EXPECT_EQ(calls, 3);
}

TEST_F(StatsServerTest, ExtraHealthHookFeedsHealthz) {
  StatsRouter::Sources sources;
  sources.registry = &store_.metrics_registry();
  std::string signal;
  sources.extra_health = [&signal] { return signal; };
  StatsRouter server(sources);

  EXPECT_EQ(server.Handle("/healthz").status, 200);
  signal = "shed_fraction=0.80 queue_depth=64";
  StatsRouter::Response resp = server.Handle("/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_NE(resp.body.find("shed_fraction=0.80"), std::string::npos)
      << resp.body;
  signal.clear();
  EXPECT_EQ(server.Handle("/healthz").status, 200);
}

}  // namespace
}  // namespace rdfdb::obs
