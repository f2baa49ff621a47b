#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "obs/metrics_snapshot.h"
#include "obs/store_metrics.h"
#include "rdf/bulk_load.h"
#include "rdf/rdf_store.h"
#include "rdf/redo_log.h"
#include "rdf/snapshot_store.h"

namespace rdfdb::obs {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAddAndSetMax) {
  Gauge g;
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(5);  // below current: no change
  EXPECT_EQ(g.Value(), 7);
  g.SetMax(12);
  EXPECT_EQ(g.Value(), 12);
}

TEST(HistogramTest, BucketAssignmentIsByUpperBound) {
  Histogram h({10, 100, 1000});
  h.Observe(5);
  h.Observe(10);  // boundary value lands in its own bucket (le semantics)
  h.Observe(50);
  h.Observe(5000);  // past the last bound: +Inf bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 5065u);
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.BucketCount(2), 0u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf
}

TEST(HistogramTest, DefaultLatencyBucketsCoverMicrosToSeconds) {
  std::vector<uint64_t> bounds = DefaultLatencyBucketsNs();
  ASSERT_EQ(bounds.size(), 11u);
  EXPECT_EQ(bounds.front(), 1000u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i], bounds[i - 1] * 4);
  }
  EXPECT_GT(bounds.back(), 1000000000u);  // past one second
}

TEST(QuantileTest, InterpolatesWithinTheLandingBucket) {
  // Disjoint counts, one more slot than bounds (+Inf last).
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({100}, {4, 0}, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({100}, {4, 0}, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({10, 20}, {0, 10, 0}, 0.5), 15.0);
  // Spanning buckets: 2 in [0,10], 2 in (10,100].
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({10, 100}, {2, 2, 0}, 0.25), 5.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({10, 100}, {2, 2, 0}, 0.75), 55.0);
}

TEST(QuantileTest, InfBucketClampsToLastFiniteBound) {
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({10}, {0, 5}, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({10, 40}, {1, 0, 9}, 0.99), 40.0);
}

TEST(QuantileTest, EmptyHistogramIsZero) {
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({10, 100}, {0, 0, 0}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(QuantileFromBuckets({}, {0}, 0.5), 0.0);
}

TEST(QuantileTest, LiveInstrumentConvenience) {
  Histogram h({10, 100});
  h.Observe(3);
  h.Observe(7);
  h.Observe(40);
  h.Observe(60);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.25), 5.0);
  EXPECT_DOUBLE_EQ(HistogramQuantile(h, 0.75), 55.0);
}

TEST(RegistryTest, RegistrationIsIdempotentPerKind) {
  MetricsRegistry registry;
  Counter* a = registry.RegisterCounter("rdfdb_test_total", "help");
  Counter* b = registry.RegisterCounter("rdfdb_test_total", "other help");
  EXPECT_EQ(a, b);
  // Same name as another kind: rejected.
  EXPECT_EQ(registry.RegisterGauge("rdfdb_test_total", "help"), nullptr);
  EXPECT_EQ(registry.FindCounter("rdfdb_test_total"), a);
  EXPECT_EQ(registry.FindGauge("rdfdb_test_total"), nullptr);
  EXPECT_EQ(registry.FindCounter("rdfdb_absent_total"), nullptr);
}

TEST(RegistryTest, PrometheusRendering) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("rdfdb_events_total", "Events seen");
  Gauge* g = registry.RegisterGauge("rdfdb_depth", "Queue depth");
  Histogram* h =
      registry.RegisterHistogram("rdfdb_latency_ns", "Latency", {10, 100});
  c->Inc(3);
  g->Set(7);
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP rdfdb_events_total Events seen"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rdfdb_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rdfdb_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("rdfdb_depth 7"), std::string::npos);
  // Buckets are cumulative in the exposition format.
  EXPECT_NE(text.find("rdfdb_latency_ns_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rdfdb_latency_ns_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rdfdb_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rdfdb_latency_ns_sum 555"), std::string::npos);
  EXPECT_NE(text.find("rdfdb_latency_ns_count 3"), std::string::npos);
}

TEST(RegistryTest, JsonRendering) {
  MetricsRegistry registry;
  registry.RegisterCounter("rdfdb_events_total", "Events")->Inc(2);
  registry.RegisterHistogram("rdfdb_latency_ns", "Latency", {10})
      ->Observe(4);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"rdfdb_events_total\": {\"type\": \"counter\", "
                      "\"value\": 2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("{\"le\": \"+Inf\", \"count\": 1}"),
            std::string::npos);
}

TEST(RegistryTest, DumpsCarryQuantileEstimates) {
  MetricsRegistry registry;
  Histogram* h =
      registry.RegisterHistogram("rdfdb_latency_ns", "Latency", {10, 100});
  for (int i = 0; i < 4; ++i) h->Observe(5);
  std::string text = registry.RenderPrometheus();
  // Summary-style quantile lines derived from the buckets.
  EXPECT_NE(text.find("rdfdb_latency_ns{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rdfdb_latency_ns{quantile=\"0.99\"}"),
            std::string::npos);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

TEST(SnapshotTest, DeltasAndIntervalQuantilesAreExact) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("rdfdb_ticks_total", "t");
  Gauge* g = registry.RegisterGauge("rdfdb_depth", "d");
  Histogram* h = registry.RegisterHistogram("rdfdb_lat_ns", "l", {10, 20});
  c->Inc(5);
  h->Observe(5);  // pre-interval observation must not leak into deltas

  MetricsSnapshot prev = TakeMetricsSnapshot(registry);
  EXPECT_EQ(prev.Counter("rdfdb_ticks_total"), 5);
  EXPECT_EQ(prev.Counter("rdfdb_absent"), 0);

  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  c->Inc(7);
  g->Set(3);
  h->Observe(15);
  MetricsSnapshot cur = TakeMetricsSnapshot(registry);

  EXPECT_EQ(cur.Counter("rdfdb_ticks_total") -
                prev.Counter("rdfdb_ticks_total"),
            7);
  EXPECT_EQ(cur.Gauge("rdfdb_depth"), 3);
  EXPECT_GT(CounterRate(prev, cur, "rdfdb_ticks_total"), 0.0);
  EXPECT_DOUBLE_EQ(CounterRate(prev, cur, "rdfdb_absent"), 0.0);
  // Only the in-interval observation (15, in (10,20]) counts.
  EXPECT_EQ(IntervalCount(prev, cur, "rdfdb_lat_ns"), 1u);
  EXPECT_DOUBLE_EQ(IntervalQuantile(prev, cur, "rdfdb_lat_ns", 0.5), 15.0);

  std::string text = RenderIntervalText(prev, cur);
  EXPECT_NE(text.find("rdfdb_ticks_total"), std::string::npos) << text;
  EXPECT_NE(text.find("+7"), std::string::npos);
  EXPECT_NE(text.find("rdfdb_lat_ns"), std::string::npos);
  EXPECT_NE(text.find("n=1"), std::string::npos);
  // A counter that did not move is not reported.
  registry.RegisterCounter("rdfdb_idle_total", "i");
  EXPECT_EQ(RenderIntervalText(prev, cur).find("rdfdb_idle_total"),
            std::string::npos);
}

TEST(SnapshotTest, VarzJsonCarriesRatesAndExtras) {
  MetricsRegistry registry;
  Counter* c = registry.RegisterCounter("rdfdb_ticks_total", "t");
  MetricsSnapshot prev = TakeMetricsSnapshot(registry);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  c->Inc(2);
  MetricsSnapshot cur = TakeMetricsSnapshot(registry);
  std::string json = RenderVarzJson(registry, prev, cur, 1.5,
                                    ",\"custom\": 9");
  EXPECT_NE(json.find("\"uptime_seconds\": 1.5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"rates\""), std::string::npos);
  EXPECT_NE(json.find("\"rdfdb_ticks_total\""), std::string::npos);
  EXPECT_NE(json.find("\"custom\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

// Concurrent hammering: totals must be exact (no lost updates). This is
// the test tools/run_tsan.sh runs under ThreadSanitizer.
TEST(ConcurrencyTest, CountersHistogramsAndGaugesAreExactUnderContention) {
  MetricsRegistry registry;
  Counter* counter = registry.RegisterCounter("rdfdb_hammer_total", "h");
  Gauge* gauge = registry.RegisterGauge("rdfdb_hammer_peak", "h");
  Histogram* hist = registry.RegisterHistogram("rdfdb_hammer_ns", "h",
                                               DefaultLatencyBucketsNs());

  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Inc();
        hist->Observe(i);
        gauge->SetMax(static_cast<int64_t>(t * kPerThread + i));
        if (i % 1000 == 0) {
          // Dump concurrently with the writers: must not crash or tear.
          (void)registry.RenderPrometheus();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(counter->Value(), kThreads * kPerThread);
  EXPECT_EQ(hist->count(), kThreads * kPerThread);
  // Sum of 0..kPerThread-1 per thread.
  EXPECT_EQ(hist->sum(), kThreads * (kPerThread * (kPerThread - 1) / 2));
  EXPECT_EQ(gauge->Value(),
            static_cast<int64_t>((kThreads - 1) * kPerThread + kPerThread -
                                 1));
  // Disjoint bucket counts must add back up to the total count.
  const Histogram* found = registry.FindHistogram("rdfdb_hammer_ns");
  ASSERT_NE(found, nullptr);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i <= found->bounds().size(); ++i) {
    bucket_total += found->BucketCount(i);
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(StoreMetricsTest, RdfStoreWiresAllHotPaths) {
  rdf::RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  StoreMetrics* m = store.metrics();
  ASSERT_NE(m, nullptr);

  auto first = store.InsertTriple("m", "urn:s", "urn:p", "urn:o");
  ASSERT_TRUE(first.ok());
  auto dup = store.InsertTriple("m", "urn:s", "urn:p", "urn:o");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(m->link_inserts->Value(), 1u);
  EXPECT_EQ(m->link_duplicates->Value(), 1u);
  EXPECT_GT(m->value_inserts->Value(), 0u);
  EXPECT_GT(m->value_lookups->Value(), 0u);

  auto reified = store.IsReified("m", "urn:s", "urn:p", "urn:o");
  ASSERT_TRUE(reified.ok());
  EXPECT_FALSE(*reified);
  EXPECT_GE(m->reif_checks->Value(), 1u);

  // The model-stats fast path must not alter counters' meaning: the
  // triple count comes from the partition counter either way.
  auto full = store.GetModelStats("m");
  ASSERT_TRUE(full.ok());
  rdf::RdfStore::ModelStatsOptions cheap;
  cheap.distinct_counts = false;
  auto counts_only = store.GetModelStats("m", cheap);
  ASSERT_TRUE(counts_only.ok());
  EXPECT_EQ(full->triples, counts_only->triples);
  EXPECT_EQ(counts_only->distinct_subjects, 0u);

  std::string text = store.metrics_registry().RenderPrometheus();
  EXPECT_NE(text.find("rdfdb_link_inserts_total 1"), std::string::npos);
  EXPECT_NE(text.find("rdfdb_link_duplicates_total 1"), std::string::npos);
}

TEST(StoreMetricsTest, ConcurrentStoreExposesDumps) {
  // The thread-safe store is SnapshotRdfStore: writes through its
  // writer land in the live store's registry, and both dump formats
  // render them.
  rdf::SnapshotRdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(store.InsertTriple("m", "urn:s", "urn:p", "urn:o").ok());
  const obs::MetricsRegistry& registry = store.metrics_registry();
  EXPECT_NE(registry.RenderPrometheus().find("rdfdb_link_inserts_total 1"),
            std::string::npos);
  EXPECT_NE(registry.RenderJson().find("\"rdfdb_link_inserts_total\""),
            std::string::npos);
  EXPECT_NE(registry.RenderPrometheus().find(
                "rdfdb_versions_published_total"),
            std::string::npos);
}

TEST(StatsToStringTest, BulkLoadStatsRenders) {
  rdf::BulkLoadStats stats;
  stats.statements = 1000;
  stats.new_links = 990;
  stats.chunks = 2;
  stats.total_ns = 5000000;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("bulk load:"), std::string::npos);
  EXPECT_NE(text.find("1000"), std::string::npos);
}

TEST(StatsToStringTest, ReplayStatsRenders) {
  rdf::ReplayStats stats;
  stats.records = 12;
  stats.inserts = 10;
  stats.replay_ns = 3000000;
  std::string text = stats.ToString();
  EXPECT_NE(text.find("replay:"), std::string::npos);
  EXPECT_NE(text.find("12"), std::string::npos);
}

}  // namespace
}  // namespace rdfdb::obs
