// rdfdb_top: a `top`-style live view of one store's instrument rates.
//
//   rdfdb_top [--interval <sec>] [--ticks <n>] [--mem] [--history]
//             [--readers <n>] [--triples <m>]
//
// Runs an in-process workload over a SnapshotRdfStore: a writer
// bulk-loads --triples statements (default 1 M) chunk by chunk through
// SnapshotRdfStore::Apply (one published version per chunk) while
// --readers threads (default 8) run SDO_RDF_MATCH against pinned
// snapshots, lock-free. It prints one line per interval from
// metrics-registry snapshot deltas: insert and match rates,
// per-interval reader latency quantiles (q_p50/q_p95/q_p99, measured
// DURING the load), and the version-publish and epoch-reclamation
// gauges. The run ends when the load finishes or after --ticks
// intervals (default 10; 0 = until the load finishes or the process is
// interrupted).
//
// --mem appends resource columns: heap_mb (live tracked heap), store_mb
// (sum of the store-owned rdfdb_mem_* gauges, refreshed per tick via
// UpdateMemoryGauges), B/trip (store_mb's bytes over the live triple
// count — the compression headline, comparable directly to
// bench_memory_footprint) and cpu% (process CPU over the interval, all
// threads; can exceed 100 on multi-core).
//
// --history attaches a flight recorder sampling at the tick interval
// and, after the run, prints one sparkline per recorded series — the
// same history ring a server process exports on /historyz.

#include <time.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/flight_recorder.h"
#include "obs/metrics_snapshot.h"
#include "obs/resource_tracker.h"
#include "query/match.h"
#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

int RunWorkload(double interval, int ticks, int readers, size_t triples,
                bool mem, bool history);

/// Flight recorder for --history: samples the registry at the tick
/// interval so the post-run sparklines line up with the printed rows.
std::unique_ptr<rdfdb::obs::FlightRecorder> StartHistoryRecorder(
    rdfdb::obs::MetricsRegistry* registry, double interval) {
  rdfdb::obs::FlightRecorder::Options options;
  options.registry = registry;
  options.sample_interval_ms =
      std::max<int64_t>(1, static_cast<int64_t>(interval * 1000.0));
  auto recorder = rdfdb::obs::FlightRecorder::Start(std::move(options));
  if (!recorder.ok()) {
    std::fprintf(stderr, "flight recorder: %s\n",
                 recorder.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*recorder);
}

/// Post-run --history block: one sparkline per series that moved.
void PrintHistorySparklines(const rdfdb::obs::FlightRecorder& recorder) {
  auto parsed = rdfdb::obs::ParseHistoryText(recorder.RenderHistoryText());
  if (!parsed.ok()) {
    std::fprintf(stderr, "history: %s\n",
                 parsed.status().ToString().c_str());
    return;
  }
  std::printf("\n--- metric history (%zu points, %lld ms apart) ---\n",
              parsed->t_unix_ms.size(),
              static_cast<long long>(parsed->interval_ms));
  std::vector<std::string> names;
  size_t width = 0;
  for (const auto& [name, values] : parsed->series) {
    names.push_back(name);
    width = std::max(width, name.size());
  }
  std::sort(names.begin(), names.end());
  for (const auto& name : names) {
    const std::vector<double>& values = parsed->series.at(name);
    double lo = 0.0;
    double hi = 0.0;
    bool any = false;
    for (double v : values) {
      if (std::isnan(v)) continue;
      if (!any) {
        lo = hi = v;
        any = true;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (!any) continue;
    std::printf("  %-*s %s min=%.6g max=%.6g\n", static_cast<int>(width),
                name.c_str(), rdfdb::obs::Sparkline(values).c_str(), lo,
                hi);
  }
}

/// Process CPU time (all threads), for the --mem cpu% column.
int64_t ProcessCpuNanos() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Sum of the store-owned rdfdb_mem_* gauges in `snap` (bytes). The
/// caller refreshes them (UpdateMemoryGauges) before taking the
/// snapshot, so the store_mb and B/trip columns read from the same
/// gauges a Prometheus scrape would.
double StoreGaugeBytes(const rdfdb::obs::MetricsSnapshot& snap) {
  return static_cast<double>(snap.Gauge("rdfdb_mem_value_store_bytes") +
                             snap.Gauge("rdfdb_mem_link_table_bytes") +
                             snap.Gauge("rdfdb_mem_quad_cache_bytes") +
                             snap.Gauge("rdfdb_mem_term_dict_bytes") +
                             snap.Gauge("rdfdb_mem_retired_version_bytes"));
}

}  // namespace

int main(int argc, char** argv) {
  double interval = 1.0;
  int ticks = 10;
  int readers = 8;
  size_t triples = 1000000;
  bool mem = false;
  bool history = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--interval") == 0 && i + 1 < argc) {
      interval = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--ticks") == 0 && i + 1 < argc) {
      ticks = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--readers") == 0 && i + 1 < argc) {
      readers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--triples") == 0 && i + 1 < argc) {
      triples = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--mem") == 0) {
      mem = true;
    } else if (std::strcmp(argv[i], "--history") == 0) {
      history = true;
    } else {
      std::fprintf(stderr,
                   "usage: rdfdb_top [--interval <sec>] [--ticks <n>]\n"
                   "                 [--readers <n>] [--triples <m>]\n"
                   "                 [--mem] [--history]\n");
      return 2;
    }
  }
  if (interval <= 0.0) interval = 1.0;
  if (readers < 1) readers = 1;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  return RunWorkload(interval, ticks, readers, triples, mem, history);
}

namespace {

int RunWorkload(double interval, int ticks, int readers, size_t triples,
                bool mem, bool history) {
  rdfdb::rdf::SnapshotRdfStore store;
  // Seed model: the readers' query target, loaded before the clock
  // starts so every match has rows.
  rdfdb::Status seeded = store.Apply([](rdfdb::rdf::RdfStore& live) {
    RDFDB_RETURN_NOT_OK(
        live.CreateRdfModel("top", "top_app", "triple").status());
    for (int i = 0; i < 256; ++i) {
      auto inserted = live.InsertTriple(
          "top", "<urn:s" + std::to_string(i) + ">", "<rdf:type>",
          "<urn:class" + std::to_string(i % 3) + ">");
      if (!inserted.ok()) return inserted.status();
    }
    return rdfdb::Status::OK();
  });
  if (!seeded.ok()) {
    std::fprintf(stderr, "seed: %s\n", seeded.ToString().c_str());
    return 1;
  }
  std::unique_ptr<rdfdb::obs::FlightRecorder> recorder;
  if (history) {
    recorder = StartHistoryRecorder(&store.metrics_registry(), interval);
  }

  // Readers: lock-free matches against pinned snapshots. A yield per
  // query keeps the single-core case fair to the writer.
  std::vector<std::thread> reader_threads;
  for (int t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&] {
      while (!g_stop.load(std::memory_order_relaxed)) {
        auto snap = store.Snapshot();
        rdfdb::query::MatchOptions options;
        options.limit = 128;
        auto result = rdfdb::query::SdoRdfMatch(
            snap.view(), "(?s <rdf:type> ?c)", {"top"}, {}, "", options);
        if (!result.ok()) break;
        std::this_thread::yield();
      }
    });
  }

  // Writer: chunked bulk load, one published version per chunk.
  std::thread writer([&] {
    constexpr size_t kChunk = 16384;
    uint64_t n = 0;
    rdfdb::Status created = store.CreateRdfModel("bulk", "bulk_app",
                                                 "triple")
                                .status();
    if (!created.ok()) {
      std::fprintf(stderr, "bulk model: %s\n", created.ToString().c_str());
      g_stop.store(true, std::memory_order_relaxed);
      return;
    }
    std::vector<rdfdb::rdf::NTriple> chunk;
    while (n < triples && !g_stop.load(std::memory_order_relaxed)) {
      chunk.clear();
      size_t end = std::min(n + kChunk, static_cast<uint64_t>(triples));
      for (; n < end; ++n) {
        std::string subject = "urn:b";
        subject += std::to_string(n);
        std::string predicate = "urn:p";
        predicate += std::to_string(n % 7);
        std::string value = "v";
        value += std::to_string(n);
        rdfdb::rdf::NTriple t;
        t.subject = rdfdb::rdf::Term::Uri(std::move(subject));
        t.predicate = rdfdb::rdf::Term::Uri(std::move(predicate));
        t.object = rdfdb::rdf::Term::PlainLiteral(std::move(value));
        chunk.push_back(std::move(t));
      }
      rdfdb::Status st = store.Apply([&](rdfdb::rdf::RdfStore& live) {
        return rdfdb::rdf::BulkLoad(&live, "bulk", chunk).status();
      });
      if (!st.ok()) {
        std::fprintf(stderr, "bulk load: %s\n", st.ToString().c_str());
        break;
      }
    }
    g_stop.store(true, std::memory_order_relaxed);
  });

  std::printf("%9s %10s %10s %9s %9s %9s %7s %8s %7s", "links",
              "insert/s", "match/s", "q_p50_us", "q_p95_us", "q_p99_us",
              "pub/s", "retired", "ep_lag");
  if (mem) {
    std::printf(" %8s %8s %7s %6s", "heap_mb", "store_mb", "B/trip", "cpu%");
  }
  std::printf("\n");
  rdfdb::obs::MetricsSnapshot prev =
      rdfdb::obs::TakeMetricsSnapshot(store.metrics_registry());
  int64_t prev_cpu = ProcessCpuNanos();
  for (int tick = 0; (ticks == 0 || tick < ticks) &&
                     !g_stop.load(std::memory_order_relaxed);
       ++tick) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    size_t live_triples = 0;
    if (mem) {
      store.UpdateMemoryGauges();
      live_triples = store.Snapshot()->TotalTripleCount();
    }
    rdfdb::obs::MetricsSnapshot cur =
        rdfdb::obs::TakeMetricsSnapshot(store.metrics_registry());
    std::printf(
        "%9lld %10.0f %10.0f %9.0f %9.0f %9.0f %7.0f %8lld %7lld",
        static_cast<long long>(cur.Counter("rdfdb_link_inserts_total")),
        rdfdb::obs::CounterRate(prev, cur, "rdfdb_link_inserts_total"),
        rdfdb::obs::CounterRate(prev, cur, "rdfdb_query_total"),
        rdfdb::obs::IntervalQuantile(prev, cur, "rdfdb_query_ns", 0.50) /
            1e3,
        rdfdb::obs::IntervalQuantile(prev, cur, "rdfdb_query_ns", 0.95) /
            1e3,
        rdfdb::obs::IntervalQuantile(prev, cur, "rdfdb_query_ns", 0.99) /
            1e3,
        rdfdb::obs::CounterRate(prev, cur, "rdfdb_versions_published_total"),
        static_cast<long long>(
            cur.Gauge("rdfdb_retired_versions_outstanding")),
        static_cast<long long>(cur.Gauge("rdfdb_oldest_pinned_epoch_lag")));
    if (mem) {
      const double store_bytes = StoreGaugeBytes(cur);
      const int64_t cpu = ProcessCpuNanos();
      std::printf(" %8.1f %8.1f %7.0f %6.0f",
                  static_cast<double>(rdfdb::obs::TrackedHeapBytes()) / 1e6,
                  store_bytes / 1e6,
                  live_triples == 0
                      ? 0.0
                      : store_bytes / static_cast<double>(live_triples),
                  static_cast<double>(cpu - prev_cpu) / 1e7 / interval);
      prev_cpu = cpu;
    }
    std::printf("\n");
    std::fflush(stdout);
    prev = std::move(cur);
  }

  g_stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& thread : reader_threads) thread.join();
  if (recorder != nullptr) PrintHistorySparklines(*recorder);
  return 0;
}

}  // namespace
