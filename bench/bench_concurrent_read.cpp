// Reader throughput under write load: the lock-free snapshot read path
// (SnapshotRdfStore) while a writer bulk-loads a UniProt-shaped dataset
// into a separate model.
//
// The harness measures reader point-read latency (IS_TRIPLE on a
// pre-loaded probe model) twice: once with the writer idle (the
// baseline) and once during the bulk load. The store publishes one
// version per load chunk, so readers keep running on the previous
// version while a chunk loads. Numbers land in EXPERIMENTS.md
// (BENCH_concurrent_read.json, which also records the retired
// shared_mutex facade's numbers from the run that compared the two).
//
// Not a google-benchmark binary: the workload is multi-role (N readers
// + 1 writer with phase-coupled lifetimes), so the harness drives its
// own threads and reports p50/p95/p99 directly.
//
//   bench_concurrent_read [--readers N] [--triples M] [--chunk K]
//                         [--idle-ms MS] [--smoke] [--json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "gen/uniprot_gen.h"
#include "rdf/bulk_load.h"
#include "rdf/snapshot_store.h"

namespace rdfdb::bench {
namespace {

struct Config {
  int readers = 8;
  size_t triples = 1000000;  ///< bulk-load size
  size_t chunk = 65536;      ///< statements per publish (snapshot store)
  int idle_ms = 2000;        ///< idle-writer measurement window
  size_t probes = 10000;     ///< pre-loaded probe triples readers hit
  bool json = false;
};

struct PhaseResult {
  std::string system;  ///< "snapshot"
  std::string phase;   ///< "idle" | "bulkload"
  size_t ops = 0;
  double wall_s = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;

  double ops_per_sec() const { return wall_s > 0 ? ops / wall_s : 0; }
};

uint64_t Percentile(std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(q * (sorted.size() - 1));
  return sorted[idx];
}

/// Run `readers` threads of back-to-back point reads until `stop` goes
/// true, each timing every op. `read` is one probe (index -> ok).
template <typename ReadFn>
PhaseResult RunReaders(const Config& config, const std::string& system,
                       const std::string& phase, std::atomic<bool>& stop,
                       const ReadFn& read) {
  std::vector<std::vector<uint64_t>> latencies(config.readers);
  std::vector<std::thread> threads;
  Timer wall;
  for (int t = 0; t < config.readers; ++t) {
    threads.emplace_back([&, t] {
      std::vector<uint64_t>& mine = latencies[t];
      mine.reserve(1 << 16);
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        Timer op;
        bool ok = read(i++);
        mine.push_back(op.ElapsedNanos());
        if (!ok) {
          std::fprintf(stderr, "%s/%s: probe read failed\n", system.c_str(),
                       phase.c_str());
          std::abort();
        }
        // Outside the timed op: on few-core hosts, readers that never
        // yield starve the writer, so the load phase would never
        // finish.
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  PhaseResult result;
  result.system = system;
  result.phase = phase;
  result.wall_s = static_cast<double>(wall.ElapsedNanos()) * 1e-9;
  std::vector<uint64_t> merged;
  for (const auto& vec : latencies) {
    merged.insert(merged.end(), vec.begin(), vec.end());
  }
  result.ops = merged.size();
  std::sort(merged.begin(), merged.end());
  result.p50_ns = Percentile(merged, 0.50);
  result.p95_ns = Percentile(merged, 0.95);
  result.p99_ns = Percentile(merged, 0.99);
  return result;
}

/// Probe model: plain URI triples the readers look up by string.
Status LoadProbes(rdf::RdfStore* store, size_t count) {
  RDFDB_RETURN_NOT_OK(
      store->CreateRdfModel("probe", "probe_app", "triple").status());
  std::vector<rdf::NTriple> statements;
  statements.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    rdf::NTriple t;
    t.subject = rdf::Term::Uri("bench:s" + std::to_string(i));
    t.predicate = rdf::Term::Uri("bench:p");
    t.object = rdf::Term::Uri("bench:o" + std::to_string(i % 97));
    statements.push_back(std::move(t));
  }
  return rdf::BulkLoad(store, "probe", statements).status();
}

std::string ProbeSubject(const Config& config, size_t i) {
  return "bench:s" + std::to_string(i % config.probes);
}
std::string ProbeObject(const Config& config, size_t i) {
  return "bench:o" + std::to_string((i % config.probes) % 97);
}

/// Bulk-load chunks (one published version each).
std::vector<std::vector<rdf::NTriple>> MakeChunks(
    const std::vector<rdf::NTriple>& statements, size_t chunk) {
  std::vector<std::vector<rdf::NTriple>> chunks;
  for (size_t begin = 0; begin < statements.size(); begin += chunk) {
    size_t end = std::min(begin + chunk, statements.size());
    chunks.emplace_back(statements.begin() + begin, statements.begin() + end);
  }
  return chunks;
}

struct SystemRun {
  PhaseResult idle;
  PhaseResult loaded;
  double writer_wall_s = 0;
};

SystemRun RunSnapshot(const Config& config,
                      const std::vector<std::vector<rdf::NTriple>>& chunks) {
  rdf::SnapshotRdfStore store;
  Status loaded = store.Apply(
      [&](rdf::RdfStore& live) { return LoadProbes(&live, config.probes); });
  if (!loaded.ok()) {
    std::fprintf(stderr, "probe load failed: %s\n",
                 loaded.ToString().c_str());
    std::abort();
  }
  auto read = [&](size_t i) {
    auto snap = store.Snapshot();
    auto r = snap->IsTriple("probe", ProbeSubject(config, i), "bench:p",
                            ProbeObject(config, i));
    return r.ok() && *r;
  };

  SystemRun run;
  {
    std::atomic<bool> stop{false};
    std::thread timer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(config.idle_ms));
      stop.store(true, std::memory_order_release);
    });
    run.idle = RunReaders(config, "snapshot", "idle", stop, read);
    timer.join();
  }
  {
    std::atomic<bool> stop{false};
    Timer writer_wall;
    std::thread writer([&] {
      Status created = store.CreateRdfModel("bulk", "bulk_app", "triple")
                           .status();
      if (created.ok()) {
        for (const auto& chunk : chunks) {
          Status st = store.Apply([&](rdf::RdfStore& live) {
            return rdf::BulkLoad(&live, "bulk", chunk).status();
          });
          if (!st.ok()) {
            std::fprintf(stderr, "bulk load failed: %s\n",
                         st.ToString().c_str());
            std::abort();
          }
        }
      }
      run.writer_wall_s =
          static_cast<double>(writer_wall.ElapsedNanos()) * 1e-9;
      stop.store(true, std::memory_order_release);
    });
    run.loaded = RunReaders(config, "snapshot", "bulkload", stop, read);
    writer.join();
  }
  return run;
}

void PrintHuman(const PhaseResult& r) {
  std::printf("%-9s %-9s %10zu ops  %12.0f ops/s  p50 %8llu ns  "
              "p95 %8llu ns  p99 %8llu ns\n",
              r.system.c_str(), r.phase.c_str(), r.ops, r.ops_per_sec(),
              static_cast<unsigned long long>(r.p50_ns),
              static_cast<unsigned long long>(r.p95_ns),
              static_cast<unsigned long long>(r.p99_ns));
}

void PrintJsonResult(const PhaseResult& r, bool last) {
  std::printf("    {\"system\": \"%s\", \"phase\": \"%s\", \"ops\": %zu, "
              "\"ops_per_sec\": %.0f, \"p50_ns\": %llu, \"p95_ns\": %llu, "
              "\"p99_ns\": %llu}%s\n",
              r.system.c_str(), r.phase.c_str(), r.ops, r.ops_per_sec(),
              static_cast<unsigned long long>(r.p50_ns),
              static_cast<unsigned long long>(r.p95_ns),
              static_cast<unsigned long long>(r.p99_ns), last ? "" : ",");
}

}  // namespace
}  // namespace rdfdb::bench

int main(int argc, char** argv) {
  using namespace rdfdb::bench;
  Config config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> long long {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
      }
      return std::atoll(argv[++i]);
    };
    if (std::strcmp(argv[i], "--readers") == 0) {
      config.readers = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--triples") == 0) {
      config.triples = static_cast<size_t>(next());
    } else if (std::strcmp(argv[i], "--chunk") == 0) {
      config.chunk = static_cast<size_t>(next());
    } else if (std::strcmp(argv[i], "--idle-ms") == 0) {
      config.idle_ms = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      // CI smoke: small enough to finish in seconds, still exercising
      // both phases end to end.
      config.triples = 20000;
      config.chunk = 4096;
      config.idle_ms = 200;
      config.probes = 2000;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }

  rdfdb::gen::UniProtOptions gen_options;
  gen_options.target_triples = config.triples;
  rdfdb::gen::UniProtDataset dataset =
      rdfdb::gen::GenerateUniProt(gen_options);
  auto chunks = MakeChunks(dataset.triples, config.chunk);

  std::fprintf(stderr, "running snapshot store phases...\n");
  SystemRun snapshot = RunSnapshot(config, chunks);

  double snap_ratio = snapshot.idle.ops_per_sec() > 0
                          ? snapshot.loaded.ops_per_sec() /
                                snapshot.idle.ops_per_sec()
                          : 0;

  if (config.json) {
    std::printf("{\n");
    std::printf("  \"benchmark\": \"concurrent_read\",\n");
    std::printf("  \"readers\": %d,\n", config.readers);
    std::printf("  \"bulk_triples\": %zu,\n", dataset.triples.size());
    std::printf("  \"chunk\": %zu,\n", config.chunk);
    std::printf("  \"results\": [\n");
    PrintJsonResult(snapshot.idle, false);
    PrintJsonResult(snapshot.loaded, true);
    std::printf("  ],\n");
    std::printf("  \"snapshot_writer_wall_s\": %.3f,\n",
                snapshot.writer_wall_s);
    std::printf("  \"snapshot_loaded_vs_idle\": %.4f\n", snap_ratio);
    std::printf("}\n");
  } else {
    std::printf("readers=%d bulk_triples=%zu chunk=%zu\n", config.readers,
                dataset.triples.size(), config.chunk);
    PrintHuman(snapshot.idle);
    PrintHuman(snapshot.loaded);
    std::printf("snapshot writer wall: %.3f s\n", snapshot.writer_wall_s);
    std::printf("reader throughput under load vs idle: snapshot %.1f%%\n",
                100 * snap_ratio);
  }
  return 0;
}
