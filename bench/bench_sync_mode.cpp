// Sync-mode A/B: insert throughput through a logged SnapshotRdfStore
// at each redo-log durability level (kNone / kBatch / kEveryRecord),
// one call (one record, one published version) per insert, plus the
// recovery-replay cost of such a log. Feeds the EXPERIMENTS.md
// "Redo-log sync modes" table.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "rdf/snapshot_store.h"

namespace rdfdb::bench {
namespace {

using rdf::LoggedStoreOptions;
using rdf::SnapshotRdfStore;
using rdf::SyncMode;

std::string BasePath() { return "/tmp/rdfdb_bench_sync"; }

void RemoveStoreFiles(const std::string& base) {
  auto rm = [](const std::string& p) { std::remove(p.c_str()); };
  rm(base);
  rm(base + ".log");
  rm(SnapshotRdfStore::ManifestPath(base));
  for (uint64_t gen = 1; gen <= 4; ++gen) {
    rm(SnapshotRdfStore::GenerationFileName(base, gen));
  }
}

SyncMode ModeFor(int64_t arg) {
  switch (arg) {
    case 0:
      return SyncMode::kNone;
    case 1:
      return SyncMode::kBatch;
    default:
      return SyncMode::kEveryRecord;
  }
}

void BM_LoggedInsert(benchmark::State& state) {
  const int64_t n = state.range(0);
  LoggedStoreOptions options;
  options.sync_mode = ModeFor(state.range(1));
  size_t inserted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const std::string base = BasePath();
    RemoveStoreFiles(base);
    auto db = SnapshotRdfStore::Open(base, base + ".log", options);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    if (!(*db)->CreateRdfModel("bench", "bdata", "triple").ok()) {
      state.SkipWithError("CreateRdfModel failed");
      return;
    }
    state.ResumeTiming();
    for (int64_t i = 0; i < n; ++i) {
      auto triple = (*db)->InsertTriple(
          "bench", "ex:s" + std::to_string(i % 997),
          "ex:p" + std::to_string(i % 13), "ex:o" + std::to_string(i));
      if (!triple.ok()) {
        state.SkipWithError(triple.status().ToString().c_str());
        return;
      }
      ++inserted;
    }
    state.PauseTiming();
    RemoveStoreFiles(BasePath());
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(inserted));
}
BENCHMARK(BM_LoggedInsert)
    ->ArgNames({"inserts", "mode"})
    ->Args({5000, 0})   // kNone
    ->Args({5000, 1})   // kBatch (64-record batches)
    ->Args({5000, 2})   // kEveryRecord
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryReplay(benchmark::State& state) {
  const int64_t n = state.range(0);
  const std::string base = BasePath() + "_replay";
  RemoveStoreFiles(base);
  {
    LoggedStoreOptions options;
    options.sync_mode = SyncMode::kNone;  // build the log fast
    auto db = SnapshotRdfStore::Open(base, base + ".log", options);
    if (!db.ok()) {
      state.SkipWithError(db.status().ToString().c_str());
      return;
    }
    (void)(*db)->CreateRdfModel("bench", "bdata", "triple");
    // One batch: each insert still appends its own record, but the
    // store publishes once instead of once per insert.
    (*db)->Apply([&](rdf::RdfStore& live) {
      for (int64_t i = 0; i < n; ++i) {
        (void)live.InsertTriple("bench", "ex:s" + std::to_string(i % 997),
                                "ex:p" + std::to_string(i % 13),
                                "ex:o" + std::to_string(i));
      }
    });
  }
  for (auto _ : state) {
    auto recovered = SnapshotRdfStore::Open(base, base + ".log");
    if (!recovered.ok()) {
      state.SkipWithError(recovered.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize((*recovered)->Snapshot()->TotalTripleCount());
  }
  state.SetItemsProcessed(state.iterations() * n);
  RemoveStoreFiles(base);
}
BENCHMARK(BM_RecoveryReplay)
    ->ArgNames({"records"})
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rdfdb::bench

BENCHMARK_MAIN();
