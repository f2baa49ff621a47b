// rdfdb_serve: the deadline-aware network front-end over a snapshot
// store (DESIGN.md §16).
//
//   rdfdb_serve [--port <n>] [--workers <n>] [--queue <n>]
//               [--max-deadline-ms <n>] [--default-deadline-ms <n>]
//               [--query-threads <n>] [--events <path>]
//               [--blackbox <path>] [--triples <n>] [--data <dir>]
//               [file.nt [model_name]]
//
// Loads the N-Triples file (or a synthetic UniProt-style dataset of
// --triples statements, default 10000) into a SnapshotRdfStore, then
// serves:
//
//   GET  /query?q=<patterns>&model=<m>[&filter=..][&limit=N]
//        [&distinct=1][&threads=N]      match over a pinned snapshot
//   POST /insert?model=<m>[&create=1]   N-Triples body, batched write
//   POST /reify?model=<m>&id=<t_id>     reify a stored triple
//   GET  /metrics /varz /healthz /slow /timeline /profilez /allocz
//        /activityz /historyz           observability surface
//
// Every request carries a deadline (X-Deadline-Ms, clamped to
// --max-deadline-ms) enforced end to end; a full admission queue sheds
// with 503 + Retry-After. SIGTERM/SIGINT drains gracefully: stop
// accepting, finish admitted requests within their deadlines, flush
// the event log, exit 0.
//
// With --data the store is durable: the checkpoint and redo log in
// <dir> recover what earlier runs acknowledged (each /insert statement
// and /reify is logged and fdatasync'd before the response; a crash
// mid-/insert may keep a prefix of it), and a drain checkpoints. The
// load above runs only into a <dir> with no store yet, all or nothing.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "gen/uniprot_gen.h"
#include "obs/crash_dump.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/slow_query_log.h"
#include "obs/span_timeline.h"
#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"
#include "server/server.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  rdfdb::server::RdfServerOptions options;
  options.port = 8090;
  std::string events_path;
  std::string blackbox_path;
  size_t target_triples = 10000;
  std::string data_dir;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      options.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--queue") == 0 && i + 1 < argc) {
      options.queue_capacity = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-deadline-ms") == 0 &&
               i + 1 < argc) {
      options.max_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--default-deadline-ms") == 0 &&
               i + 1 < argc) {
      options.default_deadline_ms = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--query-threads") == 0 && i + 1 < argc) {
      options.query_threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events_path = argv[++i];
    } else if (std::strcmp(argv[i], "--blackbox") == 0 && i + 1 < argc) {
      blackbox_path = argv[++i];
    } else if (std::strcmp(argv[i], "--triples") == 0 && i + 1 < argc) {
      target_triples = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--data") == 0 && i + 1 < argc) {
      data_dir = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }

  std::ostringstream discard;
  rdfdb::obs::EventLog::Options event_options;
  if (!events_path.empty()) {
    event_options.path = events_path;
  } else {
    event_options.sink = &discard;
  }
  auto event_log = rdfdb::obs::EventLog::Open(std::move(event_options));
  if (!event_log.ok()) {
    std::fprintf(stderr, "event log: %s\n",
                 event_log.status().ToString().c_str());
    return 1;
  }
  rdfdb::obs::SlowQueryLog slow_queries(int64_t{1000000});  // 1 ms
  rdfdb::obs::Timeline timeline;

  const std::string model = args.size() > 1 ? args[1] : "m";
  auto import = [&](rdfdb::rdf::RdfStore& live)
      -> rdfdb::Result<rdfdb::rdf::BulkLoadStats> {
    RDFDB_RETURN_NOT_OK(
        live.CreateRdfModel(model, model + "_app", "triple").status());
    rdfdb::Result<rdfdb::rdf::BulkLoadStats> loaded =
        rdfdb::rdf::BulkLoadStats{};
    if (!args.empty()) {
      loaded = rdfdb::rdf::BulkLoadFile(&live, model, args[0]);
    } else {
      rdfdb::gen::UniProtOptions gen_options;
      gen_options.target_triples = target_triples;
      loaded = rdfdb::rdf::BulkLoad(
          &live, model, rdfdb::gen::GenerateUniProt(gen_options).triples);
    }
    if (loaded.ok()) std::fprintf(stderr, "%s\n", loaded->ToString().c_str());
    return loaded;
  };

  std::unique_ptr<rdfdb::rdf::SnapshotRdfStore> opened;
  if (data_dir.empty()) {
    opened = std::make_unique<rdfdb::rdf::SnapshotRdfStore>();
  } else {
    std::error_code ignored;  // Open reports a directory it cannot use
    std::filesystem::create_directories(data_dir, ignored);
    // Into a directory with no store yet, import into a store no log
    // has seen and save it whole (tmp + rename) as the first snapshot:
    // an import that fails or is killed leaves nothing and runs again.
    const std::string snapshot_path = data_dir + "/store";
    if (!std::filesystem::exists(snapshot_path) &&
        !std::filesystem::exists(
            rdfdb::rdf::SnapshotRdfStore::ManifestPath(snapshot_path))) {
      rdfdb::rdf::RdfStore fresh;
      auto loaded = import(fresh);
      rdfdb::Status saved =
          loaded.ok() ? fresh.Save(snapshot_path) : loaded.status();
      if (!saved.ok()) {
        std::fprintf(stderr, "load: %s\n", saved.ToString().c_str());
        return 1;
      }
    }
    rdfdb::rdf::LoggedStoreOptions store_options;
    store_options.event_log = event_log->get();
    auto recovered = rdfdb::rdf::SnapshotRdfStore::Open(
        snapshot_path, data_dir + "/store.log", store_options);
    if (!recovered.ok()) {
      std::fprintf(stderr, "open %s: %s\n", data_dir.c_str(),
                   recovered.status().ToString().c_str());
      return 1;
    }
    opened = std::move(*recovered);
    std::fprintf(stderr, "recovered %s: generation %llu, %s\n",
                 data_dir.c_str(),
                 static_cast<unsigned long long>(opened->generation()),
                 opened->recovery_stats().ToString().c_str());
  }
  rdfdb::rdf::SnapshotRdfStore& store = *opened;
  store.SetObservability(event_log->get(), &slow_queries, &timeline);
  if (data_dir.empty()) {
    auto loaded = store.Apply(import);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
  }

  // Flight recorder over the same registry the server's metrics
  // register into, so rdfdb_server_* history shows up in /historyz.
  rdfdb::obs::FlightRecorder::Options recorder_options;
  recorder_options.registry = &store.metrics_registry();
  recorder_options.events = event_log->get();
  recorder_options.refresh = [&store] { store.UpdateMemoryGauges(); };
  if (!blackbox_path.empty()) {
    recorder_options.black_box_path = blackbox_path;
  }
  auto recorder =
      rdfdb::obs::FlightRecorder::Start(std::move(recorder_options));
  if (!recorder.ok()) {
    std::fprintf(stderr, "flight recorder: %s\n",
                 recorder.status().ToString().c_str());
    return 1;
  }
  if ((*recorder)->black_box() != nullptr) {
    rdfdb::obs::InstallCrashHandler((*recorder)->black_box());
  }

  options.event_log = event_log->get();
  options.stats_sources.slow_queries = &slow_queries;
  options.stats_sources.timeline = &timeline;
  options.stats_sources.events = event_log->get();
  options.stats_sources.recorder = recorder->get();

  rdfdb::server::RdfServer server(&store, options);
  rdfdb::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::fprintf(stderr,
               "rdfdb_serve on http://127.0.0.1:%u  model=%s workers=%u "
               "queue=%zu max_deadline=%lldms\n",
               static_cast<unsigned>(server.port()), model.c_str(),
               options.workers, options.queue_capacity,
               static_cast<long long>(options.max_deadline_ms));

  while (!g_shutdown.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "draining...\n");
  server.Shutdown();
  if (!data_dir.empty()) {
    rdfdb::Status checkpointed = store.Checkpoint();
    if (!checkpointed.ok()) {
      std::fprintf(stderr, "checkpoint: %s\n",
                   checkpointed.ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "drained; exiting\n");
  return 0;
}
