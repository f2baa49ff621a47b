// Saturation behavior of rdfdb_serve: closed-loop offered load at
// 1x/2x/4x the server's worker parallelism, with admission control on
// (bounded queue, overload shed as 503) versus off (effectively
// unbounded queue, every connection admitted).
//
// The headline claim (EXPERIMENTS.md, BENCH_server_load.json): with
// shedding on, the p99 latency of *served* requests stays bounded as
// offered load grows — the queue caps how much waiting any admitted
// request can inherit, and the 503 count absorbs the excess. With the
// queue unbounded, every connection is admitted and served-request p99
// grows with offered load (each admitted request waits behind an
// ever-longer backlog).
//
// Not a google-benchmark binary: the workload is a client/server pair
// with its own closed-loop generator (server/loadgen.h), so the harness
// drives real sockets and reports the generator's tallies directly.
//
//   bench_server_load [--workers N] [--triples M] [--duration-ms MS]
//                     [--base-concurrency C] [--smoke] [--json]

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"
#include "rdf/term.h"
#include "server/http.h"
#include "server/loadgen.h"
#include "server/server.h"

namespace rdfdb::bench {
namespace {

struct Config {
  unsigned workers = 4;
  size_t triples = 20000;
  int duration_ms = 3000;
  /// 1x offered load; 2x/4x multiply it. Defaults to 2 closed-loop
  /// clients per worker — past saturation for a CPU-bound query mix.
  unsigned base_concurrency = 8;
  bool json = false;
};

struct RunResult {
  std::string mode;  ///< "shed" | "queue"
  unsigned multiplier = 1;
  unsigned concurrency = 0;
  server::LoadGenStats stats;
};

RunResult RunOne(rdf::SnapshotRdfStore* store, const Config& config,
                 const std::string& mode, unsigned multiplier) {
  server::RdfServerOptions options;
  options.port = 0;
  options.workers = config.workers;
  // "shed": the queue is one connection per worker — refusal is the
  // overload response. "queue": admit everything (the pre-admission-
  // control behavior this PR replaces), bounded only by a cap far above
  // what the run can enqueue.
  options.queue_capacity =
      mode == "shed" ? config.workers : size_t{1} << 20;
  // Generous deadlines so queued requests run to completion: the
  // contrast under test is waiting time, not deadline enforcement.
  options.max_deadline_ms = 60'000;
  options.default_deadline_ms = 30'000;
  server::RdfServer server(store, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    std::exit(1);
  }

  server::LoadGenOptions load;
  load.port = server.port();
  load.concurrency = config.base_concurrency * multiplier;
  load.duration_ms = config.duration_ms;
  load.deadline_ms = 0;  // rely on the generous server default
  load.io_timeout_ms = 60'000;
  load.query_target =
      "/query?q=" + server::PercentEncode("(?s <http://b.example/p> ?o)") +
      "&model=m&limit=2000";
  auto stats = server::RunLoadGen(load);
  server.Shutdown();
  if (!stats.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", stats.status().ToString().c_str());
    std::exit(1);
  }

  RunResult result;
  result.mode = mode;
  result.multiplier = multiplier;
  result.concurrency = load.concurrency;
  result.stats = *stats;
  return result;
}

}  // namespace
}  // namespace rdfdb::bench

int main(int argc, char** argv) {
  using rdfdb::bench::Config;
  using rdfdb::bench::RunOne;
  using rdfdb::bench::RunResult;

  Config config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      config.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--triples") == 0 && i + 1 < argc) {
      config.triples = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      config.duration_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--base-concurrency") == 0 &&
               i + 1 < argc) {
      config.base_concurrency = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      config.triples = 5000;
      config.duration_ms = 800;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  rdfdb::rdf::SnapshotRdfStore store;
  if (!store.CreateRdfModel("m", "m_app", "triple").ok()) return 1;
  std::vector<rdfdb::rdf::NTriple> statements;
  statements.reserve(config.triples);
  for (size_t i = 0; i < config.triples; ++i) {
    rdfdb::rdf::NTriple t;
    t.subject =
        rdfdb::rdf::Term::Uri("http://b.example/s" + std::to_string(i));
    t.predicate = rdfdb::rdf::Term::Uri("http://b.example/p");
    t.object = rdfdb::rdf::Term::PlainLiteral("v" + std::to_string(i));
    statements.push_back(std::move(t));
  }
  rdfdb::Status loaded =
      store.Apply([&](rdfdb::rdf::RdfStore& live) {
        return rdfdb::rdf::BulkLoad(&live, "m", statements).status();
      });
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.ToString().c_str());
    return 1;
  }

  std::vector<RunResult> results;
  for (const char* mode : {"shed", "queue"}) {
    for (unsigned multiplier : {1u, 2u, 4u}) {
      results.push_back(RunOne(&store, config, mode, multiplier));
      const RunResult& r = results.back();
      if (!config.json) {
        std::printf("%-6s %ux (conc=%u): %s\n", r.mode.c_str(),
                    r.multiplier, r.concurrency,
                    r.stats.ToString().c_str());
        std::fflush(stdout);
      }
    }
  }

  if (config.json) {
    std::printf("{\n  \"benchmark\": \"server_load\",\n");
    std::printf("  \"env\": {\"nproc\": %ld, \"build_type\": \"%s\"},\n",
                std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)),
                RDFDB_BUILD_TYPE);
    std::printf("  \"workers\": %u,\n  \"triples\": %zu,\n", config.workers,
                config.triples);
    std::printf("  \"duration_ms\": %d,\n  \"results\": [\n",
                config.duration_ms);
    for (size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      std::printf(
          "    {\"mode\": \"%s\", \"multiplier\": %u, \"concurrency\": %u, "
          "\"stats\": %s}%s\n",
          r.mode.c_str(), r.multiplier, r.concurrency,
          r.stats.ToJson().c_str(), i + 1 < results.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
  }

  // Self-check for the CI smoke run: with shedding on, overload must
  // produce clean 503s rather than latency collapse, and served-request
  // p99 at 4x must stay within an order of magnitude of 1x. With the
  // queue unbounded no connection may be shed.
  const RunResult& shed1 = results[0];
  const RunResult& shed4 = results[2];
  const RunResult& queue4 = results[5];
  if (shed4.stats.shed == 0) {
    std::fprintf(stderr, "FAIL: no shedding at 4x offered load\n");
    return 1;
  }
  if (queue4.stats.shed != 0) {
    std::fprintf(stderr, "FAIL: unbounded queue still shed connections\n");
    return 1;
  }
  if (shed1.stats.p99_ns > 0 &&
      shed4.stats.p99_ns > 10 * shed1.stats.p99_ns) {
    std::fprintf(stderr,
                 "FAIL: shedding did not bound p99 (1x=%lldns 4x=%lldns)\n",
                 static_cast<long long>(shed1.stats.p99_ns),
                 static_cast<long long>(shed4.stats.p99_ns));
    return 1;
  }
  return 0;
}
