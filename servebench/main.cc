// servebench: the repository's serving benchmark.
//
// One process generates a seeded UniProt dataset (1M triples by
// default, ~5 % of statements reified and asserted by a curator), loads
// it into a SnapshotRdfStore, serves it with rdfdb::server::RdfServer on
// loopback, and drives it with closed-loop clients that send real HTTP
// requests and check every reply against an answer key computed from
// the generated statements (dataset.h). Workloads:
//
//   serve_lookup  half `(<protein> ?p ?o)`, half a 3-pattern join keyed
//                 on a uniformly drawn up:mnemonic literal
//   serve_scan    2000-row scans: rdfs:seeAlso of a popular xref, a
//                 Chain3 through a popular citation, curator assertions
//                 about reified statements
//   serve_write   one client alternates POST /insert and POST /reify,
//                 the others run the serve_lookup mix
//
// After the timed reads, every run sends a few single-statement writes
// one at a time (write_p50_ms). Untraced runs (--trace 0) report the
// end-to-end metrics. A traced run (--trace 1) gives half its time to
// the untraced phase, then replays the same request stream while
// timing, from this file, the public call of each layer the request
// crosses: RdfServer::Handle, SnapshotRdfStore::Snapshot, SdoRdfMatch
// with a QueryTrace, and for writes ParseNTriplesDocument and
// SnapshotRdfStore::Apply. It reports the per-layer metrics and writes
// the spans as Chrome trace JSON.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every reply and every post-run check was
// right.
//
// Usage: servebench --workload NAME --seed N --seconds S --trace 0|1
//                   [--triples N] [--out DIR] [--commit TEXT]
//                   [--why TEXT] [--corrupt-expected]

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "dataset.h"
#include "http_client.h"
#include "obs/trace.h"
#include "query/match.h"
#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/snapshot_store.h"
#include "rdf/vocab.h"
#include "server/http.h"
#include "server/server.h"
#include "spans.h"

namespace servebench {
namespace {

using rdfdb::Status;
using rdfdb::gen::UniProtDataset;
using rdfdb::rdf::RdfStore;
using rdfdb::rdf::SnapshotRdfStore;
namespace server = rdfdb::server;

constexpr double kWarmupSeconds = 0.5;
/// Writes behind write_p50_ms, sent after the read phase; each takes
/// ~0.3-0.5 s at 1M triples. The first, ~2x slower, is not timed; the
/// timed count is odd, so the median is one of them.
constexpr int kWarmupWrites = 1;
constexpr int kTimedWrites = 15;
/// Single-statement writes the traced run times through the write
/// layers after its timed phase (so every workload reports them); each
/// takes ~0.7 s at 1M triples.
constexpr int kProbeWrites = 4;
/// Server deadlines and client socket timeouts: far above any healthy
/// request, so a 504 or a timeout means something is wrong.
constexpr int kTimeoutMs = 60000;
/// Spans written to the trace file (all are kept for the statistics).
constexpr size_t kMaxTraceSpans = 50000;

enum class Workload { kLookup, kScan, kWrite };

struct Config {
  std::string workload_name;
  Workload workload = Workload::kLookup;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t triples = 1000000;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string why;
  bool corrupt_expected = false;
};

double Ms(double ns) { return ns / 1e6; }

// ---- Set-up ---------------------------------------------------------------

struct SetupTimes {
  double total_s = 0;
  double bulk_load_s = 0;
  double bulk_parse_s = 0;
  double bulk_intern_s = 0;
  double bulk_insert_s = 0;
  double reify_load_s = 0;
  double start_ms = 0;
};

struct Served {
  // The server holds a raw pointer to the store: declared after it so it
  // is destroyed (and drained) first.
  std::unique_ptr<SnapshotRdfStore> store;
  std::unique_ptr<server::RdfServer> server;
  rdfdb::rdf::ModelId model_id = 0;
};

/// Load, reify, publish and start serving; the clock runs from handing
/// the statements to the store until the server answers its first
/// request. Fills `curated` with the curator assertions the store
/// acknowledged. Returns "" or what failed.
std::string SetUp(const UniProtDataset& data, unsigned workers,
                  std::unordered_set<uint64_t>* curated, Served* out,
                  SetupTimes* t, SpanLog* spans) {
  const int64_t t0 = NowNs();
  out->store = std::make_unique<SnapshotRdfStore>();
  auto created = out->store->CreateRdfModel(
      kModel, std::string(kModel) + "_app", "triple");
  if (!created.ok()) return "create model: " + created.status().ToString();
  out->model_id = created->model_id;

  rdfdb::rdf::BulkLoadStats stats;
  int64_t t_bulk = 0;
  int64_t t_reify = 0;
  int64_t t_fn_end = 0;
  const Status applied = out->store->Apply([&](RdfStore& live) -> Status {
    t_bulk = NowNs();
    auto loaded = rdfdb::rdf::BulkLoad(&live, kModel, data.triples);
    if (!loaded.ok()) return loaded.status();
    stats = *loaded;
    t_reify = NowNs();
    const std::string curated_by = Angle(rdfdb::gen::kUpCuratedBy);
    for (const rdfdb::gen::ReifiedStatement& r : data.reified) {
      auto id = live.GetTripleId(kModel, r.base.subject.ToNTriples(),
                                 r.base.predicate.ToNTriples(),
                                 r.base.object.ToNTriples());
      if (!id.ok()) return id.status();
      RDFDB_RETURN_NOT_OK(live.ReifyTriple(kModel, *id).status());
      const std::string curator = Angle(r.curator_uri);
      RDFDB_RETURN_NOT_OK(
          live.AssertAboutTriple(kModel, curator, curated_by, *id).status());
      curated->insert(CuratedKey(curator, *id));
    }
    t_fn_end = NowNs();
    return Status::OK();
  });
  const int64_t t_published = NowNs();
  if (!applied.ok()) return "load: " + applied.ToString();

  server::RdfServerOptions options;
  options.workers = workers;
  options.query_threads = 1;
  options.max_deadline_ms = kTimeoutMs;
  options.default_deadline_ms = kTimeoutMs;
  out->server = std::make_unique<server::RdfServer>(out->store.get(), options);
  const Status started = out->server->Start();
  if (!started.ok()) return "server start: " + started.ToString();
  HttpReply first;
  for (int attempt = 0; attempt < 100 && first.status == 0; ++attempt) {
    first = RoundTrip(out->server->port(), "GET", "/healthz", "", kTimeoutMs);
  }
  const int64_t t_end = NowNs();
  if (first.status == 0) return "server never answered: " + first.error;

  t->total_s = static_cast<double>(t_end - t0) / 1e9;
  t->bulk_load_s = static_cast<double>(t_reify - t_bulk) / 1e9;
  t->bulk_parse_s = static_cast<double>(stats.parse_ns) / 1e9;
  t->bulk_intern_s = static_cast<double>(stats.intern_ns) / 1e9;
  t->bulk_insert_s = static_cast<double>(stats.insert_ns) / 1e9;
  t->reify_load_s = static_cast<double>(t_fn_end - t_reify) / 1e9;
  t->start_ms = static_cast<double>(t_end - t_published) / 1e6;
  spans->Add("setup", "", 0, t0, t_end - t0);
  spans->Add("rdf.bulk_load", "setup", 0, t_bulk, t_reify - t_bulk);
  spans->Add("rdf.reify_load", "setup", 0, t_reify, t_fn_end - t_reify);
  spans->Add("rdf.publish", "setup", 0, t_fn_end, t_published - t_fn_end);
  spans->Add("server.start", "setup", 0, t_published, t_end - t_published);
  return "";
}

// ---- Memory ledger --------------------------------------------------------

struct ProcMemory {
  double rss_bytes = 0;
  double hwm_bytes = 0;
};

ProcMemory ReadProcMemory() {
  ProcMemory m;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    const bool rss = line.rfind("VmRSS:", 0) == 0;
    const bool hwm = line.rfind("VmHWM:", 0) == 0;
    if (rss || hwm) {
      const double kb = std::atof(line.c_str() + 6);
      (rss ? m.rss_bytes : m.hwm_bytes) = kb * 1024;
    }
  }
  return m;
}

/// Samples RSS, retired-version bytes, the oldest pin's epoch lag and
/// the admission queue depth while a run is in progress.
class Sampler {
 public:
  Sampler(const SnapshotRdfStore* store, const server::RdfServer* server)
      : store_(store), server_(server), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read only after Stop().
  double rss_max = 0;
  double retired_bytes_max = 0;
  double pin_lag_max = 0;
  double queue_depth_max = 0;
  size_t samples = 0;

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      rss_max = std::max(rss_max, ReadProcMemory().rss_bytes);
      retired_bytes_max = std::max(
          retired_bytes_max, static_cast<double>(store_->RetiredBytes()));
      pin_lag_max =
          std::max(pin_lag_max, static_cast<double>(store_->OldestPinLag()));
      queue_depth_max = std::max(
          queue_depth_max,
          static_cast<double>(server_->metrics().queue_depth->Value()));
      ++samples;
      cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; });
    }
  }

  const SnapshotRdfStore* store_;
  const server::RdfServer* server_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mu_
  std::thread thread_;
};

// ---- Clients --------------------------------------------------------------

struct Sample {
  OpKind kind;
  int64_t start_ns;
  int64_t latency_ns;
};

/// Per-op-kind sums of the traced replay's layer timings.
struct LayerSums {
  size_t n = 0;
  double client_ns = 0;
  double handle_ns = 0;
  double pin_ns = 0;
  double match_ns = 0;
  double plan_ns = 0;
  double exec_ns = 0;
  double resolve_ns = 0;
  double rows = 0;
  double rows_scanned = 0;
  double allocations = 0;
  double alloc_bytes = 0;

  void Merge(const LayerSums& o) {
    n += o.n;
    client_ns += o.client_ns;
    handle_ns += o.handle_ns;
    pin_ns += o.pin_ns;
    match_ns += o.match_ns;
    plan_ns += o.plan_ns;
    exec_ns += o.exec_ns;
    resolve_ns += o.resolve_ns;
    rows += o.rows;
    rows_scanned += o.rows_scanned;
    allocations += o.allocations;
    alloc_bytes += o.alloc_bytes;
  }
};

constexpr size_t kReadKinds = 3;  // lookup, join, scan: OpKind order

struct ClientResult {
  explicit ClientResult(uint32_t lane) : spans(lane) {}
  std::vector<Sample> samples;  ///< timed, correct ops
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< the first few, for stderr
  size_t acked_inserts = 0;
  std::vector<int64_t> acked_reifies;
  int64_t last_done_ns = 0;  ///< completion of the last timed op
  double http_ns = 0;  ///< traced: client latency of every timed op
  size_t http_ops = 0;
  LayerSums layers[kReadKinds];
  SpanLog spans;

  void Fail(std::string why) {
    ++failed;
    if (failures.size() < 5) failures.push_back(std::move(why));
  }
};

struct Run {
  Config config;
  Oracle oracle;
  Served served;
  unsigned clients = 1;
  std::vector<int64_t> reify_pool;  ///< link ids never reified
  std::atomic<size_t> reify_next{0};
};

/// Next unused /reify target, or -1 when the pool is spent.
int64_t TakeReifyTarget(Run* run) {
  const size_t i = run->reify_next.fetch_add(1);
  return i < run->reify_pool.size() ? run->reify_pool[i] : -1;
}

/// One read's layer timings from the traced replay.
struct Replay {
  int64_t handle_start = 0;  ///< RdfServer::Handle
  int64_t pin_start = 0;     ///< SnapshotRdfStore::Snapshot
  int64_t match_start = 0;   ///< SdoRdfMatch
  int64_t match_end = 0;
  rdfdb::obs::QueryTrace trace;
  size_t rows = 0;
};

/// Time one read's layers through their public calls: the whole
/// RdfServer::Handle, then a pin and an SdoRdfMatch of the same query.
/// Returns "" or how the replay disagreed with the answer key.
std::string ReplayLayers(Run* run, const Request& req, Replay* out) {
  server::HttpRequest http;
  http.method = req.method;
  http.target = req.target;
  http.path = req.target.substr(0, req.target.find('?'));
  http.query = req.target.substr(req.target.find('?') + 1);

  out->handle_start = NowNs();
  const server::HttpResponse handled = run->served.server->Handle(http, nullptr);
  out->pin_start = NowNs();
  bool matched = false;
  {
    SnapshotRdfStore::ReadPin pin = run->served.store->Snapshot();
    out->match_start = NowNs();
    rdfdb::query::MatchOptions options;
    options.trace = &out->trace;
    options.limit = req.limit;
    options.threads = 1;
    auto result = rdfdb::query::SdoRdfMatch(pin.view(), req.pattern, {kModel},
                                            {}, "", options);
    out->match_end = NowNs();
    matched = result.ok();
    if (matched) out->rows = result->row_count();
  }
  if (handled.status != 200 || !matched || out->rows != req.expected_rows) {
    return std::string("traced replay of ") + OpKindName(req.kind) +
           " disagreed: HTTP " + std::to_string(handled.status) + ", " +
           std::to_string(out->rows) + " rows";
  }
  return "";
}

/// Add one replay to the spans and the per-kind sums.
void RecordReplay(const Request& req, uint64_t rid, const Replay& r,
                  ClientResult* out) {
  const rdfdb::obs::QueryTrace& trace = r.trace;
  out->spans.Add("server.handle", "client", rid, r.handle_start,
                 r.pin_start - r.handle_start);
  out->spans.Add("rdf.pin", "client", rid, r.pin_start,
                 r.match_start - r.pin_start);
  out->spans.Add("query.match", "client", rid, r.match_start,
                 r.match_end - r.match_start);
  // QueryTrace gives stage durations, not start times: lay them out in
  // stage order inside the match span (resolve overlaps exec).
  int64_t at = r.match_start;
  out->spans.Add("query.parse", "query.match", rid, at, trace.parse_ns);
  at += trace.parse_ns;
  out->spans.Add("query.plan", "query.match", rid, at, trace.plan_ns);
  at += trace.plan_ns;
  out->spans.Add("query.exec", "query.match", rid, at, trace.exec_ns);
  out->spans.Add("query.resolve", "query.exec", rid,
                 at + std::max<int64_t>(0, trace.exec_ns - trace.resolve_ns),
                 trace.resolve_ns);

  LayerSums& sums = out->layers[static_cast<size_t>(req.kind)];
  ++sums.n;
  sums.handle_ns += static_cast<double>(r.pin_start - r.handle_start);
  sums.pin_ns += static_cast<double>(r.match_start - r.pin_start);
  sums.match_ns += static_cast<double>(r.match_end - r.match_start);
  sums.plan_ns += static_cast<double>(trace.plan_ns);
  sums.exec_ns += static_cast<double>(trace.exec_ns);
  sums.resolve_ns += static_cast<double>(trace.resolve_ns);
  sums.rows += static_cast<double>(r.rows);
  for (const rdfdb::obs::PatternTrace& p : trace.patterns) {
    sums.rows_scanned += static_cast<double>(p.rows_scanned);
  }
  sums.allocations += static_cast<double>(trace.allocations);
  sums.alloc_bytes += static_cast<double>(trace.bytes_allocated);
}

/// Send `req` and check the reply; records the outcome in `out` and
/// returns whether the reply was right. `done` receives the completion.
bool Issue(Run* run, const Request& req, ClientResult* out, int64_t* done) {
  const HttpReply reply = RoundTrip(run->served.server->port(), req.method,
                                    req.target, req.body, kTimeoutMs);
  *done = NowNs();
  ++out->attempted;
  std::string wrong;
  if (reply.status == 0) {
    wrong = "transport: " + reply.error;
  } else if (reply.status != 200) {
    wrong = "HTTP " + std::to_string(reply.status) + ": " +
            reply.body.substr(0, 200);
  } else {
    wrong = CheckReply(run->oracle, req, reply.body);
  }
  if (!wrong.empty()) {
    out->Fail(std::string(OpKindName(req.kind)) + " " + req.target + ": " +
              wrong);
    return false;
  }
  if (req.kind == OpKind::kInsert) ++out->acked_inserts;
  if (req.kind == OpKind::kReify) out->acked_reifies.push_back(req.link_id);
  return true;
}

void RunClient(Run* run, unsigned client, bool writer, bool traced,
               const std::string& phase, int64_t warm_end, int64_t end,
               ClientResult* out) {
  const Config& config = run->config;
  // The stream depends only on the seed and the client, so the traced
  // phase replays the untraced phase's requests.
  Rng rng(config.seed * 0x9E3779B97F4A7C15ull + client + 1);
  uint64_t seq = 0;
  bool insert_next = true;
  for (;;) {
    if (NowNs() >= end) break;
    Request req;
    int64_t reify_target = -1;
    if (writer && !insert_next) reify_target = TakeReifyTarget(run);
    if (writer && reify_target < 0) {
      req = MakeInsert(run->oracle, &rng,
                       std::to_string(config.seed) + "-" + phase + "-" +
                           std::to_string(seq));
    } else if (writer) {
      req = MakeReify(reify_target);
    } else if (config.workload == Workload::kScan) {
      req = NextScan(run->oracle, &rng);
    } else {
      req = NextPointRead(run->oracle, &rng);
    }
    insert_next = !insert_next;
    const uint64_t rid = (static_cast<uint64_t>(client) << 40) | seq++;

    // Traced reads are also replayed layer by layer in-process. The
    // replay runs before the HTTP request on even requests and after it
    // on odd ones, so neither side always finds the caches warm.
    const bool replayed = traced && !writer && NowNs() >= warm_end;
    const bool replay_first = replayed && rid % 2 == 0;
    Replay replay;
    std::string replay_wrong;
    if (replay_first) replay_wrong = ReplayLayers(run, req, &replay);

    const int64_t start = NowNs();
    int64_t done = 0;
    if (!Issue(run, req, out, &done) || start < warm_end) continue;

    out->samples.push_back(Sample{req.kind, start, done - start});
    out->last_done_ns = done;
    if (!traced) continue;
    out->spans.Add("client", "", rid, start, done - start);
    out->http_ns += static_cast<double>(done - start);
    ++out->http_ops;
    if (!replayed) continue;
    if (!replay_first) replay_wrong = ReplayLayers(run, req, &replay);
    if (!replay_wrong.empty()) {
      out->Fail(replay_wrong);
      continue;
    }
    out->layers[static_cast<size_t>(req.kind)].client_ns +=
        static_cast<double>(done - start);
    RecordReplay(req, rid, replay, out);
  }
}

/// The machine's CPU time from /proc/stat, in clock ticks: all of it,
/// and the part the hypervisor gave to other guests (steal).
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    double ticks = 0;
    if (!(stat >> ticks)) break;
    t.total += ticks;
    if (field == 7) t.steal = ticks;
  }
  return t;
}

struct PhaseResult {
  std::vector<std::unique_ptr<ClientResult>> clients;
  double seconds = 0;
  int64_t window_start_ns = 0;  ///< end of warm-up
  /// Whole 1-s windows in the timed phase, and the share of the machine's
  /// CPU time stolen by the hypervisor in each.
  std::vector<double> window_steal;
  std::vector<bool> kept;  ///< windows the medians are taken over
  uint64_t server_requests = 0;  ///< latency histogram count delta
  uint64_t server_ns = 0;        ///< latency histogram sum delta
};

/// A 1-s window counts toward the reported medians unless the hypervisor
/// stole more than this share of the machine's CPU time in it. On a
/// shared VM, stretches of steal slowed this closed loop 5-10x for many
/// seconds, which is the neighbours' load, not the program's.
constexpr double kMaxWindowSteal = 0.01;

/// Which samples (1-s windows, or writes) count, given the share of CPU
/// time stolen during each: those with at most kMaxWindowSteal, and
/// never fewer than the half with the least.
std::vector<bool> KeepUnstolen(const std::vector<double>& steal) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  std::vector<bool> kept(steal.size(), false);
  for (size_t i = 0; i < order.size(); ++i) {
    kept[order[i]] = i < (order.size() + 1) / 2 || steal[order[i]] <= kMaxWindowSteal;
  }
  return kept;
}

/// Run every client for a warm-up plus `seconds` of timed ops.
PhaseResult RunPhase(Run* run, bool traced, const std::string& phase,
                     double seconds) {
  PhaseResult result;
  const auto& hist = *run->served.server->metrics().latency_ns;
  const int64_t begin = NowNs();
  const int64_t warm_end = begin + static_cast<int64_t>(kWarmupSeconds * 1e9);
  const int64_t end = warm_end + static_cast<int64_t>(seconds * 1e9);
  const size_t windows = static_cast<size_t>(seconds);
  uint64_t count0 = 0;
  uint64_t sum0 = 0;
  std::vector<CpuTicks> ticks(windows + 1);
  std::thread window_marker([&] {
    for (size_t w = 0; w <= windows; ++w) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(warm_end + static_cast<int64_t>(w) * 1000000000)));
      if (w == 0) {
        count0 = hist.count();
        sum0 = hist.sum();
      }
      ticks[w] = ReadCpuTicks();
    }
  });
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < run->clients; ++c) {
    result.clients.push_back(std::make_unique<ClientResult>(c + 1));
    const bool writer = run->config.workload == Workload::kWrite && c == 0;
    threads.emplace_back(RunClient, run, c, writer, traced, phase, warm_end,
                         end, result.clients.back().get());
  }
  for (std::thread& t : threads) t.join();
  window_marker.join();
  // Ops are timed when they start inside the window; the window ends
  // when the last of them completes.
  int64_t last_done = end;
  for (const auto& c : result.clients) {
    last_done = std::max(last_done, c->last_done_ns);
  }
  result.seconds = static_cast<double>(last_done - warm_end) / 1e9;
  result.window_start_ns = warm_end;
  for (size_t w = 0; w < windows; ++w) {
    const double total = ticks[w + 1].total - ticks[w].total;
    result.window_steal.push_back(
        total > 0 ? (ticks[w + 1].steal - ticks[w].steal) / total : 0);
  }
  result.kept = KeepUnstolen(result.window_steal);
  result.server_requests = hist.count() - count0;
  result.server_ns = hist.sum() - sum0;
  return result;
}

/// Single-statement writes over HTTP, one at a time on an otherwise
/// idle server, alternating POST /insert and POST /reify: the samples
/// behind write_p50_ms. `steal` receives the share of CPU time stolen
/// during each timed write.
ClientResult TimedWrites(Run* run, std::vector<double>* steal) {
  ClientResult out(run->clients + 1);
  Rng rng(run->config.seed ^ 0x3717ull);
  for (int i = 0; i < kWarmupWrites + kTimedWrites; ++i) {
    const int64_t link = i % 2 == 1 ? TakeReifyTarget(run) : -1;
    const Request req =
        link >= 0 ? MakeReify(link)
                  : MakeInsert(run->oracle, &rng,
                               std::to_string(run->config.seed) + "-write-" +
                                   std::to_string(i));
    const CpuTicks before = ReadCpuTicks();
    const int64_t start = NowNs();
    int64_t done = 0;
    if (Issue(run, req, &out, &done) && i >= kWarmupWrites) {
      const CpuTicks after = ReadCpuTicks();
      out.samples.push_back(Sample{req.kind, start, done - start});
      const double total = after.total - before.total;
      steal->push_back(total > 0 ? (after.steal - before.steal) / total : 0);
    }
  }
  return out;
}

// ---- Write layers (traced runs) -------------------------------------------

struct WriteLayers {
  size_t n = 0;
  size_t parses = 0;
  double writer_wait_ns = 0;
  double mutate_ns = 0;
  double publish_ns = 0;
  double parse_ns = 0;
  size_t acked_inserts = 0;
  std::vector<int64_t> acked_reifies;
  size_t failed = 0;
};

/// Single-statement writes timed through the write path's public calls:
/// ParseNTriplesDocument, then SnapshotRdfStore::Apply split into the
/// wait for the writer lock, the mutation and the publish.
WriteLayers ProbeWrites(Run* run, SpanLog* spans) {
  WriteLayers w;
  Rng rng(run->config.seed ^ 0x5EEDull);
  for (int i = 0; i < kProbeWrites; ++i) {
    const uint64_t rid = (uint64_t{1} << 48) | static_cast<uint64_t>(i);
    const int64_t link = i % 2 == 1 ? TakeReifyTarget(run) : -1;
    std::vector<rdfdb::rdf::NTriple> statements;
    if (link < 0) {
      const Request req = MakeInsert(
          run->oracle, &rng,
          std::to_string(run->config.seed) + "-probe-" + std::to_string(i));
      const int64_t p0 = NowNs();
      auto parsed = rdfdb::rdf::ParseNTriplesDocument(req.body);
      const int64_t p1 = NowNs();
      if (!parsed.ok()) {
        ++w.failed;
        continue;
      }
      statements = std::move(*parsed);
      w.parse_ns += static_cast<double>(p1 - p0);
      ++w.parses;
      spans->Add("rdf.ntriples_parse", "", rid, p0, p1 - p0);
    }
    int64_t entered = 0;
    int64_t left = 0;
    const int64_t called = NowNs();
    const Status status = run->served.store->Apply([&](RdfStore& live) -> Status {
      entered = NowNs();
      Status s = Status::OK();
      if (link >= 0) {
        s = live.ReifyTriple(kModel, link).status();
      } else {
        for (const rdfdb::rdf::NTriple& nt : statements) {
          s = live.InsertParsedTriple(run->served.model_id, nt.subject,
                                      nt.predicate, nt.object)
                  .status();
          if (!s.ok()) break;
        }
      }
      left = NowNs();
      return s;
    });
    const int64_t returned = NowNs();
    if (!status.ok()) {
      std::fprintf(stderr, "probe write: %s\n", status.ToString().c_str());
      ++w.failed;
      continue;
    }
    if (link >= 0) {
      w.acked_reifies.push_back(link);
    } else {
      ++w.acked_inserts;
    }
    ++w.n;
    w.writer_wait_ns += static_cast<double>(entered - called);
    w.mutate_ns += static_cast<double>(left - entered);
    w.publish_ns += static_cast<double>(returned - left);
    spans->Add("rdf.apply", "", rid, called, returned - called);
    spans->Add("rdf.writer_wait", "rdf.apply", rid, called, entered - called);
    spans->Add("rdf.mutate", "rdf.apply", rid, entered, left - entered);
    spans->Add("rdf.publish", "rdf.apply", rid, left, returned - left);
  }
  return w;
}

// ---- Reporting ------------------------------------------------------------

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  ///< 0 when not a sampled statistic
};

std::vector<double> LatenciesMs(const PhaseResult& phase,
                                const std::vector<OpKind>& kinds) {
  std::vector<double> out;
  for (const auto& c : phase.clients) {
    for (const Sample& s : c->samples) {
      if (std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
        out.push_back(Ms(static_cast<double>(s.latency_ns)));
      }
    }
  }
  return out;
}

/// Latencies (ms) of `kinds`, split by the 1-s window each op started
/// in; kept windows only.
std::vector<std::vector<double>> WindowLatenciesMs(
    const PhaseResult& phase, const std::vector<OpKind>& kinds) {
  std::vector<std::vector<double>> windows(phase.window_steal.size());
  for (const auto& c : phase.clients) {
    for (const Sample& s : c->samples) {
      const size_t w =
          static_cast<size_t>((s.start_ns - phase.window_start_ns) / 1000000000);
      if (w < windows.size() &&
          std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
        windows[w].push_back(Ms(static_cast<double>(s.latency_ns)));
      }
    }
  }
  std::vector<std::vector<double>> kept;
  for (size_t w = 0; w < windows.size(); ++w) {
    if (phase.kept[w]) kept.push_back(std::move(windows[w]));
  }
  return kept;
}

/// Percentile q of `kinds`' latency in each kept 1-s window; empty when
/// some window has too few ops for it.
std::vector<double> WindowPercentiles(const PhaseResult& phase,
                                      const std::vector<OpKind>& kinds,
                                      double q) {
  constexpr size_t kMinWindowSamples = 20;
  std::vector<double> per_window;
  for (std::vector<double>& w : WindowLatenciesMs(phase, kinds)) {
    if (w.size() < kMinWindowSamples) return {};
    per_window.push_back(Percentile(&w, q));
  }
  return per_window;
}

/// Percentile q of `kinds`' latency: the median over the kept 1-s
/// windows of each window's percentile, which keeps seconds of
/// interference from other tenants of the machine out of the result;
/// all samples pooled when the ops are too sparse for windows. `windows`
/// receives the per-window values.
double RobustPercentile(const PhaseResult& phase,
                        const std::vector<OpKind>& kinds, double q,
                        std::vector<double>* windows) {
  *windows = WindowPercentiles(phase, kinds, q);
  if (!windows->empty()) return Median(*windows);
  std::vector<double> pooled = LatenciesMs(phase, kinds);
  return Percentile(&pooled, q);
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  return out + "}";
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-40s %16.6f %-8s (n=%zu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

int Main(const Config& config) {
  Run run;
  run.config = config;
  const long nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  // Half the CPUs: on a shared 4-CPU VM, one client per CPU ran ~40 %
  // more requests per second while the host left the VM its CPUs, but
  // drew 10-30 % steal for whole runs and then ran 3-5x fewer; with two
  // clients steal stayed near 0. serve_write needs a reader beside its
  // writer.
  run.clients = static_cast<unsigned>(std::max(2L, nproc / 2));

  std::printf("servebench: workload=%s seed=%" PRIu64
              " seconds=%g trace=%d triples=%zu nproc=%ld clients=%u "
              "workers=%u build=%s compiler=%s commit=%s\n",
              config.workload_name.c_str(), config.seed, config.seconds,
              config.trace ? 1 : 0, config.triples, nproc, run.clients,
              run.clients, SERVEBENCH_BUILD_TYPE, SERVEBENCH_COMPILER,
              config.commit.c_str());

  // Inputs: generated from the seed; not part of set-up time.
  int64_t t = NowNs();
  rdfdb::gen::UniProtOptions gen_options;
  gen_options.target_triples = config.triples;
  gen_options.seed = config.seed;
  UniProtDataset data = rdfdb::gen::GenerateUniProt(gen_options);
  const size_t scan_rows = std::max<size_t>(
      20, static_cast<size_t>(2000.0 * static_cast<double>(config.triples) / 1e6));
  run.oracle = BuildOracle(data, scan_rows);
  if (config.corrupt_expected) CorruptExpectations(&run.oracle);
  const double gen_s = static_cast<double>(NowNs() - t) / 1e9;
  std::printf("inputs: %zu statements, %zu reified, %zu proteins, "
              "%zu+%zu popular scan keys (>= %zu rows), %.2f s\n",
              data.triples.size(), data.reified.size(),
              run.oracle.proteins.size(), run.oracle.see_also.size(),
              run.oracle.citations.size(), scan_rows, gen_s);
  if (run.oracle.proteins.empty() || run.oracle.see_also.empty() ||
      run.oracle.citations.empty() ||
      run.oracle.curator_assertions < scan_rows) {
    std::fprintf(stderr, "dataset too small for the workloads\n");
    return 1;
  }
  std::fflush(stdout);

  SpanLog setup_spans(0);
  SetupTimes setup;
  const std::string setup_error =
      SetUp(data, run.clients, &run.oracle.curated, &run.served, &setup,
            &setup_spans);
  if (!setup_error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup_error.c_str());
    return 1;
  }
  const int64_t origin = NowNs() - static_cast<int64_t>(setup.total_s * 1e9);

  size_t attempted = 0;
  size_t failed = 0;
  const size_t loaded_triples =
      run.served.store->Snapshot()->TripleCount(run.served.model_id);
  ++attempted;
  if (loaded_triples != run.oracle.expected_triples) {
    ++failed;
    std::fprintf(stderr, "loaded %zu triples, expected %zu\n", loaded_triples,
                 run.oracle.expected_triples);
  }
  {
    SnapshotRdfStore::ReadPin pin = run.served.store->Snapshot();
    const std::string see_also =
        Angle(std::string(rdfdb::rdf::kRdfsSeeAlso));
    for (const Unreified& u : run.oracle.unreified) {
      auto id = pin->GetTripleId(kModel, Angle(u.subject), see_also,
                                 Angle(u.object));
      if (id.ok()) run.reify_pool.push_back(*id);
    }
  }
  // The generated statements are no longer needed: free them so the
  // memory ledger sees the store, not the generator.
  data = UniProtDataset();
  ::malloc_trim(0);

  const uint64_t versions_before = run.served.store->PublishedVersions();
  Sampler sampler(run.served.store.get(), run.served.server.get());
  // A traced run splits its time between an untraced and a traced phase.
  const double phase_seconds = config.trace ? config.seconds / 2 : config.seconds;
  PhaseResult untraced = RunPhase(&run, /*traced=*/false, "run", phase_seconds);

  // Memory at the end of the timed reads, before any write probe.
  const RdfStore::MemoryBreakdown mem = run.served.store->MemoryUsage();
  const ProcMemory proc = ReadProcMemory();
  const double live_triples =
      static_cast<double>(run.served.store->Snapshot()->TotalTripleCount());

  std::vector<double> write_steal;
  const ClientResult writes = TimedWrites(&run, &write_steal);
  PhaseResult traced;
  WriteLayers probe;
  SpanLog probe_spans(run.clients + 2);
  if (config.trace) {
    traced = RunPhase(&run, /*traced=*/true, "traced", phase_seconds);
    probe = ProbeWrites(&run, &probe_spans);
  }
  sampler.Stop();

  // Post-run checks: every acknowledged write is visible.
  size_t acked_inserts = probe.acked_inserts;
  std::vector<int64_t> acked_reifies = probe.acked_reifies;
  failed += probe.failed;
  attempted += probe.n + probe.failed;
  std::vector<std::string> failures;
  std::vector<const ClientResult*> clients = {&writes};
  for (PhaseResult* phase : {&untraced, &traced}) {
    for (const auto& c : phase->clients) clients.push_back(c.get());
  }
  for (const ClientResult* c : clients) {
    attempted += c->attempted;
    failed += c->failed;
    acked_inserts += c->acked_inserts;
    acked_reifies.insert(acked_reifies.end(), c->acked_reifies.begin(),
                         c->acked_reifies.end());
    for (const std::string& f : c->failures) failures.push_back(f);
  }
  {
    SnapshotRdfStore::ReadPin pin = run.served.store->Snapshot();
    for (const int64_t link : acked_reifies) {
      ++attempted;
      auto reified = pin->IsLinkReified(run.served.model_id, link);
      if (!reified.ok() || !*reified) {
        ++failed;
        failures.push_back("acknowledged reify of link " +
                           std::to_string(link) + " is not reified");
      }
    }
    const size_t expected = loaded_triples + acked_inserts + acked_reifies.size();
    const size_t live = pin->TripleCount(run.served.model_id);
    ++attempted;
    if (live != expected) {
      ++failed;
      failures.push_back("model holds " + std::to_string(live) +
                         " triples, expected " + std::to_string(expected));
    }
  }
  for (size_t i = 0; i < failures.size() && i < 10; ++i) {
    std::fprintf(stderr, "FAILED: %s\n", failures[i].c_str());
  }

  const uint64_t versions = run.served.store->PublishedVersions() - versions_before;
  run.served.server->Shutdown();

  // End-to-end metrics (untraced phase and the timed writes).
  size_t served_ops = 0;
  for (const auto& c : untraced.clients) served_ops += c->samples.size();
  const std::vector<OpKind> all_kinds = {OpKind::kLookup, OpKind::kJoin,
                                         OpKind::kScan, OpKind::kInsert,
                                         OpKind::kReify};
  // Throughput is the median over whole 1-s windows, like the latencies.
  std::vector<double> window_ops;
  for (const std::vector<double>& w : WindowLatenciesMs(untraced, all_kinds)) {
    window_ops.push_back(static_cast<double>(w.size()));
  }
  const double ops_per_s =
      window_ops.empty() ? static_cast<double>(served_ops) / untraced.seconds
                         : Median(window_ops);
  const std::vector<OpKind> read_kinds = {OpKind::kLookup, OpKind::kJoin,
                                          OpKind::kScan};
  const size_t read_n = LatenciesMs(untraced, read_kinds).size();
  // Writes, like windows, count unless the hypervisor stole CPU time.
  std::vector<double> write_ms;
  std::vector<double> kept_write_ms;
  const std::vector<bool> kept_writes = KeepUnstolen(write_steal);
  for (size_t i = 0; i < writes.samples.size(); ++i) {
    write_ms.push_back(Ms(static_cast<double>(writes.samples[i].latency_ns)));
    if (kept_writes[i]) kept_write_ms.push_back(write_ms.back());
  }
  std::vector<double> w_read50, w_read95;
  const std::vector<double> kept(untraced.kept.begin(), untraced.kept.end());
  const std::vector<Metric> end_to_end = {
      {"setup_s", setup.total_s, "s", 1},
      {"ops_per_s", ops_per_s, "1/s", served_ops},
      {"read_p50_ms", RobustPercentile(untraced, read_kinds, 0.50, &w_read50),
       "ms", read_n},
      {"read_p95_ms", RobustPercentile(untraced, read_kinds, 0.95, &w_read95),
       "ms", read_n},
      {"rss_bytes_per_triple", proc.rss_bytes / live_triples, "B", 0},
      {"peak_rss_bytes_per_triple", proc.hwm_bytes / live_triples, "B", 0},
  };

  // Per op kind, printed and recorded with their sample counts.
  std::vector<Metric> by_kind;
  for (OpKind kind : {OpKind::kLookup, OpKind::kJoin, OpKind::kScan,
                      OpKind::kInsert, OpKind::kReify}) {
    std::vector<double> ms = LatenciesMs(untraced, {kind});
    if (ms.empty()) continue;
    const std::string name = OpKindName(kind);
    by_kind.push_back({name + "_p50_ms", Percentile(&ms, 0.50), "ms", ms.size()});
    by_kind.push_back({name + "_p90_ms", Percentile(&ms, 0.90), "ms", ms.size()});
    by_kind.push_back({name + "_p95_ms", Percentile(&ms, 0.95), "ms", ms.size()});
  }
  // Not in BENCHMARK.json: over ten runs its IQR reached 0.2-0.27 of the
  // median, mostly whole runs that wrote ~30 % faster or slower.
  by_kind.push_back({"write_p50_ms", Median(kept_write_ms), "ms",
                     kept_write_ms.size()});
  by_kind.push_back({"error_frac",
                     static_cast<double>(failed) /
                         static_cast<double>(std::max<size_t>(1, attempted)),
                     "1", attempted});

  std::vector<Metric> per_layer;
  if (config.trace) {
    LayerSums kinds[kReadKinds];
    LayerSums reads;
    double http_ns = 0;
    size_t http_ops = 0;
    size_t traced_ops = 0;
    std::vector<const SpanLog*> logs = {&setup_spans, &probe_spans};
    for (const auto& c : traced.clients) {
      for (size_t k = 0; k < kReadKinds; ++k) {
        kinds[k].Merge(c->layers[k]);
        reads.Merge(c->layers[k]);
      }
      http_ns += c->http_ns;
      http_ops += c->http_ops;
      traced_ops += c->samples.size();
      logs.push_back(&c->spans);
    }
    const double n = static_cast<double>(std::max<size_t>(1, reads.n));
    const double request_ns =
        static_cast<double>(traced.server_ns) /
        static_cast<double>(std::max<uint64_t>(1, traced.server_requests));
    const double transport_ns =
        http_ns / static_cast<double>(std::max<size_t>(1, http_ops)) -
        request_ns;
    const double handle_self_ns = (reads.handle_ns - reads.pin_ns - reads.match_ns) / n;
    const double unaccounted_ns = reads.client_ns / n - transport_ns -
                                  handle_self_ns - reads.pin_ns / n -
                                  reads.match_ns / n;
    const double rows = std::max(1.0, reads.rows);
    const double probes = static_cast<double>(std::max<size_t>(1, probe.n));
    const double tracked = static_cast<double>(mem.tracked_heap_bytes);
    per_layer = {
        {"server.request_ms", Ms(request_ns), "ms", traced.server_requests},
        {"server.transport_ms", Ms(transport_ns), "ms", http_ops},
        {"server.handle_self_ms", Ms(handle_self_ns), "ms", reads.n},
        {"server.unaccounted_ms", Ms(unaccounted_ns), "ms", reads.n},
        {"server.queue_depth_max", sampler.queue_depth_max, "count", sampler.samples},
        {"server.start_ms", setup.start_ms, "ms", 1},
        {"query.match_ms", Ms(reads.match_ns / n), "ms", reads.n},
        {"query.plan_ms", Ms(reads.plan_ns / n), "ms", reads.n},
        {"query.exec_ms", Ms(reads.exec_ns / n), "ms", reads.n},
        {"query.resolve_ms", Ms(reads.resolve_ns / n), "ms", reads.n},
        {"query.rows_scanned_per_row", reads.rows_scanned / rows, "count", reads.n},
        {"query.allocs_per_row", reads.allocations / rows, "count", reads.n},
        {"query.alloc_bytes_per_row", reads.alloc_bytes / rows, "B", reads.n},
        {"rdf.pin_us", reads.pin_ns / n / 1e3, "us", reads.n},
        {"rdf.writer_wait_ms", Ms(probe.writer_wait_ns / probes), "ms", probe.n},
        {"rdf.mutate_ms", Ms(probe.mutate_ns / probes), "ms", probe.n},
        {"rdf.publish_ms", Ms(probe.publish_ns / probes), "ms", probe.n},
        {"rdf.ntriples_parse_us",
         probe.parse_ns / static_cast<double>(std::max<size_t>(1, probe.parses)) / 1e3,
         "us", probe.parses},
        {"rdf.versions_published", static_cast<double>(versions), "count", 0},
        {"rdf.retired_bytes_max", sampler.retired_bytes_max, "B", sampler.samples},
        {"rdf.oldest_pin_lag_max", sampler.pin_lag_max, "count", sampler.samples},
        {"rdf.bulk_load_s", setup.bulk_load_s, "s", 1},
        {"rdf.bulk_parse_s", setup.bulk_parse_s, "s", 1},
        {"rdf.bulk_intern_s", setup.bulk_intern_s, "s", 1},
        {"rdf.bulk_insert_s", setup.bulk_insert_s, "s", 1},
        {"rdf.reify_load_s", setup.reify_load_s, "s", 1},
        {"storage.value_table_bytes_per_triple",
         static_cast<double>(mem.value_store_bytes) / live_triples, "B", 0},
        {"storage.link_table_bytes_per_triple",
         static_cast<double>(mem.link_table_bytes) / live_triples, "B", 0},
        {"rdf.mem.quad_cache_bytes_per_triple",
         static_cast<double>(mem.quad_cache_bytes) / live_triples, "B", 0},
        {"rdf.mem.term_dict_bytes_per_triple",
         static_cast<double>(mem.term_dict_bytes) / live_triples, "B", 0},
        {"rdf.mem.retired_bytes_per_triple",
         static_cast<double>(mem.retired_version_bytes) / live_triples, "B", 0},
        {"mem.unattributed_bytes_per_triple",
         (tracked - static_cast<double>(mem.StoreTotal())) / live_triples, "B", 0},
        {"mem.untracked_rss_bytes_per_triple",
         (proc.rss_bytes - tracked) / live_triples, "B", 0},
        {"trace.overhead_ops_per_s",
         static_cast<double>(traced_ops) / traced.seconds - ops_per_s, "1/s", traced_ops},
    };

    // Self time per layer and op kind (ms per op).
    std::printf("per-layer self time by op kind (traced replay, ms/op):\n");
    std::printf("  %-7s %7s %9s %9s %9s %9s %9s %9s %9s %9s\n", "kind", "n",
                "client", "transp.", "unacct.", "handle", "pin", "plan",
                "exec", "match");
    for (size_t k = 0; k < kReadKinds; ++k) {
      const LayerSums& s = kinds[k];
      if (s.n == 0) continue;
      const double kn = static_cast<double>(s.n);
      const double handle_self = (s.handle_ns - s.pin_ns - s.match_ns) / kn;
      std::printf("  %-7s %7zu %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f %9.4f\n",
                  OpKindName(static_cast<OpKind>(k)), s.n, Ms(s.client_ns / kn),
                  Ms(transport_ns),
                  Ms(s.client_ns / kn - transport_ns - handle_self -
                     s.pin_ns / kn - s.match_ns / kn),
                  Ms(handle_self), Ms(s.pin_ns / kn), Ms(s.plan_ns / kn),
                  Ms(s.exec_ns / kn), Ms(s.match_ns / kn));
    }
    const std::string trace_path = config.out_dir + "/trace-" +
                                   config.workload_name + "-seed" +
                                   std::to_string(config.seed) + ".json";
    if (WriteChromeTrace(trace_path, logs, origin, kMaxTraceSpans)) {
      std::printf("spans: %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  std::printf("ops per kept 1-s window:");
  for (const double n : window_ops) std::printf(" %.0f", n);
  std::printf("\nsteal per 1-s window (%%):");
  for (const double st : untraced.window_steal) std::printf(" %.1f", st * 100);
  std::printf("\n");
  PrintMetrics("end-to-end:", end_to_end);
  PrintMetrics("by op kind:", by_kind);
  if (config.trace) PrintMetrics("per layer:", per_layer);
  std::printf("memory ledger: rss_max %.0f B, VmHWM %.0f B, tracked heap %.0f B, "
              "store total %zu B, %.0f live triples\n",
              sampler.rss_max, proc.hwm_bytes,
              static_cast<double>(mem.tracked_heap_bytes), mem.StoreTotal(),
              live_triples);

  const bool correct = failed == 0;
  const std::string metrics_json = MetricsJson(config.trace ? per_layer : end_to_end);
  // Full record of the run, environment stamp included.
  const std::string record_path = config.out_dir + "/" + config.workload_name +
                                  "-seed" + std::to_string(config.seed) +
                                  (config.trace ? "-trace" : "") + ".json";
  if (std::FILE* f = std::fopen(record_path.c_str(), "w")) {
    std::vector<Metric> everything = end_to_end;
    everything.insert(everything.end(), by_kind.begin(), by_kind.end());
    everything.insert(everything.end(), per_layer.begin(), per_layer.end());
    std::string samples = "{";
    for (size_t i = 0; i < everything.size(); ++i) {
      if (i > 0) samples += ", ";
      samples += "\"" + everything[i].name + "\": " +
                 std::to_string(everything[i].samples);
    }
    samples += "}";
    std::fprintf(
        f,
        "{\"benchmark\": \"servebench\", \"workload\": \"%s\", \"why\": \"%s\", "
        "\"seed\": %" PRIu64 ", \"seconds\": %s, \"trace\": %d,\n"
        " \"env\": {\"nproc\": %ld, \"build_type\": \"%s\", \"compiler\": \"%s\", "
        "\"commit\": \"%s\", \"triples\": %zu, \"clients\": %u, \"workers\": %u},\n"
        " \"correct\": %s, \"attempted\": %zu, \"failed\": %zu,\n"
        " \"metrics\": %s,\n \"samples\": %s,\n"
        " \"windows\": {\"steal\": %s, \"kept\": %s, \"ops_per_s\": %s, "
        "\"read_p50_ms\": %s, \"read_p95_ms\": %s},\n"
        " \"writes\": {\"ms\": %s, \"steal\": %s}}\n",
        config.workload_name.c_str(), JsonEscape(config.why).c_str(),
        config.seed, FormatNumber(config.seconds).c_str(), config.trace ? 1 : 0,
        nproc, SERVEBENCH_BUILD_TYPE, SERVEBENCH_COMPILER,
        JsonEscape(config.commit).c_str(), config.triples, run.clients,
        run.clients, correct ? "true" : "false", attempted, failed,
        MetricsJson(everything).c_str(), samples.c_str(),
        JsonArray(untraced.window_steal).c_str(), JsonArray(kept).c_str(),
        JsonArray(window_ops).c_str(), JsonArray(w_read50).c_str(),
        JsonArray(w_read95).c_str(), JsonArray(write_ms).c_str(),
        JsonArray(write_steal).c_str());
    std::fclose(f);
    std::printf("record: %s\n", record_path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--corrupt-expected") {
      config->corrupt_expected = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      config->workload_name = v;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::atof(v);
    } else if (arg == "--trace") {
      config->trace = std::atoi(v) != 0;
    } else if (arg == "--triples") {
      config->triples = std::strtoull(v, nullptr, 10);
    } else if (arg == "--out") {
      config->out_dir = v;
    } else if (arg == "--commit") {
      config->commit = v;
    } else if (arg == "--why") {
      config->why = v;
    } else {
      return false;
    }
  }
  static const std::map<std::string, Workload> kWorkloads = {
      {"serve_lookup", Workload::kLookup},
      {"serve_scan", Workload::kScan},
      {"serve_write", Workload::kWrite}};
  auto it = kWorkloads.find(config->workload_name);
  if (it == kWorkloads.end() || config->seconds <= 0 || config->triples == 0) {
    return false;
  }
  config->workload = it->second;
  return true;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  servebench::Config config;
  if (!servebench::ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: servebench --workload serve_lookup|serve_scan|"
                 "serve_write --seed N --seconds S --trace 0|1 [--triples N] "
                 "[--out DIR] [--commit TEXT] [--why TEXT] "
                 "[--corrupt-expected]\n");
    return 2;
  }
  const int rc = servebench::Main(config);
  // Every thread has been joined; skip freeing the store's millions of
  // objects, which would only lengthen each run.
  std::fflush(nullptr);
  std::_Exit(rc);
}
