#include "server/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

// Linux-specific "peer closed its end" poll flag; absent unless
// _GNU_SOURCE, so define the kernel value directly.
#ifndef POLLRDHUP
#define POLLRDHUP 0x2000
#endif

#include "obs/active_ops.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "query/exec.h"
#include "query/match.h"
#include "rdf/ntriples.h"

namespace rdfdb::server {

namespace {

/// JSON rendering of the trace counts a partially-executed query
/// accumulated before its deadline fired — the 504 body's "the server
/// did do work for you" accounting.
std::string PartialStatsJson(const obs::QueryTrace& trace) {
  std::string out = "{\"patterns\": [";
  size_t total_scanned = 0;
  for (size_t i = 0; i < trace.patterns.size(); ++i) {
    const obs::PatternTrace& p = trace.patterns[i];
    if (i > 0) out += ", ";
    out += "{\"index\": " + std::to_string(p.pattern_index);
    out += ", \"scanned\": " + std::to_string(p.rows_scanned);
    out += ", \"emitted\": " + std::to_string(p.rows_emitted) + "}";
    total_scanned += p.rows_scanned;
  }
  out += "], \"rows_scanned\": " + std::to_string(total_scanned);
  out += ", \"rows_emitted\": " + std::to_string(trace.rows_emitted);
  out += ", \"value_lookups\": " + std::to_string(trace.value_lookups);
  out += ", \"exec_threads\": " + std::to_string(trace.exec_threads);
  out += ", \"exec_chunks\": " + std::to_string(trace.exec_chunks);
  out += "}";
  return out;
}

/// Append the result rows as JSON arrays of N-Triples strings, copied
/// straight from the pinned version's term dictionary, where each term
/// is stored spelled: a JSON-clean spelling goes between two quotes as
/// is, and only a flagged one is escaped. `dict` must be the dictionary
/// of the version the result came from (query/match.h's lifetime
/// rule). Rendering spends the same deadline as the match: a fired
/// `token` (may be null) stops it within query::kCancelCheckIntervalRows
/// rows, the executor's interval, with DeadlineExceeded or Cancelled.
Status AppendJsonRows(const query::MatchResult& table,
                      const rdf::TermDict& dict, const CancelToken* token,
                      std::string* body) {
  const size_t width = table.columns().size();
  // Typical cells run 20-60 bytes: start near the final size rather
  // than doubling up to it.
  body->reserve(body->size() + table.row_count() * (width * 32 + 4));
  for (size_t r = 0; r < table.row_count(); ++r) {
    if (token != nullptr && r % query::kCancelCheckIntervalRows == 0 &&
        token->Expired()) {
      const Status done = token->StatusIfDone();
      const std::string message = done.message() + " while rendering row " +
                                  std::to_string(r) + " of " +
                                  std::to_string(table.row_count());
      return done.IsCancelled() ? Status::Cancelled(message)
                                : Status::DeadlineExceeded(message);
    }
    if (r > 0) body->append(", ", 2);
    body->push_back('[');
    for (size_t c = 0; c < width; ++c) {
      if (c > 0) body->append(", ", 2);
      const std::optional<rdf::TermDict::Spelling> cell =
          dict.SpellingOf(table.id(r, c));
      if (!cell.has_value()) {
        return Status::NotFound("VALUE_ID " + std::to_string(table.id(r, c)));
      }
      if (cell->json_clean) {
        body->push_back('"');
        body->append(cell->text);
        body->push_back('"');
      } else {
        obs::AppendJsonString(cell->text, body);
      }
    }
    body->push_back(']');
  }
  return Status::OK();
}

int64_t ParseInt64(const std::string& text, int64_t fallback) {
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return fallback;
  return static_cast<int64_t>(v);
}

void SetSocketTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = std::move(body);
  return resp;
}

}  // namespace

ServerMetrics::ServerMetrics(obs::MetricsRegistry* registry)
    : accepted(registry->RegisterCounter(
          "rdfdb_server_accepted_total",
          "connections admitted into the request queue")),
      shed(registry->RegisterCounter(
          "rdfdb_server_shed_total",
          "connections refused with 503 because the queue was full")),
      deadline_exceeded(registry->RegisterCounter(
          "rdfdb_server_deadline_exceeded_total",
          "requests that failed with 504 (deadline fired)")),
      cancelled(registry->RegisterCounter(
          "rdfdb_server_cancelled_total",
          "requests abandoned by the client before completion")),
      queue_depth(registry->RegisterGauge(
          "rdfdb_server_queue_depth",
          "admitted connections waiting for a worker")),
      inflight(registry->RegisterGauge(
          "rdfdb_server_inflight_requests",
          "requests currently being served")),
      latency_ns(registry->RegisterHistogram(
          "rdfdb_server_request_latency_ns",
          "accept-to-response latency of served requests",
          obs::DefaultLatencyBucketsNs())) {}

RdfServer::RdfServer(rdf::SnapshotRdfStore* store, RdfServerOptions options)
    : store_(store),
      options_(std::move(options)),
      metrics_(&store->metrics_registry()),
      queue_(options_.queue_capacity),
      shed_window_(5) {
  obs::StatsRouter::Sources sources = options_.stats_sources;
  if (sources.registry == nullptr) {
    sources.registry = &store_->metrics_registry();
  }
  if (!sources.refresh) {
    sources.refresh = [store = store_] { store->UpdateMemoryGauges(); };
  }
  // The front-end owns the overload half of /healthz; the router's
  // own signals (event-log drops, epoch lag) still apply.
  sources.extra_health = [this] { return OverloadSignal(); };
  stats_ = std::make_unique<obs::StatsRouter>(sources);
}

RdfServer::~RdfServer() { Shutdown(); }

Status RdfServer::Start() {
  if (listen_fd_.load(std::memory_order_acquire) >= 0) {
    return Status::InvalidArgument("server already started");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status st =
        Status::IOError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 128) != 0) {
    const Status st =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  listen_fd_.store(fd, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);

  acceptor_ = std::thread([this] { AcceptLoop(); });
  const unsigned workers = std::max(1u, options_.workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  watcher_ = std::thread([this] { WatchLoop(); });
  return Status::OK();
}

void RdfServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);

  // Stop accepting: close the listener so the blocked accept() fails.
  if (const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
      fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Drain: already-admitted connections are still served (each is
  // bounded by its own deadline), then workers observe the shutdown
  // and exit.
  queue_.Shutdown();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (watcher_.joinable()) watcher_.join();
  // Every thread is gone: close the shed connections still draining.
  for (const ShedConn& shed : shed_) ::close(shed.fd);
  shed_.clear();

  if (options_.event_log != nullptr) options_.event_log->Flush();
  running_.store(false, std::memory_order_release);
}

std::string RdfServer::OverloadSignal() const {
  uint64_t admitted = 0;
  uint64_t shed = 0;
  shed_window_.Rates(&admitted, &shed);
  if (shed < options_.unhealthy_shed_min) return "";
  const double fraction =
      static_cast<double>(shed) / static_cast<double>(shed + admitted);
  if (fraction < options_.unhealthy_shed_fraction) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "shed_fraction=%.2f queue_depth=%zu",
                fraction, queue_.depth());
  return buf;
}

void RdfServer::AcceptLoop() {
  for (;;) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;  // Shutdown already closed the listener
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed (Shutdown) or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(conn);
      return;
    }
    const AdmittedConn admitted{conn, std::chrono::steady_clock::now()};
    if (queue_.TryPush(admitted)) {
      metrics_.accepted->Inc();
      shed_window_.Record(/*shed=*/false);
      metrics_.queue_depth->Set(static_cast<int64_t>(queue_.depth()));
    } else {
      // Shed: the queue is the server's whole backlog, so refusal is
      // immediate and cheap — a canned 503 with Retry-After, sent with
      // a short timeout so a slow receiver can't wedge the acceptor.
      metrics_.shed->Inc();
      shed_window_.Record(/*shed=*/true);
      SetSocketTimeouts(conn, std::min(options_.io_timeout_ms, 1000));
      HttpResponse resp = JsonResponse(
          503, "{\"error\": \"overloaded\", \"queue_capacity\": " +
                   std::to_string(queue_.capacity()) + "}");
      resp.extra_headers.emplace_back(
          "Retry-After", std::to_string(options_.retry_after_seconds));
      SendHttpResponse(conn, resp);
      // Consume the client's request before closing: closing with
      // unread bytes in the receive buffer makes the kernel send RST,
      // which can destroy the 503 before the client reads it. The
      // watcher drains it to EOF (bounded by the same short timeout)
      // and then closes, turning the refusal into a clean FIN while
      // the acceptor goes straight back to accept().
      ::shutdown(conn, SHUT_WR);
      std::lock_guard<std::mutex> lock(watch_mu_);
      shed_.push_back(ShedConn{
          conn, std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(
                        std::min(options_.io_timeout_ms, 1000))});
    }
  }
}

void RdfServer::WorkerLoop() {
  while (std::optional<AdmittedConn> conn = queue_.Pop()) {
    metrics_.queue_depth->Set(static_cast<int64_t>(queue_.depth()));
    metrics_.inflight->Add(1);
    ServeConn(*conn);
    metrics_.inflight->Add(-1);
  }
}

void RdfServer::ServeConn(const AdmittedConn& conn) {
  SetSocketTimeouts(conn.fd, options_.io_timeout_ms);
  Result<HttpRequest> parsed = ReadHttpRequest(conn.fd, options_.http_limits);
  if (!parsed.ok()) {
    if (!parsed.status().IsIOError()) {
      SendHttpResponse(conn.fd, ResponseForParseError(parsed.status()));
    }
    ::shutdown(conn.fd, SHUT_RDWR);
    ::close(conn.fd);
    return;
  }
  const HttpRequest& request = *parsed;

  // The deadline counts from accept: queue wait and parse time spend
  // the same budget the executor does, so an admitted request is a
  // promise bounded end-to-end.
  int64_t deadline_ms = options_.default_deadline_ms;
  if (std::optional<std::string> h = request.Header("x-deadline-ms")) {
    deadline_ms = ParseInt64(*h, deadline_ms);
  }
  deadline_ms = std::clamp<int64_t>(deadline_ms, 1, options_.max_deadline_ms);
  CancelToken token;
  token.set_deadline(conn.accept_time + std::chrono::milliseconds(deadline_ms));

  HttpResponse resp;
  if (token.Expired()) {
    // Spent its whole budget waiting in the queue: well-formed 504
    // without touching the store.
    resp = JsonResponse(
        504, "{\"error\": \"deadline exceeded\", \"stage\": \"queue\"}");
  } else {
    RegisterWatch(conn.fd, &token);
    obs::ActiveOpGuard active_op(obs::OpKind::kServerRequest,
                                 request.method + " " + request.path);
    resp = Handle(request, &token);
    UnregisterWatch(conn.fd);
  }
  if (resp.status == 504) metrics_.deadline_exceeded->Inc();
  if (resp.status == 499) metrics_.cancelled->Inc();

  SendHttpResponse(conn.fd, resp);
  ::shutdown(conn.fd, SHUT_RDWR);
  ::close(conn.fd);
  metrics_.latency_ns->Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - conn.accept_time)
          .count()));
}

HttpResponse RdfServer::Handle(const HttpRequest& request,
                               const CancelToken* token) {
  const std::string& path = request.path;
  if (path == "/query") {
    if (request.method != "GET") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use GET for /query\n", {}};
    }
    return HandleQuery(request, token);
  }
  if (path == "/insert") {
    if (request.method != "POST") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use POST for /insert\n", {}};
    }
    return HandleInsert(request, token);
  }
  if (path == "/reify") {
    if (request.method != "POST") {
      return HttpResponse{405, "text/plain; charset=utf-8",
                          "use POST for /reify\n", {}};
    }
    return HandleReify(request);
  }
  // Observability surface: delegate to the stats router.
  if (request.method == "GET") {
    obs::StatsRouter::Response stats = stats_->Handle(request.target);
    HttpResponse resp;
    resp.status = stats.status;
    resp.content_type = stats.content_type;
    resp.body = std::move(stats.body);
    return resp;
  }
  return HttpResponse{405, "text/plain; charset=utf-8",
                      "method not allowed\n", {}};
}

HttpResponse RdfServer::HandleQuery(const HttpRequest& request,
                                    const CancelToken* token) {
  const auto params = ParseQueryParams(request.query);
  const std::optional<std::string> q = FindParam(params, "q");
  if (!q.has_value() || q->empty()) {
    return JsonResponse(400, "{\"error\": \"missing q parameter\"}");
  }
  std::vector<std::string> models;
  for (const auto& [key, value] : params) {
    if (key == "model" && !value.empty()) models.push_back(value);
  }
  if (models.empty()) {
    return JsonResponse(400, "{\"error\": \"missing model parameter\"}");
  }

  query::MatchOptions match_options;
  match_options.cancel = token;
  obs::QueryTrace trace;
  match_options.trace = &trace;
  match_options.threads = options_.query_threads;
  if (std::optional<std::string> t = FindParam(params, "threads")) {
    match_options.threads =
        static_cast<unsigned>(std::max<int64_t>(0, ParseInt64(*t, 1)));
  }
  if (std::optional<std::string> l = FindParam(params, "limit")) {
    match_options.limit =
        static_cast<size_t>(std::max<int64_t>(0, ParseInt64(*l, 0)));
  }
  if (std::optional<std::string> d = FindParam(params, "distinct")) {
    match_options.distinct = (*d == "1" || *d == "true");
  }
  const std::string filter = FindParam(params, "filter").value_or("");

  // Pin one snapshot for the whole query: lock-free reads against a
  // transaction-consistent version.
  rdf::SnapshotRdfStore::ReadPin pin = store_->Snapshot();
  Result<query::MatchResult> result = query::SdoRdfMatch(
      pin.view(), *q, models, {}, filter, match_options);
  if (!result.ok()) {
    return ResponseForStatus(result.status(), PartialStatsJson(trace));
  }

  // The result holds ids into the pinned version; its rows are
  // rendered below, while `pin` is still held.
  const query::MatchResult& table = *result;
  std::string body = "{\"columns\": [";
  for (size_t c = 0; c < table.columns().size(); ++c) {
    if (c > 0) body += ", ";
    obs::AppendJsonString(table.columns()[c], &body);
  }
  body += "], \"rows\": [";
  Status rendered = AppendJsonRows(table, pin->dict(), token, &body);
  if (rendered.IsDeadlineExceeded() || rendered.IsCancelled()) {
    return ResponseForStatus(rendered, PartialStatsJson(trace));
  }
  if (!rendered.ok()) {
    // Every result id resolves in the version it came from, so a miss
    // is the store's fault (500), not a missing resource (404).
    return ResponseForStatus(Status::Corruption(rendered.message()), "");
  }
  body += "], \"row_count\": " + std::to_string(table.row_count());
  body += ", \"stats\": " + PartialStatsJson(trace) + "}";
  return JsonResponse(200, std::move(body));
}

HttpResponse RdfServer::HandleInsert(const HttpRequest& request,
                                     const CancelToken* token) {
  const auto params = ParseQueryParams(request.query);
  const std::optional<std::string> model = FindParam(params, "model");
  if (!model.has_value() || model->empty()) {
    return JsonResponse(400, "{\"error\": \"missing model parameter\"}");
  }
  const bool create = FindParam(params, "create").value_or("") == "1";

  Result<std::vector<rdf::NTriple>> statements =
      rdf::ParseNTriplesDocument(request.body);
  if (!statements.ok()) {
    return ResponseForStatus(statements.status(), "");
  }

  // One write batch, one publish. The token is checked at statement
  // intervals; a fired deadline stops the batch at that boundary, and
  // whatever was inserted is published (the 504 body reports the count
  // so the client knows exactly how far it got).
  size_t inserted = 0;
  Status status = store_->Apply([&](rdf::RdfStore& live) -> Status {
    Result<rdf::ModelId> model_id = live.GetModelId(*model);
    if (!model_id.ok() && model_id.status().IsNotFound() && create) {
      RDFDB_RETURN_NOT_OK(
          live.CreateRdfModel(*model, *model + "_app", "triple").status());
      model_id = live.GetModelId(*model);
    }
    RDFDB_RETURN_NOT_OK(model_id.status());
    const size_t check_interval =
        std::max<size_t>(1, options_.insert_check_interval);
    for (const rdf::NTriple& nt : *statements) {
      if (token != nullptr && inserted % check_interval == 0 &&
          token->Expired()) {
        return token->StatusIfDone();
      }
      RDFDB_RETURN_NOT_OK(live.InsertParsedTriple(*model_id, nt.subject,
                                                  nt.predicate, nt.object)
                              .status());
      ++inserted;
    }
    return Status::OK();
  });
  if (!status.ok()) {
    return ResponseForStatus(status,
                             "{\"inserted\": " + std::to_string(inserted) +
                                 "}");
  }
  return JsonResponse(200, "{\"inserted\": " + std::to_string(inserted) +
                               ", \"model\": " + obs::JsonString(*model) +
                               "}");
}

HttpResponse RdfServer::HandleReify(const HttpRequest& request) {
  const auto params = ParseQueryParams(request.query);
  const std::optional<std::string> model = FindParam(params, "model");
  const std::optional<std::string> id = FindParam(params, "id");
  if (!model.has_value() || model->empty() || !id.has_value()) {
    return JsonResponse(400,
                        "{\"error\": \"missing model or id parameter\"}");
  }
  const int64_t link_id = ParseInt64(*id, -1);
  if (link_id < 0) {
    return JsonResponse(400, "{\"error\": \"malformed id parameter\"}");
  }
  Result<rdf::SdoRdfTripleS> reified =
      store_->ReifyTriple(*model, static_cast<rdf::LinkId>(link_id));
  if (!reified.ok()) {
    return ResponseForStatus(reified.status(), "");
  }
  return JsonResponse(
      200, "{\"rdf_t_id\": " + std::to_string(reified->rdf_t_id()) +
               ", \"reified\": true}");
}

HttpResponse RdfServer::ResponseForStatus(const Status& status,
                                          std::string partial_stats_json) {
  int http = 500;
  if (status.IsInvalidArgument()) http = 400;
  if (status.IsNotFound()) http = 404;
  if (status.IsDeadlineExceeded()) http = 504;
  if (status.IsCancelled()) http = 499;
  std::string body = "{\"error\": " + obs::JsonString(status.message());
  if ((http == 504 || http == 499) && !partial_stats_json.empty()) {
    body += ", \"partial\": " + partial_stats_json;
  }
  body += "}";
  return JsonResponse(http, std::move(body));
}

void RdfServer::RegisterWatch(int fd, CancelToken* token) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.push_back(InflightWatch{fd, token});
}

void RdfServer::UnregisterWatch(int fd) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watched_.erase(
      std::remove_if(watched_.begin(), watched_.end(),
                     [fd](const InflightWatch& w) { return w.fd == fd; }),
      watched_.end());
}

void RdfServer::DrainShedLocked() {
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < shed_.size();) {
    // Read what the refused client still sends, at most 64 KiB a pass
    // so a client that streams cannot hold the watcher.
    char drain[4096];
    ssize_t n = 0;
    for (int reads = 0; reads < 16; ++reads) {
      n = ::recv(shed_[i].fd, drain, sizeof(drain), MSG_DONTWAIT);
      if (n <= 0) break;
    }
    const bool open =
        n > 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                            errno == EINTR));
    if (open && now < shed_[i].close_by) {
      ++i;
      continue;
    }
    ::close(shed_[i].fd);
    shed_[i] = shed_.back();
    shed_.pop_back();
  }
}

void RdfServer::WatchLoop() {
  // Poll every in-flight socket for client hang-up; a vanished client
  // flips its request's token so the executor stops burning CPU on an
  // answer nobody will read. Each pass also drains and closes the
  // connections the acceptor shed. Exits only after the workers are done
  // (Shutdown joins workers first, then flips running_ last — here the
  // loop keys off stopping_ + an empty watch list to serve the drain).
  std::vector<pollfd> fds;
  while (true) {
    {
      // The whole poll-and-cancel pass runs under watch_mu_: a worker
      // cannot UnregisterWatch (and therefore cannot destroy its
      // stack-held token or close/reuse its fd) mid-pass, so every
      // token pointer observed here is alive. poll() is non-blocking
      // (timeout 0), so the critical section stays microseconds.
      std::lock_guard<std::mutex> lock(watch_mu_);
      DrainShedLocked();
      if (stopping_.load(std::memory_order_acquire) && watched_.empty() &&
          queue_.depth() == 0) {
        return;
      }
      if (!watched_.empty()) {
        fds.clear();
        fds.reserve(watched_.size());
        for (const InflightWatch& w : watched_) {
          fds.push_back(pollfd{w.fd, POLLRDHUP, 0});
        }
        const int n = ::poll(fds.data(), fds.size(), 0);
        if (n > 0) {
          for (size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents &
                (POLLRDHUP | POLLERR | POLLHUP | POLLNVAL)) {
              watched_[i].token->Cancel();
            }
          }
        }
      }
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max(1, options_.watch_interval_ms)));
  }
}

}  // namespace rdfdb::server
