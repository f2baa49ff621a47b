#include "rdf/bulk_load.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/timer.h"
#include "obs/active_ops.h"
#include "obs/resource_tracker.h"
#include "obs/store_metrics.h"
#include "rdf/canonical.h"
#include "rdf/link_store.h"
#include "rdf/reification.h"

namespace rdfdb::rdf {

namespace {

constexpr unsigned kMaxAutoThreads = 8;

unsigned EffectiveThreads(const BulkLoadOptions& options) {
  if (options.threads != 0) return options.threads;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min(hw, kMaxAutoThreads);
}

/// One statement with the CPU-side per-statement work already done
/// (canonicalization, predicate classification, reification detection)
/// so the storage thread only interns and inserts. The term pointers
/// borrow from the chunk's parsed statements (or the caller's vector),
/// which stay alive and unmoved until the chunk is consumed.
struct PreparedTriple {
  const Term* s = nullptr;
  const Term* p = nullptr;
  const Term* o = nullptr;
  Term canon;             ///< valid only when has_canon
  bool has_canon = false;
  std::string link_type;
  bool reif_link = false;
};

/// Unit of hand-off from a parse/prepare worker to the storage thread.
struct PreparedChunk {
  std::vector<NTriple> owned;  ///< file loads: the chunk's parsed statements
  std::vector<PreparedTriple> prepared;
};

/// Same validation as RdfStore::InsertParsedTriple, plus the pure parts
/// of InsertTerms.
Status PrepareStatement(const NTriple& t, PreparedTriple* out) {
  if (!t.subject.is_uri() && !t.subject.is_blank()) {
    return Status::InvalidArgument("subject must be a URI or blank node");
  }
  if (!t.predicate.is_uri()) {
    return Status::InvalidArgument("predicate must be a URI");
  }
  out->s = &t.subject;
  out->p = &t.predicate;
  out->o = &t.object;
  Term canon = CanonicalForm(t.object);
  if (canon != t.object) {
    out->canon = std::move(canon);
    out->has_canon = true;
  }
  out->link_type = ClassifyPredicate(t.predicate.lexical());
  out->reif_link =
      (t.subject.is_uri() && IsReificationUri(t.subject.lexical())) ||
      (t.object.is_uri() && IsReificationUri(t.object.lexical()));
  return Status::OK();
}

Status PrepareAll(const std::vector<NTriple>& statements,
                  std::vector<PreparedTriple>* prepared) {
  prepared->resize(statements.size());
  for (size_t i = 0; i < statements.size(); ++i) {
    RDFDB_RETURN_NOT_OK(PrepareStatement(statements[i], &(*prepared)[i]));
  }
  return Status::OK();
}

/// Serial phase, run on the calling thread in chunk order: batched
/// intern, batched link insert, stats and application-table rows. The
/// intern order per statement (s, p, o, then canonical object only when
/// it differs) matches InsertTerms, so VALUE_ID assignment is identical
/// to the sequential loader.
Status ProcessChunk(RdfStore* store, ModelId model_id,
                    const std::vector<PreparedTriple>& prepared,
                    ValueStore::InternCache* cache, ApplicationTable* table,
                    int64_t* next_app_id, BulkLoadStats* stats) {
  obs::StoreMetrics* metrics = store->metrics();
  obs::Timeline* timeline = store->timeline();
  // Lane 0 = the consumer (calling) thread; parse spans sit on worker
  // lanes, so the export shows hand-off skew directly.
  obs::TimelineScope consume_span(
      timeline, "chunk_consume", "bulkload", /*lane=*/0,
      timeline != nullptr ? "chunk=" + std::to_string(stats->chunks)
                          : std::string());
  // Attribute the storage thread's CPU and heap traffic for this chunk
  // (intern + insert + app-table rows); parse workers open their own
  // scopes in the produce lambdas.
  obs::ResourceScope chunk_scope("bulkload_chunk");
  std::vector<const Term*> terms;
  terms.reserve(prepared.size() * 4);
  for (const PreparedTriple& pt : prepared) {
    terms.push_back(pt.s);
    terms.push_back(pt.p);
    terms.push_back(pt.o);
    if (pt.has_canon) terms.push_back(&pt.canon);
  }
  std::vector<ValueId> ids;
  store->MarkUnloggedWrite();  // no redo record covers a batch insert
  {
    obs::ScopedLatency span(metrics->bulkload_intern_ns, &stats->intern_ns);
    RDFDB_ASSIGN_OR_RETURN(
        ids, store->values().LookupOrInsertBatch(model_id, terms, cache));
  }

  std::vector<LinkBatchEntry> entries(prepared.size());
  size_t k = 0;
  for (size_t i = 0; i < prepared.size(); ++i) {
    const PreparedTriple& pt = prepared[i];
    LinkBatchEntry& e = entries[i];
    e.s = ids[k++];
    e.p = ids[k++];
    e.o = ids[k++];
    e.canon_o = pt.has_canon ? ids[k++] : e.o;
    e.link_type = pt.link_type;
    e.context = TripleContext::kDirect;
    e.reif_link = pt.reif_link;
  }
  std::vector<LinkInsertOutcome> outcomes;
  {
    obs::ScopedLatency span(metrics->bulkload_insert_ns, &stats->insert_ns);
    RDFDB_ASSIGN_OR_RETURN(outcomes,
                           store->links().InsertBatch(model_id, entries));
  }
  ++stats->chunks;
  metrics->bulkload_chunks->Inc();
  metrics->bulkload_statements->Inc(outcomes.size());

  size_t chunk_new_links = 0;
  for (const LinkInsertOutcome& outcome : outcomes) {
    ++stats->statements;
    if (outcome.inserted) {
      ++stats->new_links;
      ++chunk_new_links;
    } else {
      ++stats->reused_links;
    }
    if (table != nullptr) {
      SdoRdfTripleS triple(store, outcome.row.link_id, outcome.row.model_id,
                           outcome.row.start_node_id, outcome.row.p_value_id,
                           outcome.row.end_node_id);
      RDFDB_RETURN_NOT_OK(table->Insert((*next_app_id)++, triple));
      ++stats->app_rows;
    }
  }
  if (obs::EventLog* elog = store->event_log()) {
    elog->Append(
        "bulkload", "chunk",
        {obs::EventField::Num("chunk",
                              static_cast<int64_t>(stats->chunks - 1)),
         obs::EventField::Num("statements",
                              static_cast<int64_t>(outcomes.size())),
         obs::EventField::Num("new_links",
                              static_cast<int64_t>(chunk_new_links))});
  }
  const obs::ResourceUsage usage = chunk_scope.Usage();
  stats->cpu_ns += usage.cpu_ns;
  stats->alloc_bytes += usage.bytes_allocated;
  return Status::OK();
}

/// Run `produce(k, worker)` for chunk indices [0, chunk_count) on
/// worker threads and feed each result to `consume` strictly in index
/// order on the calling thread. `worker` is the 1-based index of the
/// pool thread running the call (0 when everything runs inline) — the
/// span-timeline lane id. Workers observe a bounded window ahead of the
/// consumer so a fast parser cannot buffer the whole input. With one
/// thread (or one chunk) everything runs inline. `max_depth` (optional)
/// receives the high-water mark of produced-but-unconsumed chunks —
/// the pipeline's effective queue depth.
template <typename Produce, typename Consume>
Status RunOrderedPipeline(size_t chunk_count, unsigned threads,
                          Produce produce, Consume consume,
                          size_t* max_depth = nullptr) {
  if (threads <= 1 || chunk_count <= 1) {
    if (max_depth != nullptr) *max_depth = chunk_count > 0 ? 1 : 0;
    for (size_t k = 0; k < chunk_count; ++k) {
      Result<PreparedChunk> chunk = produce(k, /*worker=*/0u);
      RDFDB_RETURN_NOT_OK(chunk.status());
      RDFDB_RETURN_NOT_OK(consume(std::move(*chunk)));
    }
    return Status::OK();
  }

  const unsigned workers =
      static_cast<unsigned>(std::min<size_t>(threads, chunk_count));
  const size_t window = 2 * static_cast<size_t>(workers) + 2;
  std::vector<std::optional<Result<PreparedChunk>>> slots(chunk_count);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<size_t> next_chunk{0};
  size_t consumed = 0;       // guarded by mu
  size_t produced = 0;       // guarded by mu
  size_t depth_hw = 0;       // guarded by mu
  bool cancelled = false;    // guarded by mu

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (;;) {
        size_t k = next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (k >= chunk_count) return;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return cancelled || k < consumed + window; });
          if (cancelled) return;
        }
        Result<PreparedChunk> result = produce(k, w + 1);
        {
          std::lock_guard<std::mutex> lock(mu);
          slots[k] = std::move(result);
          ++produced;
          depth_hw = std::max(depth_hw, produced - consumed);
        }
        cv.notify_all();
      }
    });
  }

  Status status = Status::OK();
  for (size_t k = 0; k < chunk_count; ++k) {
    std::optional<Result<PreparedChunk>> chunk;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return slots[k].has_value(); });
      chunk = std::move(slots[k]);
      slots[k].reset();
      consumed = k + 1;
    }
    cv.notify_all();
    if (chunk->ok()) {
      status = consume(std::move(**chunk));
    } else {
      status = chunk->status();
    }
    if (!status.ok()) break;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    cancelled = true;
    if (max_depth != nullptr) *max_depth = depth_hw;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();
  return status;
}

}  // namespace

std::string BulkLoadStats::ToString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "bulk load: %zu statement(s), %zu new link(s), %zu reused, "
                "%zu app row(s); %zu chunk(s), queue depth %zu; "
                "parse=%.1fms intern=%.1fms insert=%.1fms total=%.1fms; "
                "cpu=%.1fms alloc=%.1fMB",
                statements, new_links, reused_links, app_rows, chunks,
                max_queue_depth, static_cast<double>(parse_ns) / 1e6,
                static_cast<double>(intern_ns) / 1e6,
                static_cast<double>(insert_ns) / 1e6,
                static_cast<double>(total_ns) / 1e6,
                static_cast<double>(cpu_ns) / 1e6,
                static_cast<double>(alloc_bytes) / 1e6);
  return buf;
}

Result<BulkLoadStats> BulkLoadSequential(RdfStore* store,
                                         const std::string& model_name,
                                         const std::vector<NTriple>& statements,
                                         ApplicationTable* table) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, store->GetModelId(model_name));
  Timer total;
  BulkLoadStats stats;
  int64_t next_id =
      table != nullptr ? static_cast<int64_t>(table->row_count()) + 1 : 0;
  for (const NTriple& t : statements) {
    size_t links_before = store->links().TotalTripleCount();
    RDFDB_ASSIGN_OR_RETURN(
        SdoRdfTripleS triple,
        store->InsertParsedTriple(model_id, t.subject, t.predicate,
                                  t.object));
    ++stats.statements;
    if (store->links().TotalTripleCount() > links_before) {
      ++stats.new_links;
    } else {
      ++stats.reused_links;
    }
    if (table != nullptr) {
      RDFDB_RETURN_NOT_OK(table->Insert(next_id++, triple));
      ++stats.app_rows;
    }
  }
  stats.total_ns = total.ElapsedNanos();
  store->metrics()->bulkload_statements->Inc(stats.statements);
  return stats;
}

Result<BulkLoadStats> BulkLoad(RdfStore* store,
                               const std::string& model_name,
                               const std::vector<NTriple>& statements,
                               ApplicationTable* table,
                               const BulkLoadOptions& options) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, store->GetModelId(model_name));
  obs::ActiveOpGuard active_op(
      obs::OpKind::kBulkLoad,
      model_name + " (" + std::to_string(statements.size()) + " stmts)");
  Timer total;
  const size_t batch = std::max<size_t>(1, options.batch_size);
  const size_t chunk_count = (statements.size() + batch - 1) / batch;

  BulkLoadStats stats;
  int64_t next_app_id =
      table != nullptr ? static_cast<int64_t>(table->row_count()) + 1 : 0;
  ValueStore::InternCache cache;
  // Parse time is summed across workers through an atomic; per-chunk
  // times go straight to the (thread-safe) histogram. CPU/alloc deltas
  // of the parse workers accumulate the same way.
  std::atomic<int64_t> parse_ns{0};
  std::atomic<int64_t> parse_cpu_ns{0};
  std::atomic<uint64_t> parse_alloc_bytes{0};
  obs::StoreMetrics* metrics = store->metrics();

  obs::Timeline* timeline = store->timeline();

  Status status = RunOrderedPipeline(
      chunk_count, EffectiveThreads(options),
      [&](size_t k, unsigned worker) -> Result<PreparedChunk> {
        obs::TimelineScope parse_span(
            timeline, "chunk_prepare", "bulkload", worker,
            timeline != nullptr ? "chunk=" + std::to_string(k)
                                : std::string());
        Timer chunk_timer;
        obs::ResourceScope parse_scope("bulkload_parse");
        const size_t begin = k * batch;
        const size_t end = std::min(statements.size(), begin + batch);
        PreparedChunk chunk;
        chunk.prepared.resize(end - begin);
        for (size_t i = begin; i < end; ++i) {
          RDFDB_RETURN_NOT_OK(
              PrepareStatement(statements[i], &chunk.prepared[i - begin]));
        }
        const int64_t ns = chunk_timer.ElapsedNanos();
        parse_ns.fetch_add(ns, std::memory_order_relaxed);
        const obs::ResourceUsage usage = parse_scope.Usage();
        parse_cpu_ns.fetch_add(usage.cpu_ns, std::memory_order_relaxed);
        parse_alloc_bytes.fetch_add(usage.bytes_allocated,
                                    std::memory_order_relaxed);
        metrics->bulkload_parse_ns->Observe(static_cast<uint64_t>(ns));
        return chunk;
      },
      [&](PreparedChunk&& chunk) {
        // Chunk-boundary cancellation checkpoint: the token is only
        // consulted before a chunk's store mutations begin, so a fired
        // token never leaves a chunk half-inserted.
        if (options.cancel != nullptr && options.cancel->Expired()) {
          return options.cancel->StatusIfDone();
        }
        return ProcessChunk(store, model_id, chunk.prepared, &cache, table,
                            &next_app_id, &stats);
      },
      &stats.max_queue_depth);
  if (!status.ok()) {
    obs::LogErrorEvent(store->event_log(), "BulkLoad", status);
    return status;
  }
  stats.parse_ns = parse_ns.load(std::memory_order_relaxed);
  stats.cpu_ns += parse_cpu_ns.load(std::memory_order_relaxed);
  stats.alloc_bytes += parse_alloc_bytes.load(std::memory_order_relaxed);
  stats.total_ns = total.ElapsedNanos();
  metrics->bulkload_queue_depth->SetMax(
      static_cast<int64_t>(stats.max_queue_depth));
  if (obs::EventLog* elog = store->event_log()) {
    elog->Append(
        "bulkload", "done",
        {obs::EventField::Str("model", model_name),
         obs::EventField::Num("statements",
                              static_cast<int64_t>(stats.statements)),
         obs::EventField::Num("new_links",
                              static_cast<int64_t>(stats.new_links)),
         obs::EventField::Num("chunks", static_cast<int64_t>(stats.chunks)),
         obs::EventField::Num("elapsed_us", stats.total_ns / 1000)});
  }
  return stats;
}

Result<BulkLoadStats> BulkLoadFile(RdfStore* store,
                                   const std::string& model_name,
                                   const std::string& path,
                                   ApplicationTable* table,
                                   const BulkLoadOptions& options) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, store->GetModelId(model_name));
  Timer total;
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = std::move(buffer).str();

  const size_t batch = std::max<size_t>(1, options.batch_size);
  const std::vector<NTriplesChunkSpec> specs =
      SplitNTriplesChunks(text, batch);

  BulkLoadStats stats;
  int64_t next_app_id =
      table != nullptr ? static_cast<int64_t>(table->row_count()) + 1 : 0;
  ValueStore::InternCache cache;
  std::atomic<int64_t> parse_ns{0};
  std::atomic<int64_t> parse_cpu_ns{0};
  std::atomic<uint64_t> parse_alloc_bytes{0};
  obs::StoreMetrics* metrics = store->metrics();

  obs::Timeline* timeline = store->timeline();

  Status status = RunOrderedPipeline(
      specs.size(), EffectiveThreads(options),
      [&](size_t k, unsigned worker) -> Result<PreparedChunk> {
        obs::TimelineScope parse_span(
            timeline, "chunk_parse", "bulkload", worker,
            timeline != nullptr ? "chunk=" + std::to_string(k)
                                : std::string());
        Timer chunk_timer;
        obs::ResourceScope parse_scope("bulkload_parse");
        const NTriplesChunkSpec& spec = specs[k];
        PreparedChunk chunk;
        RDFDB_ASSIGN_OR_RETURN(
            chunk.owned,
            ParseNTriplesChunk(
                std::string_view(text).substr(spec.begin,
                                              spec.end - spec.begin),
                spec.first_line));
        RDFDB_RETURN_NOT_OK(PrepareAll(chunk.owned, &chunk.prepared));
        const int64_t ns = chunk_timer.ElapsedNanos();
        parse_ns.fetch_add(ns, std::memory_order_relaxed);
        const obs::ResourceUsage usage = parse_scope.Usage();
        parse_cpu_ns.fetch_add(usage.cpu_ns, std::memory_order_relaxed);
        parse_alloc_bytes.fetch_add(usage.bytes_allocated,
                                    std::memory_order_relaxed);
        metrics->bulkload_parse_ns->Observe(static_cast<uint64_t>(ns));
        return chunk;
      },
      [&](PreparedChunk&& chunk) {
        // Chunk-boundary cancellation checkpoint: the token is only
        // consulted before a chunk's store mutations begin, so a fired
        // token never leaves a chunk half-inserted.
        if (options.cancel != nullptr && options.cancel->Expired()) {
          return options.cancel->StatusIfDone();
        }
        return ProcessChunk(store, model_id, chunk.prepared, &cache, table,
                            &next_app_id, &stats);
      },
      &stats.max_queue_depth);
  if (!status.ok()) {
    obs::LogErrorEvent(store->event_log(), "BulkLoadFile", status);
    return status;
  }
  stats.parse_ns = parse_ns.load(std::memory_order_relaxed);
  stats.cpu_ns += parse_cpu_ns.load(std::memory_order_relaxed);
  stats.alloc_bytes += parse_alloc_bytes.load(std::memory_order_relaxed);
  stats.total_ns = total.ElapsedNanos();
  metrics->bulkload_queue_depth->SetMax(
      static_cast<int64_t>(stats.max_queue_depth));
  if (obs::EventLog* elog = store->event_log()) {
    elog->Append(
        "bulkload", "done",
        {obs::EventField::Str("model", model_name),
         obs::EventField::Str("path", path),
         obs::EventField::Num("statements",
                              static_cast<int64_t>(stats.statements)),
         obs::EventField::Num("new_links",
                              static_cast<int64_t>(stats.new_links)),
         obs::EventField::Num("chunks", static_cast<int64_t>(stats.chunks)),
         obs::EventField::Num("elapsed_us", stats.total_ns / 1000)});
  }
  return stats;
}

Result<std::vector<NTriple>> ExportModel(const RdfStore& store,
                                         const std::string& model_name) {
  RDFDB_ASSIGN_OR_RETURN(ModelId model_id, store.GetModelId(model_name));
  std::vector<NTriple> out;
  Status status = Status::OK();
  store.links().ScanModel(model_id, [&](const LinkRow& row) {
    auto s = store.TermForValueId(row.start_node_id);
    auto p = store.TermForValueId(row.p_value_id);
    auto o = store.TermForValueId(row.end_node_id);
    if (!s.ok() || !p.ok() || !o.ok()) {
      status = Status::Corruption("dangling VALUE_ID in model " +
                                  model_name);
      return false;
    }
    out.push_back(NTriple{std::move(s).value(), std::move(p).value(),
                          std::move(o).value()});
    return true;
  });
  RDFDB_RETURN_NOT_OK(status);
  return out;
}

Status ExportModelToFile(const RdfStore& store,
                         const std::string& model_name,
                         const std::string& path) {
  RDFDB_ASSIGN_OR_RETURN(std::vector<NTriple> statements,
                         ExportModel(store, model_name));
  return WriteNTriplesFile(path, statements);
}

}  // namespace rdfdb::rdf
