#include "query/match.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "common/timer.h"
#include "obs/active_ops.h"
#include "obs/resource_tracker.h"
#include "obs/store_metrics.h"
#include "query/exec.h"
#include "query/filter.h"
#include "query/rules_index.h"

namespace rdfdb::query {

namespace {

/// DISTINCT's seen-set holds row numbers of the result's flat id
/// block; these functors read the rows where they lie. A candidate row
/// is appended to the block first and popped again if seen, so no row
/// is copied into a key.
struct RowHash {
  const std::vector<rdf::ValueId>* ids;
  size_t width;
  size_t operator()(size_t row) const {
    uint64_t h = 0;
    for (size_t c = 0; c < width; ++c) {
      h = HashCombine(h, static_cast<uint64_t>((*ids)[row * width + c]));
    }
    return static_cast<size_t>(h);
  }
};

struct RowEq {
  const std::vector<rdf::ValueId>* ids;
  size_t width;
  bool operator()(size_t a, size_t b) const {
    return std::equal(ids->begin() + a * width, ids->begin() + (a + 1) * width,
                      ids->begin() + b * width);
  }
};

}  // namespace

rdf::Term MatchResult::at(size_t row, size_t col) const {
  Result<rdf::Term> term = view_->TermForValueId(id(row, col));
  return term.ok() ? std::move(term).value() : rdf::Term();
}

int MatchResult::ColumnIndex(const std::string& name) const {
  if (column_index_.size() != columns_.size()) {
    column_index_.clear();
    for (size_t i = 0; i < columns_.size(); ++i) {
      column_index_.emplace(columns_[i], static_cast<int>(i));
    }
  }
  auto it = column_index_.find(name);
  return it == column_index_.end() ? -1 : it->second;
}

std::string MatchResult::Get(size_t row, const std::string& name) const {
  int col = ColumnIndex(name);
  if (col < 0 || row >= rows_) return "";
  return at(row, static_cast<size_t>(col)).ToDisplayString();
}

std::string MatchResult::ToString() const {
  std::string out;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += "\t";
    out += "?" + columns_[i];
  }
  out += "\n";
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += "\t";
      out += at(r, c).ToDisplayString();
    }
    out += "\n";
  }
  return out;
}

namespace {

/// Shared match core. `store` is the read surface every lookup runs
/// against (the live store, or a pinned StoreVersion); `mutable_store`
/// is only needed by on-the-fly entailment (interning rule
/// consequents) and is null on the snapshot path.
Result<MatchResult> MatchImpl(const rdf::StoreView& store,
                              rdf::RdfStore* mutable_store,
                              InferenceEngine* engine,
                              const std::string& query,
                              const std::vector<std::string>& model_names,
                              const std::vector<std::string>& rulebase_names,
                              const AliasList& aliases,
                              const std::string& filter,
                              const MatchOptions& options) {
  obs::QueryTrace* trace = options.trace;
  // Slow-query capture: when a log is attached and the caller didn't
  // ask for a trace, trace into a stack frame — fast queries then pay
  // only the tracing counters; the lock/copy happens solely for queries
  // that cross the threshold (below).
  obs::SlowQueryLog* slow_log = store.slow_query_log();
  obs::QueryTrace local_trace;
  if (trace == nullptr && slow_log != nullptr) trace = &local_trace;
  if (trace != nullptr) *trace = obs::QueryTrace{};
  Timer total_timer;
  // Per-query resource attribution: the calling thread's CPU and heap
  // deltas; parallel workers contribute their own chunk-scope deltas
  // via the trace (query/exec.cc flush_workers).
  obs::ResourceScope query_scope("query");
  // /activityz registration: the pattern text is the op detail, so a
  // stuck or crashed query is identifiable from the slot table alone.
  obs::ActiveOpGuard active_op(obs::OpKind::kQuery, query);
  obs::StoreMetrics* metrics = store.metrics();
  obs::TimelineScope query_span(store.timeline(), "query", "query",
                                /*lane=*/0);

  if (model_names.empty()) {
    return Status::InvalidArgument("SDO_RDF_MATCH needs at least one model");
  }
  std::vector<TriplePattern> patterns;
  FilterPtr compiled_filter;
  {
    obs::ScopedSpan parse_span(trace != nullptr ? &trace->parse_ns
                                                : nullptr);
    RDFDB_ASSIGN_OR_RETURN(patterns, ParsePatterns(query, aliases));
    RDFDB_ASSIGN_OR_RETURN(compiled_filter, ParseFilter(filter));
  }

  std::vector<rdf::ModelId> model_ids;
  for (const std::string& name : model_names) {
    RDFDB_ASSIGN_OR_RETURN(rdf::ModelId id, store.GetModelId(name));
    model_ids.push_back(id);
  }
  ModelSource base(&store, model_ids);

  // Inference source: a covering pre-computed rules index if one exists,
  // otherwise on-the-fly entailment.
  TripleSet on_the_fly;
  const TripleSet* inferred = nullptr;
  if (!rulebase_names.empty()) {
    obs::ScopedSpan infer_span(trace != nullptr ? &trace->infer_ns
                                                : nullptr);
    if (engine == nullptr) {
      return Status::InvalidArgument(
          "rulebases requested but no inference engine supplied");
    }
    const RulesIndex* index =
        engine->FindCoveringIndex(model_names, rulebase_names);
    if (index != nullptr) {
      inferred = &index->inferred();
      if (trace != nullptr) {
        trace->used_rules_index = true;
        trace->inference_rounds = index->rounds();
        trace->inferred_triples = index->inferred_count();
      }
    } else {
      if (mutable_store == nullptr) {
        return Status::InvalidArgument(
            "on-the-fly entailment requires a mutable store (snapshot "
            "reads support rulebases only via a covering rules index)");
      }
      RDFDB_ASSIGN_OR_RETURN(std::vector<const Rulebase*> rulebases,
                             engine->ResolveRulebases(rulebase_names));
      size_t rounds = 0;
      RDFDB_ASSIGN_OR_RETURN(
          on_the_fly,
          ComputeEntailment(mutable_store, base, rulebases, &rounds));
      inferred = &on_the_fly;
      if (trace != nullptr) {
        trace->inference_rounds = rounds;
        trace->inferred_triples = on_the_fly.size();
      }
    }
  }

  std::vector<const TripleSource*> sources{&base};
  if (inferred != nullptr) sources.push_back(inferred);
  UnionSource source(std::move(sources));

  // Column order: first appearance across patterns, or the explicit
  // projection.
  std::vector<std::string> all_vars;
  for (const TriplePattern& pattern : patterns) {
    for (const std::string& var : pattern.Variables()) {
      if (std::find(all_vars.begin(), all_vars.end(), var) ==
          all_vars.end()) {
        all_vars.push_back(var);
      }
    }
  }
  MatchResult result;
  std::vector<std::string>& columns = *MatchBuilder::columns(&result);
  if (options.projection.empty()) {
    columns = all_vars;
  } else {
    for (const std::string& var : options.projection) {
      if (std::find(all_vars.begin(), all_vars.end(), var) ==
          all_vars.end()) {
        return Status::InvalidArgument("projection variable ?" + var +
                                       " does not occur in the query");
      }
      columns.push_back(var);
    }
  }

  // Rows stay VALUE_IDs, resolved by the reader through the view.
  // DISTINCT dedupes on the id tuple: the central rdf_value$ store
  // already dedupes terms, so equal rows have equal id tuples.
  MatchBuilder::set_view(&result, &store);
  std::vector<rdf::ValueId>& ids = *MatchBuilder::ids(&result);
  size_t& rows = *MatchBuilder::rows(&result);
  const size_t width = columns.size();
  std::unordered_set<size_t, RowHash, RowEq> seen(
      0, RowHash{&ids, width}, RowEq{&ids, width});

  Status status;
  {
    obs::ScopedSpan exec_span(trace != nullptr ? &trace->exec_ns : nullptr);
    const FilterExpr* f = compiled_filter.get();
    if (f != nullptr && f->IsAlwaysTrue()) f = nullptr;
    CompiledPlan plan = CompilePatterns(store, patterns, f, source,
                                        /*reorder_patterns=*/true, trace);
    std::vector<SlotIndex> col_slots;
    col_slots.reserve(width);
    for (const std::string& var : columns) {
      col_slots.push_back(plan.SlotOf(var));
    }
    ExecOptions exec_options;
    exec_options.threads = options.threads;
    exec_options.chunk_frames = options.chunk_frames;
    exec_options.trace = trace;
    exec_options.timeline = store.timeline();
    exec_options.cancel = options.cancel;
    // Row sink: project straight out of the executor's slot frame onto
    // the flat block, then DISTINCT (take the row back off if seen) and
    // LIMIT.
    status = ExecutePlan(
        store, plan, source,
        [&](const rdf::ValueId* slots) {
          for (SlotIndex slot : col_slots) ids.push_back(slots[slot]);
          if (options.distinct && !seen.insert(rows).second) {
            ids.resize(ids.size() - width);
            if (trace != nullptr) ++trace->distinct_drops;
            return true;  // duplicate
          }
          ++rows;
          if (trace != nullptr) trace->value_resolutions += width;
          return options.limit == 0 || rows < options.limit;
        },
        exec_options);
  }
  RDFDB_RETURN_NOT_OK(status);
  const obs::ResourceUsage query_usage = query_scope.Usage();
  if (trace != nullptr) {
    trace->rows_emitted = rows;
    trace->cpu_ns += query_usage.cpu_ns;
    trace->bytes_allocated += query_usage.bytes_allocated;
    trace->allocations += query_usage.allocations;
    trace->total_ns = total_timer.ElapsedNanos();
  }
  if (metrics != nullptr) {
    metrics->queries->Inc();
    metrics->query_rows->Inc(rows);
    metrics->query_ns->Observe(total_timer.ElapsedNanos());
    // With a trace the totals include worker-thread deltas; without one
    // the calling thread's scope is still exact for sequential queries.
    if (trace != nullptr) {
      metrics->query_cpu_ns->Inc(static_cast<uint64_t>(
          trace->cpu_ns > 0 ? trace->cpu_ns : 0));
      metrics->query_alloc_bytes->Inc(trace->bytes_allocated);
    } else {
      metrics->query_cpu_ns->Inc(static_cast<uint64_t>(
          query_usage.cpu_ns > 0 ? query_usage.cpu_ns : 0));
      metrics->query_alloc_bytes->Inc(query_usage.bytes_allocated);
    }
  }
  if (slow_log != nullptr && trace != nullptr &&
      trace->total_ns >= slow_log->threshold_ns()) {
    obs::SlowQueryLog::Entry entry;
    entry.query = query;
    for (size_t i = 0; i < model_names.size(); ++i) {
      if (i > 0) entry.models += ",";
      entry.models += model_names[i];
    }
    entry.rows = rows;
    entry.total_ns = trace->total_ns;
    entry.trace = *trace;
    entry.concurrent = obs::ActiveOpsSummaryExcluding(active_op.id());
    const size_t active_now = obs::ActiveOpCount();
    entry.concurrent_ops =
        active_now - (active_op.registered() && active_now > 0 ? 1 : 0);
    slow_log->Record(std::move(entry));
  }
  return result;
}

}  // namespace

Result<MatchResult> SdoRdfMatch(rdf::RdfStore* store, InferenceEngine* engine,
                                const std::string& query,
                                const std::vector<std::string>& model_names,
                                const std::vector<std::string>& rulebase_names,
                                const AliasList& aliases,
                                const std::string& filter,
                                const MatchOptions& options) {
  return MatchImpl(*store, store, engine, query, model_names, rulebase_names,
                   aliases, filter, options);
}

Result<MatchResult> SdoRdfMatch(const rdf::StoreView& store,
                                const std::string& query,
                                const std::vector<std::string>& model_names,
                                const AliasList& aliases,
                                const std::string& filter,
                                const MatchOptions& options) {
  return MatchImpl(store, /*mutable_store=*/nullptr, /*engine=*/nullptr,
                   query, model_names, /*rulebase_names=*/{}, aliases, filter,
                   options);
}

}  // namespace rdfdb::query
