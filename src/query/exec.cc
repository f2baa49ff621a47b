#include "query/exec.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/result.h"
#include "obs/active_ops.h"
#include "obs/resource_tracker.h"
#include "obs/store_metrics.h"
#include "obs/trace.h"
#include "query/rules_index.h"
#include "rdf/canonical.h"

namespace rdfdb::query {

namespace {

using rdf::StoreView;
using rdf::Term;
using rdf::ValueId;

constexpr unsigned kMaxAutoThreads = 8;

unsigned EffectiveThreads(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return std::min(hw, kMaxAutoThreads);
}

/// Per-run (or per-chunk, in parallel mode) counter accumulator.
/// Workers fill a private instance; the consumer merges them in chunk
/// order, so traced totals are deterministic.
struct ExecCounters {
  explicit ExecCounters(size_t steps) : scanned(steps, 0), emitted(steps, 0) {}

  std::vector<size_t> scanned;
  std::vector<size_t> emitted;
  size_t filter_evaluations = 0;
  size_t filter_rejections = 0;
  size_t value_resolutions = 0;

  void MergeFrom(const ExecCounters& other) {
    for (size_t i = 0; i < scanned.size(); ++i) {
      scanned[i] += other.scanned[i];
      emitted[i] += other.emitted[i];
    }
    filter_evaluations += other.filter_evaluations;
    filter_rejections += other.filter_rejections;
    value_resolutions += other.value_resolutions;
  }
};

/// Accumulate a run's counters into the trace entries CompilePatterns
/// appended for this plan.
void FlushCounters(obs::QueryTrace* trace, const CompiledPlan& plan,
                   const ExecCounters& counters) {
  if (trace == nullptr) return;
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    obs::PatternTrace& pt = trace->patterns[plan.trace_base + i];
    pt.rows_scanned += counters.scanned[i];
    pt.rows_emitted += counters.emitted[i];
  }
  trace->filter_evaluations += counters.filter_evaluations;
  trace->filter_rejections += counters.filter_rejections;
  trace->value_resolutions += counters.value_resolutions;
}

/// Resolve the filter's referenced slots to Terms and evaluate.
Result<bool> EvalCompiledFilter(const StoreView& store,
                                const CompiledPlan& plan,
                                const ValueId* slots,
                                ExecCounters* counters) {
  Bindings bindings;
  for (const auto& [name, slot] : plan.filter_vars) {
    RDFDB_ASSIGN_OR_RETURN(Term term, store.TermForValueId(slots[slot]));
    bindings.emplace(name, std::move(term));
  }
  counters->value_resolutions += plan.filter_vars.size();
  ++counters->filter_evaluations;
  if (plan.filter->Evaluate(bindings)) return true;
  ++counters->filter_rejections;
  return false;
}

/// Depth-first streaming join over a step range. One instance per
/// thread; `slots` is the caller's frame, overwritten in place (a bind
/// slot is rewritten on the next row of its own step before any deeper
/// step rereads it, so no save/restore is needed).
class StepRunner {
 public:
  StepRunner(const StoreView& store, const CompiledPlan& plan,
             const TripleSource& source, ExecCounters* counters,
             const std::atomic<bool>* cancel, const CancelToken* token)
      : store_(store),
        plan_(plan),
        source_(source),
        leaf_(source.DirectLeaf()),
        scans_(store.metrics() != nullptr
                   ? store.metrics()->link_rows_scanned
                   : nullptr),
        counters_(counters),
        cancel_(cancel),
        token_(token) {}

  /// Join steps [first, last]; `slots` already holds bindings made by
  /// steps before `first`. `sink` fires once per solution of step
  /// `last`; returning false stops the run (OK status).
  Status Run(size_t first, size_t last, ValueId* slots,
             const SlotRowFn& sink) {
    slots_ = slots;
    sink_ = &sink;
    last_ = last;
    stop_ = false;
    status_ = Status::OK();
    Descend(first);
    return status_;
  }

 private:
  std::optional<ValueId> Constraint(const ExecPos& pos) const {
    switch (pos.kind) {
      case ExecPos::Kind::kConst:
        return pos.id;
      case ExecPos::Kind::kProbe:
        return slots_[pos.slot];
      default:
        return std::nullopt;
    }
  }

  bool Apply(const ExecPos& pos, ValueId value) {
    if (pos.kind == ExecPos::Kind::kBind) {
      slots_[pos.slot] = value;
      return true;
    }
    if (pos.kind == ExecPos::Kind::kCheck) return slots_[pos.slot] == value;
    return true;
  }

  /// Per-row join body shared by both scan paths. Returns false to
  /// stop the enclosing scan (early stop or error), true to continue.
  bool OnRow(size_t i, ValueId s, ValueId p, ValueId canon_o) {
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      stop_ = true;
      return false;
    }
    // Deadline/cancellation checkpoint: a countdown so the steady-state
    // cost is one decrement; the clock is read once per interval. The
    // countdown persists across Run() calls (parallel chunk workers
    // call Run once per outer frame), so the interval is a property of
    // the thread's row throughput, not of the frame size.
    if (token_ != nullptr && --token_countdown_ <= 0) {
      token_countdown_ = static_cast<int64_t>(kCancelCheckIntervalRows);
      if (token_->Expired()) {
        status_ = token_->StatusIfDone();
        return false;
      }
    }
    ++counters_->scanned[i];
    const ExecStep& step = plan_.steps[i];
    if (!Apply(step.s, s) || !Apply(step.p, p) || !Apply(step.o, canon_o)) {
      return true;  // repeated-variable mismatch within the pattern
    }
    ++counters_->emitted[i];
    if (static_cast<ptrdiff_t>(i) == plan_.filter_step) {
      Result<bool> keep = EvalCompiledFilter(store_, plan_, slots_, counters_);
      if (!keep.ok()) {
        status_ = keep.status();
        return false;
      }
      if (!*keep) return true;
    }
    if (i == last_) {
      if (!(*sink_)(slots_)) {
        stop_ = true;
        return false;
      }
      return true;
    }
    return Descend(i + 1);
  }

  /// Returns false to unwind (stop or error). A step over one model's
  /// cache runs the LinkStore kernel with OnRow inlined; any other
  /// source goes through its virtual Match.
  bool Descend(size_t i) {
    const ExecStep& step = plan_.steps[i];
    const std::optional<ValueId> s = Constraint(step.s);
    const std::optional<ValueId> p = Constraint(step.p);
    const std::optional<ValueId> o = Constraint(step.o);
    if (leaf_ != nullptr) {
      rdf::LinkStore::Scan(
          *leaf_, s, p, o, scans_,
          [&](uint32_t, ValueId qs, ValueId qp, ValueId, ValueId qc) {
            return OnRow(i, qs, qp, qc);
          });
    } else {
      source_.Match(s, p, o, [&](const IdTriple& t) {
        return OnRow(i, t.s, t.p, t.canon_o);
      });
    }
    return !stop_ && status_.ok();
  }

  const StoreView& store_;
  const CompiledPlan& plan_;
  const TripleSource& source_;
  const rdf::LinkStore::ModelIdCache* leaf_;
  obs::Counter* scans_;
  ExecCounters* counters_;
  const std::atomic<bool>* cancel_;
  const CancelToken* token_;
  int64_t token_countdown_ =
      static_cast<int64_t>(kCancelCheckIntervalRows);
  ValueId* slots_ = nullptr;
  const SlotRowFn* sink_ = nullptr;
  size_t last_ = 0;
  bool stop_ = false;
  Status status_ = Status::OK();
};

Status ExecuteSequential(const StoreView& store, const CompiledPlan& plan,
                         const TripleSource& source, const SlotRowFn& fn,
                         obs::QueryTrace* trace, const CancelToken* token) {
  ExecCounters counters(plan.steps.size());
  std::vector<ValueId> slots(std::max<size_t>(plan.slot_count(), 1), 0);
  StepRunner runner(store, plan, source, &counters, nullptr, token);
  Status status =
      runner.Run(0, plan.steps.size() - 1, slots.data(), fn);
  FlushCounters(trace, plan, counters);
  if (trace != nullptr) trace->exec_threads = 1;
  return status;
}

/// Parallel execution: the outermost step's matches are materialized
/// into flat frames (phase A, sequential), then frame chunks stream the
/// remaining steps on a worker pool while the calling thread consumes
/// chunk results strictly in index order (phase B — the bulk loader's
/// ordered-pipeline shape). Rows therefore reach `fn` in the exact
/// sequential order; DISTINCT/LIMIT applied inside `fn` see the same
/// prefix. When `fn` stops early, workers are cancelled, so scan
/// counters may exceed the sequential run's (whole chunks run to
/// completion); without an early stop they are identical.
Status ExecuteParallel(const StoreView& store, const CompiledPlan& plan,
                       const TripleSource& source, const SlotRowFn& fn,
                       unsigned threads, size_t chunk_frames,
                       obs::QueryTrace* trace, obs::Timeline* timeline,
                       const CancelToken* token) {
  const size_t nslots = plan.slot_count();
  const size_t last = plan.steps.size() - 1;
  ExecCounters counters(plan.steps.size());

  // Phase A: run step 0 alone, collecting binding frames.
  std::vector<ValueId> frames;
  size_t frame_count = 0;
  {
    obs::TimelineScope outer_span(timeline, "outer_scan", "exec", /*lane=*/0);
    std::vector<ValueId> slots(std::max<size_t>(nslots, 1), 0);
    StepRunner outer(store, plan, source, &counters, nullptr, token);
    Status status = outer.Run(0, 0, slots.data(), [&](const ValueId* s) {
      frames.insert(frames.end(), s, s + nslots);
      ++frame_count;
      return true;
    });
    if (!status.ok()) {
      FlushCounters(trace, plan, counters);
      return status;
    }
  }

  const size_t per_chunk = std::max<size_t>(chunk_frames, 1);
  const size_t chunk_count = (frame_count + per_chunk - 1) / per_chunk;
  const unsigned workers =
      static_cast<unsigned>(std::min<size_t>(threads, chunk_count));
  if (trace != nullptr) {
    trace->exec_threads = std::max<unsigned>(workers, 1);
    trace->exec_chunks = chunk_count;
  }

  struct ChunkOut {
    std::vector<ValueId> solutions;  ///< frame-major, nslots each
    size_t count = 0;  ///< solution frames (solutions.size() / nslots,
                       ///< tracked separately so nslots == 0 still works)
    ExecCounters counters;
    unsigned worker = 0;   ///< 1-based lane that joined this chunk
    int64_t busy_ns = 0;   ///< wall time of the chunk join
    int64_t cpu_ns = 0;        ///< worker-thread CPU time of the join
    uint64_t alloc_bytes = 0;  ///< heap bytes the join allocated
    uint64_t allocs = 0;       ///< allocation count of the join
  };
  std::atomic<bool> cancel{false};

  auto produce = [&](size_t k, unsigned worker) -> Result<ChunkOut> {
    obs::TimelineScope chunk_span(
        timeline, "chunk_join", "exec", worker,
        timeline != nullptr ? "chunk=" + std::to_string(k) : std::string());
    Timer busy_timer;
    // Per-chunk resource scope: deltas of this worker thread's CPU and
    // allocation counters, merged on the consumer (below) so per-query
    // attribution covers worker threads, not just the calling thread.
    obs::ResourceScope chunk_scope("exec_chunk");
    obs::ActiveOpGuard active_op(obs::OpKind::kExecWorker,
                                 "chunk " + std::to_string(k));
    ChunkOut out{{}, 0, ExecCounters(plan.steps.size()), worker, 0};
    std::vector<ValueId> slots(std::max<size_t>(nslots, 1), 0);
    StepRunner runner(store, plan, source, &out.counters, &cancel, token);
    const size_t begin = k * per_chunk;
    const size_t end = std::min(begin + per_chunk, frame_count);
    for (size_t f = begin; f < end; ++f) {
      if (cancel.load(std::memory_order_relaxed)) break;
      std::copy(frames.begin() + static_cast<ptrdiff_t>(f * nslots),
                frames.begin() + static_cast<ptrdiff_t>((f + 1) * nslots),
                slots.begin());
      Status status =
          runner.Run(1, last, slots.data(), [&](const ValueId* s) {
            out.solutions.insert(out.solutions.end(), s, s + nslots);
            ++out.count;
            return true;
          });
      if (!status.ok()) return status;
    }
    out.busy_ns = busy_timer.ElapsedNanos();
    const obs::ResourceUsage usage = chunk_scope.Usage();
    out.cpu_ns = usage.cpu_ns;
    out.alloc_bytes = usage.bytes_allocated;
    out.allocs = usage.allocations;
    return out;
  };

  // Per-worker accumulators, merged on the consumer thread only.
  std::vector<obs::ExecWorkerTrace> worker_acc(std::max<unsigned>(workers, 1));

  // Consume: merge a chunk's counters, then emit its rows in order.
  // Returns false to stop the whole run.
  uint64_t worker_allocs = 0;  // consumer-thread accumulator

  auto consume = [&](ChunkOut&& chunk) {
    counters.MergeFrom(chunk.counters);
    if (chunk.worker >= 1 && chunk.worker <= worker_acc.size()) {
      obs::ExecWorkerTrace& w = worker_acc[chunk.worker - 1];
      w.worker = chunk.worker;
      ++w.chunks;
      w.rows_emitted += chunk.count;
      w.busy_ns += chunk.busy_ns;
      w.cpu_ns += chunk.cpu_ns;
      w.bytes_allocated += chunk.alloc_bytes;
      worker_allocs += chunk.allocs;
    }
    for (size_t f = 0; f < chunk.count; ++f) {
      if (!fn(chunk.solutions.data() + f * nslots)) return false;
    }
    return true;
  };

  auto flush_workers = [&] {
    if (trace == nullptr) return;
    for (const obs::ExecWorkerTrace& w : worker_acc) {
      if (w.chunks > 0) {
        // Worker resource deltas fold into the query totals here; the
        // calling thread's own scope is added by the match layer.
        trace->cpu_ns += w.cpu_ns;
        trace->bytes_allocated += w.bytes_allocated;
        trace->exec_workers.push_back(w);
      }
    }
    trace->allocations += worker_allocs;
  };

  Status status = Status::OK();
  if (workers <= 1 || chunk_count <= 1) {
    for (size_t k = 0; k < chunk_count; ++k) {
      if (token != nullptr && token->Expired()) {
        status = token->StatusIfDone();
        break;
      }
      Result<ChunkOut> chunk = produce(k, /*worker=*/1);
      if (!chunk.ok()) {
        status = chunk.status();
        break;
      }
      if (!consume(std::move(*chunk))) break;
    }
    flush_workers();
    FlushCounters(trace, plan, counters);
    return status;
  }

  // Bounded ordered pipeline (the bulk loader's shape): workers claim
  // chunk indexes within a window ahead of the consumer; the calling
  // thread consumes strictly in order.
  const size_t window = 2 * static_cast<size_t>(workers) + 2;
  std::vector<std::optional<Result<ChunkOut>>> slots_q(chunk_count);
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<size_t> next_chunk{0};
  size_t consumed = 0;     // guarded by mu
  bool cancelled = false;  // guarded by mu

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
        Result<ChunkOut> result = produce(k, w + 1);
        {
          std::lock_guard<std::mutex> lock(mu);
          slots_q[k] = std::move(result);
        }
        cv.notify_all();
      }
    });
  }

  for (size_t k = 0; k < chunk_count; ++k) {
    std::optional<Result<ChunkOut>> chunk;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return slots_q[k].has_value(); });
      chunk = std::move(slots_q[k]);
      slots_q[k].reset();
      consumed = k + 1;
    }
    cv.notify_all();
    if (!chunk->ok()) {
      status = chunk->status();
      break;
    }
    // A fired token also stops *delivery*: workers stop producing at
    // their own checkpoints, but chunks completed before the token
    // fired are already queued, and draining them to the callback can
    // dwarf the producers' overshoot. Checking here bounds post-cancel
    // delivery to the one chunk being consumed.
    if (token != nullptr && token->Expired()) {
      status = token->StatusIfDone();
      cancel.store(true, std::memory_order_relaxed);
      break;
    }
    if (!consume(std::move(**chunk))) {
      cancel.store(true, std::memory_order_relaxed);
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    cancelled = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();

  flush_workers();
  FlushCounters(trace, plan, counters);
  return status;
}

}  // namespace

ResolvedNode ResolveNode(const StoreView& store, const PatternNode& node,
                         bool object_position, obs::QueryTrace* trace) {
  ResolvedNode out;
  if (node.is_variable) {
    out.is_var = true;
    out.var = node.variable;
    return out;
  }
  Term term = object_position ? rdf::CanonicalForm(node.term) : node.term;
  if (term.is_blank()) {
    // Blank-node constants in patterns are not addressable (labels are
    // model-scoped); treat as unresolvable.
    out.missing = true;
    return out;
  }
  if (trace != nullptr) ++trace->value_lookups;
  std::optional<ValueId> id = store.LookupValue(term);
  if (!id.has_value()) {
    if (trace != nullptr) ++trace->value_lookup_misses;
    out.missing = true;
    return out;
  }
  out.id = *id;
  return out;
}

std::vector<size_t> OrderResolvedPatterns(
    const std::vector<TriplePattern>& patterns,
    const std::vector<ResolvedPattern>& resolved,
    const TripleSource& source) {
  // Bounded candidate count per pattern using only its constants. The
  // cap keeps planning cost negligible; distinguishing "1 row" from
  // "over a hundred" is all the ordering needs.
  constexpr size_t kCountCap = 128;
  std::vector<size_t> estimate(patterns.size(), 0);
  for (size_t i = 0; i < patterns.size(); ++i) {
    const ResolvedPattern& rp = resolved[i];
    if (rp.s.missing || rp.p.missing || rp.o.missing) {
      estimate[i] = 0;  // dead pattern: zero rows, run it first
      continue;
    }
    auto constraint = [](const ResolvedNode& n) -> std::optional<ValueId> {
      if (n.is_var) return std::nullopt;
      return n.id;
    };
    size_t n = 0;
    source.Match(constraint(rp.s), constraint(rp.p), constraint(rp.o),
                 [&](const IdTriple&) { return ++n < kCountCap; });
    estimate[i] = n;
  }

  std::vector<size_t> order;
  std::vector<bool> used(patterns.size(), false);
  std::set<std::string> bound;
  for (size_t step = 0; step < patterns.size(); ++step) {
    // Prefer patterns connected to the bound set; among those (or among
    // all, at step 0 / when none connect), pick the smallest estimate.
    ptrdiff_t best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < patterns.size(); ++i) {
      if (used[i]) continue;
      bool connected = false;
      for (const std::string& var : patterns[i].Variables()) {
        if (bound.count(var) > 0) connected = true;
      }
      if (best < 0 ||
          (connected && !best_connected) ||
          (connected == best_connected &&
           estimate[i] < estimate[static_cast<size_t>(best)])) {
        best = static_cast<ptrdiff_t>(i);
        best_connected = connected;
      }
    }
    used[static_cast<size_t>(best)] = true;
    order.push_back(static_cast<size_t>(best));
    for (const std::string& var :
         patterns[static_cast<size_t>(best)].Variables()) {
      bound.insert(var);
    }
  }
  return order;
}

SlotIndex CompiledPlan::SlotOf(const std::string& var) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == var) return static_cast<SlotIndex>(i);
  }
  return -1;
}

CompiledPlan CompilePatterns(const StoreView& store,
                             const std::vector<TriplePattern>& patterns,
                             const FilterExpr* filter,
                             const TripleSource& source,
                             bool reorder_patterns, obs::QueryTrace* trace) {
  CompiledPlan plan;
  plan.trace_base = trace != nullptr ? trace->patterns.size() : 0;

  // Resolve every constant exactly once (traced — these are the only
  // rdf_value$ probes the whole query makes) and reuse the resolutions
  // for the planner's cardinality estimates.
  std::vector<ResolvedPattern> resolved(patterns.size());
  {
    obs::ScopedSpan plan_span(trace != nullptr ? &trace->plan_ns : nullptr);
    for (size_t i = 0; i < patterns.size(); ++i) {
      ResolvedNode* nodes[3] = {&resolved[i].s, &resolved[i].p,
                                &resolved[i].o};
      for (size_t pos = 0; pos < 3; ++pos) {
        *nodes[pos] = ResolveNode(store, patterns[i].Position(pos),
                                  /*object_position=*/pos == 2, trace);
      }
    }
    if (reorder_patterns) {
      plan.order = OrderResolvedPatterns(patterns, resolved, source);
    } else {
      for (size_t i = 0; i < patterns.size(); ++i) plan.order.push_back(i);
    }
  }
  if (trace != nullptr) {
    trace->plan_order = plan.order;
    trace->reordered = reorder_patterns;
  }

  // Slot assignment and step compilation, in execution order. A dead
  // pattern (unresolvable constant) truncates the plan — its trace
  // entry stays at zero scanned/emitted and execution emits no rows.
  std::unordered_map<std::string, SlotIndex> slot_of;
  std::vector<size_t> slot_bound_at;  // slot -> binding step
  for (size_t exec_idx = 0; exec_idx < plan.order.size(); ++exec_idx) {
    const size_t index = plan.order[exec_idx];
    const TriplePattern& pattern = patterns[index];
    const ResolvedPattern& rp = resolved[index];
    if (trace != nullptr) {
      obs::PatternTrace pt;
      pt.pattern_index = index;
      pt.text = pattern.ToString();
      trace->patterns.push_back(std::move(pt));
    }
    if (rp.s.missing || rp.p.missing || rp.o.missing) {
      plan.dead = true;
      if (trace != nullptr) trace->dead_constant = true;
      break;
    }
    ExecStep step;
    step.pattern_index = index;
    const size_t slots_before = plan.vars.size();
    auto compile_pos = [&](const ResolvedNode& node) {
      ExecPos pos;
      if (!node.is_var) {
        pos.kind = ExecPos::Kind::kConst;
        pos.id = node.id;
        return pos;
      }
      auto [it, inserted] = slot_of.try_emplace(
          node.var, static_cast<SlotIndex>(plan.vars.size()));
      pos.slot = it->second;
      if (inserted) {
        pos.kind = ExecPos::Kind::kBind;
        plan.vars.push_back(node.var);
        slot_bound_at.push_back(exec_idx);
      } else if (static_cast<size_t>(it->second) >= slots_before) {
        // Second occurrence within this same pattern: the scan cannot
        // constrain on it, so compare against the just-bound slot.
        pos.kind = ExecPos::Kind::kCheck;
      } else {
        pos.kind = ExecPos::Kind::kProbe;
      }
      return pos;
    };
    step.s = compile_pos(rp.s);
    step.p = compile_pos(rp.p);
    step.o = compile_pos(rp.o);
    plan.steps.push_back(step);
  }

  // Filter placement: the earliest step after which every filter
  // variable that occurs in the query is bound (variables the query
  // never binds stay unbound — comparisons against them are false).
  if (filter != nullptr && !filter->IsAlwaysTrue()) {
    plan.filter = filter;
    std::set<std::string> filter_var_names;
    filter->CollectVariables(&filter_var_names);
    ptrdiff_t at = -1;
    for (const std::string& name : filter_var_names) {
      auto it = slot_of.find(name);
      if (it == slot_of.end()) continue;
      plan.filter_vars.emplace_back(name, it->second);
      at = std::max(
          at, static_cast<ptrdiff_t>(
                  slot_bound_at[static_cast<size_t>(it->second)]));
    }
    if (!plan.steps.empty()) {
      plan.filter_step =
          at >= 0 ? at : static_cast<ptrdiff_t>(plan.steps.size()) - 1;
    }
  }
  return plan;
}

Status ExecutePlan(const StoreView& store, const CompiledPlan& plan,
                   const TripleSource& source, const SlotRowFn& fn,
                   const ExecOptions& options) {
  obs::QueryTrace* trace = options.trace;
  if (plan.dead) return Status::OK();
  if (plan.steps.empty()) {
    // Zero patterns: a single empty solution (the filter may still
    // reject it; with no bound variables every comparison on a
    // variable is false).
    ExecCounters counters(0);
    bool keep = true;
    if (plan.filter != nullptr) {
      ValueId none = 0;
      RDFDB_ASSIGN_OR_RETURN(
          keep, EvalCompiledFilter(store, plan, &none, &counters));
    }
    if (keep) fn(nullptr);
    FlushCounters(trace, plan, counters);
    return Status::OK();
  }
  if (options.cancel != nullptr && options.cancel->Expired()) {
    // Fired before any work (e.g. the request sat in the admission
    // queue past its deadline): fail without touching the store.
    return options.cancel->StatusIfDone();
  }
  const unsigned threads = EffectiveThreads(options.threads);
  if (threads > 1 && plan.steps.size() >= 2) {
    return ExecuteParallel(store, plan, source, fn, threads,
                           options.chunk_frames, trace, options.timeline,
                           options.cancel);
  }
  return ExecuteSequential(store, plan, source, fn, trace, options.cancel);
}

}  // namespace rdfdb::query
