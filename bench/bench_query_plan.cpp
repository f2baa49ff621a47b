// Query-executor benchmarks.
//
// Part 1 — planner ablation (§8's "innovative ways to accelerate data
// retrieval"): the query is written selective-pattern-LAST:
//   (?x rdf:type up:Protein) (?x rdfs:seeAlso ?ref)
//   (?x up:mnemonic "PROBE_HUMAN")
// Without the planner, execution starts from the rdf:type pattern
// (every protein) and joins thousands of intermediate bindings; with
// it, execution starts from the unique mnemonic and touches one
// protein.
//
// Part 2 — join executor (BM_Join_*): chain and star shapes of 2/3/5
// patterns over a synthetic social graph, running the compiled
// streaming executor sequentially and with 2/4 worker threads. Run
// with --benchmark_filter=Join --benchmark_repetitions=N to get
// interleaved medians. BENCH_query_join.json is the committed artifact
// of the run that also timed the retired materializing join.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_common.h"
#include "query/exec.h"
#include "query/rules_index.h"
#include "rdf/vocab.h"

namespace rdfdb::bench {
namespace {

using query::CompiledPlan;
using query::CompilePatterns;
using query::ExecOptions;
using query::ExecutePlan;
using query::ModelSource;
using query::ParsePatterns;
using query::TriplePattern;

const char* kQuery =
    "(?x rdf:type <http://purl.uniprot.org/core/Protein>) "
    "(?x rdfs:seeAlso ?ref) "
    "(?x <http://purl.uniprot.org/core/mnemonic> \"PROBE_HUMAN\")";

void RunPlanBench(benchmark::State& state, bool reorder) {
  OracleSystem& sys = OracleSystem::For(state.range(0));
  auto patterns = ParsePatterns(kQuery, {});
  if (!patterns.ok()) {
    state.SkipWithError("pattern parse failed");
    return;
  }
  ModelSource source(sys.store.get(), {sys.load.model.model_id});
  size_t solutions = 0;
  for (auto _ : state) {
    size_t n = 0;
    CompiledPlan plan = CompilePatterns(*sys.store, *patterns, nullptr,
                                        source, reorder, nullptr);
    Status st = ExecutePlan(*sys.store, plan, source,
                            [&](const rdf::ValueId*) {
                              ++n;
                              return true;
                            });
    if (!st.ok()) state.SkipWithError("eval failed");
    solutions = n;
    benchmark::DoNotOptimize(n);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}

void BM_Plan_WithReordering(benchmark::State& state) {
  RunPlanBench(state, /*reorder=*/true);
}
BENCHMARK(BM_Plan_WithReordering)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_Plan_WrittenOrder(benchmark::State& state) {
  RunPlanBench(state, /*reorder=*/false);
}
BENCHMARK(BM_Plan_WrittenOrder)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Join executor A/B.

/// Synthetic social graph sized to a triple budget: N = triples/5
/// entities, each with type (100 classes), name, city (50 values),
/// email, and one knows edge e_i -> e_{(7i+13) mod N} — so chain
/// queries walk long unanchored paths (out-degree 1, every entity a
/// subject) and star queries fan out from a selective type class.
struct JoinSystem {
  std::unique_ptr<rdf::RdfStore> store;
  rdf::ModelId model = 0;

  static JoinSystem& For(int64_t triples) {
    static std::map<int64_t, std::unique_ptr<JoinSystem>> cache;
    auto it = cache.find(triples);
    if (it == cache.end()) {
      auto sys = std::make_unique<JoinSystem>();
      sys->store = std::make_unique<rdf::RdfStore>();
      auto model = sys->store->CreateRdfModel("social", "social_app",
                                              "triple");
      if (!model.ok()) std::abort();
      sys->model = model->model_id;
      const int64_t n = triples / 5;
      for (int64_t i = 0; i < n; ++i) {
        const std::string e = "urn:join:e" + std::to_string(i);
        auto insert = [&](const char* p, const std::string& o) {
          if (!sys->store->InsertTriple("social", e, p, o).ok()) {
            std::abort();
          }
        };
        insert("urn:join:type",
               "urn:join:Person_" + std::to_string(i % 100));
        insert("urn:join:name", "\"name_" + std::to_string(i) + "\"");
        insert("urn:join:city", "\"city_" + std::to_string(i % 50) + "\"");
        insert("urn:join:email",
               "\"e" + std::to_string(i) + "@example.org\"");
        insert("urn:join:knows",
               "urn:join:e" + std::to_string((7 * i + 13) % n));
      }
      it = cache.emplace(triples, std::move(sys)).first;
    }
    return *it->second;
  }
};

const char* kChain2 =
    "(?a <urn:join:knows> ?b) (?b <urn:join:city> ?c)";
const char* kChain3 =
    "(?a <urn:join:knows> ?b) (?b <urn:join:knows> ?c) "
    "(?c <urn:join:city> ?d)";
const char* kChain5 =
    "(?a <urn:join:knows> ?b) (?b <urn:join:knows> ?c) "
    "(?c <urn:join:knows> ?d) (?d <urn:join:knows> ?e) "
    "(?e <urn:join:city> ?f)";
const char* kStar3 =
    "(?p <urn:join:type> <urn:join:Person_7>) (?p <urn:join:city> ?c) "
    "(?p <urn:join:email> ?e)";
const char* kStar5 =
    "(?p <urn:join:type> <urn:join:Person_7>) (?p <urn:join:name> ?n) "
    "(?p <urn:join:city> ?c) (?p <urn:join:email> ?e) "
    "(?p <urn:join:knows> ?f)";

enum class ExecKind { kCompiled, kPar2, kPar4 };

void RunJoinBench(benchmark::State& state, const char* query,
                  ExecKind kind) {
  JoinSystem& sys = JoinSystem::For(state.range(0));
  auto patterns = ParsePatterns(query, {});
  if (!patterns.ok()) {
    state.SkipWithError("pattern parse failed");
    return;
  }
  ModelSource source(sys.store.get(), {sys.model});
  size_t solutions = 0;
  for (auto _ : state) {
    size_t n = 0;
    // Compile per iteration, as SdoRdfMatch does per query.
    CompiledPlan plan = CompilePatterns(*sys.store, *patterns, nullptr,
                                        source, /*reorder_patterns=*/true,
                                        nullptr);
    ExecOptions options;
    options.threads = kind == ExecKind::kPar2   ? 2u
                      : kind == ExecKind::kPar4 ? 4u
                                                : 1u;
    Status st = ExecutePlan(*sys.store, plan, source,
                            [&](const rdf::ValueId*) {
                              ++n;
                              return true;
                            },
                            options);
    if (!st.ok()) state.SkipWithError("eval failed");
    solutions = n;
    benchmark::DoNotOptimize(n);
  }
  state.counters["solutions"] = static_cast<double>(solutions);
}

#define RDFDB_JOIN_BENCH(shape, query)                                       \
  void BM_Join_##shape##_Compiled(benchmark::State& state) {                 \
    RunJoinBench(state, query, ExecKind::kCompiled);                         \
  }                                                                          \
  BENCHMARK(BM_Join_##shape##_Compiled)                                      \
      ->Apply(ApplyBenchSizes)                                               \
      ->Unit(benchmark::kMillisecond);                                       \
  void BM_Join_##shape##_Par2(benchmark::State& state) {                     \
    RunJoinBench(state, query, ExecKind::kPar2);                             \
  }                                                                          \
  BENCHMARK(BM_Join_##shape##_Par2)                                          \
      ->Apply(ApplyBenchSizes)                                               \
      ->Unit(benchmark::kMillisecond);                                       \
  void BM_Join_##shape##_Par4(benchmark::State& state) {                     \
    RunJoinBench(state, query, ExecKind::kPar4);                             \
  }                                                                          \
  BENCHMARK(BM_Join_##shape##_Par4)                                          \
      ->Apply(ApplyBenchSizes)                                               \
      ->Unit(benchmark::kMillisecond);

RDFDB_JOIN_BENCH(Chain2, kChain2)
RDFDB_JOIN_BENCH(Chain3, kChain3)
RDFDB_JOIN_BENCH(Chain5, kChain5)
RDFDB_JOIN_BENCH(Star3, kStar3)
RDFDB_JOIN_BENCH(Star5, kStar5)

#undef RDFDB_JOIN_BENCH

}  // namespace
}  // namespace rdfdb::bench

BENCHMARK_MAIN();
