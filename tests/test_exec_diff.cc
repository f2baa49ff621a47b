// Differential tests for the compiled streaming join executor: on
// randomized 1–5-pattern queries (star and chain shapes, filters,
// DISTINCT, LIMIT) over generated UniProt data, the compiled executor
// must produce the answer of the brute-force reference model
// (reference_model.h) on the live store and on a pinned snapshot
// version, and its parallel runs at several thread counts and chunk
// sizes must reproduce the sequential run row for row.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gen/uniprot_gen.h"
#include "gen/workload.h"
#include "query/match.h"
#include "rdf/bulk_load.h"
#include "rdf/ntriples.h"
#include "rdf/rdf_store.h"
#include "rdf/snapshot_store.h"
#include "rdf/term.h"
#include "reference_model.h"

namespace rdfdb::query {
namespace {

constexpr char kModel[] = "diff";

struct SampledTriple {
  rdf::Term s, p, o;
};

/// Store, reference model and term-level triple sample shared by every
/// test (loading the workload once keeps the whole suite fast). Reads
/// run both on the live store (through Apply) and on a pinned version
/// (through Snapshot()).
struct DiffData {
  rdf::SnapshotRdfStore versions;
  test::ReferenceStore reference;
  std::vector<SampledTriple> triples;
  /// Indexes into `triples` grouped by subject lexical (star shapes).
  std::unordered_map<std::string, std::vector<size_t>> by_subject;
  /// Literal display strings safe to embed in filter text.
  std::vector<std::string> literal_pool;
};

/// The reference-model half of gen::LoadUniProtIntoOracle: the same
/// statements through the model's own constructors.
Status LoadIntoReference(test::ReferenceStore* reference,
                         const gen::UniProtDataset& dataset) {
  RDFDB_RETURN_NOT_OK(reference->CreateModel(kModel));
  for (const rdf::NTriple& t : dataset.triples) {
    RDFDB_RETURN_NOT_OK(
        reference->InsertTerms(kModel, t.subject, t.predicate, t.object)
            .status());
  }
  for (const gen::ReifiedStatement& r : dataset.reified) {
    RDFDB_ASSIGN_OR_RETURN(
        rdf::LinkId base,
        reference->InsertTerms(kModel, r.base.subject, r.base.predicate,
                               r.base.object));
    RDFDB_RETURN_NOT_OK(
        reference->AssertAbout(kModel, r.curator_uri, gen::kUpCuratedBy, base)
            .status());
  }
  return Status::OK();
}

DiffData* SharedData() {
  static DiffData* data = [] {
    auto* d = new DiffData();
    gen::UniProtOptions gen_options;
    gen_options.target_triples = 3000;
    gen::UniProtDataset dataset = gen::GenerateUniProt(gen_options);
    Status loaded = d->versions.Apply([&](rdf::RdfStore& store) -> Status {
      auto load = gen::LoadUniProtIntoOracle(&store, kModel, "diff_app",
                                             dataset);
      if (!load.ok()) return load.status();
      store.links().ScanModel(
          load->model.model_id, [&](const rdf::LinkRow& row) {
            auto s = store.TermForValueId(row.start_node_id);
            auto p = store.TermForValueId(row.p_value_id);
            auto o = store.TermForValueId(row.end_node_id);
            if (s.ok() && p.ok() && o.ok()) {
              d->by_subject[s->lexical()].push_back(d->triples.size());
              d->triples.push_back(SampledTriple{*s, *p, *o});
            }
            return true;
          });
      return Status::OK();
    });
    if (!loaded.ok()) {
      ADD_FAILURE() << "workload load failed: " << loaded.ToString();
      return d;
    }
    Status modeled = LoadIntoReference(&d->reference, dataset);
    if (!modeled.ok()) {
      ADD_FAILURE() << "reference load failed: " << modeled.ToString();
      return d;
    }
    for (const SampledTriple& t : d->triples) {
      if (!t.o.is_literal()) continue;
      const std::string& text = t.o.ToDisplayString();
      if (text.size() > 40 || text.find('"') != std::string::npos ||
          text.find('\\') != std::string::npos) {
        continue;
      }
      d->literal_pool.push_back(text);
    }
    return d;
  }();
  return data;
}

/// Run the read `fn(const rdf::RdfStore&)` on the shared live store
/// under its writer lock and return its result.
template <typename Fn>
auto OnLive(Fn&& fn) {
  return SharedData()->versions.Apply(fn);
}

/// Render a sampled term as a pattern token (the N-Triples forms are
/// exactly what ParsePatternToken accepts).
std::string Tok(const rdf::Term& term) { return term.ToNTriples(); }

/// One generated query: pattern text, filter text, shaping options.
struct GeneratedQuery {
  std::string patterns;
  std::string filter;
  MatchOptions options;  // projection / distinct / limit only
};

GeneratedQuery GenerateQuery(Random& rng, const DiffData& data) {
  GeneratedQuery q;
  const size_t pattern_count = 1 + rng.Uniform(5);
  const bool star = rng.Bernoulli(0.5);

  std::vector<std::string> vars;  // first-use order
  auto use_var = [&](const std::string& name) {
    for (const std::string& v : vars) {
      if (v == name) return "?" + name;
    }
    vars.push_back(name);
    return "?" + name;
  };
  int next_fresh = 0;
  auto fresh_var = [&] { return use_var("v" + std::to_string(next_fresh++)); };

  // Star: all patterns sample triples of one subject and share ?s.
  // Chain: each pattern's subject is the previous pattern's object.
  size_t seed_idx = rng.Uniform(data.triples.size());
  if (star) {
    // Prefer a subject with a few triples so joins are non-trivial.
    for (int tries = 0; tries < 8; ++tries) {
      size_t candidate = rng.Uniform(data.triples.size());
      if (data.by_subject.at(data.triples[candidate].s.lexical()).size() >=
          3) {
        seed_idx = candidate;
        break;
      }
    }
  }
  const SampledTriple* current = &data.triples[seed_idx];
  std::string chain_subject_var;
  // One variable predicate per query keeps every pattern selective
  // enough that the reference model's nested loops stay small (a
  // disconnected wide scan multiplies them).
  bool used_var_predicate = false;

  for (size_t i = 0; i < pattern_count; ++i) {
    const SampledTriple& t = *current;
    std::string s_tok, p_tok, o_tok;

    if (star) {
      s_tok = rng.Bernoulli(0.85) ? use_var("s") : Tok(t.s);
    } else {
      s_tok = i == 0 ? (rng.Bernoulli(0.7) ? fresh_var() : Tok(t.s))
                     : chain_subject_var;
    }

    // Predicates: mostly constants (an unbound-predicate scan joined
    // into a chain is still covered, once per query).
    if (!used_var_predicate && rng.Bernoulli(0.15)) {
      p_tok = fresh_var();
      used_var_predicate = true;
    } else {
      p_tok = Tok(t.p);
    }
    // Rarely poison a predicate to exercise dead-constant plans.
    if (rng.Bernoulli(0.04)) p_tok = "<urn:diff:never_inserted>";

    const uint64_t o_roll = rng.Uniform(10);
    if (o_roll < 4) {
      o_tok = Tok(t.o);
    } else if (o_roll < 8 || vars.empty()) {
      o_tok = fresh_var();
    } else {
      // Reuse an existing variable: same-pattern repeats and
      // cross-pattern value joins both fall out of this.
      o_tok = "?" + vars[rng.Uniform(vars.size())];
    }

    q.patterns += "(" + s_tok + " " + p_tok + " " + o_tok + ") ";

    if (!star && i + 1 < pattern_count) {
      // Walk the chain through this triple's object when possible;
      // otherwise restart the chain anchored to an already-used
      // variable so the next pattern never cross-products.
      auto it = data.by_subject.find(t.o.lexical());
      if (!t.o.is_literal() && it != data.by_subject.end() &&
          o_tok[0] == '?') {
        chain_subject_var = o_tok;
        current = &data.triples[it->second[rng.Uniform(it->second.size())]];
      } else {
        chain_subject_var =
            vars.empty() ? fresh_var() : "?" + vars[rng.Uniform(vars.size())];
        current = &data.triples[rng.Uniform(data.triples.size())];
      }
    }
  }

  if (!vars.empty() && rng.Bernoulli(0.35)) {
    const std::string& var = vars[rng.Uniform(vars.size())];
    const char* op = rng.Bernoulli(0.5) ? "=" : "!=";
    if (vars.size() >= 2 && rng.Bernoulli(0.3)) {
      q.filter = "?" + var + " " + op + " ?" + vars[rng.Uniform(vars.size())];
    } else if (!data.literal_pool.empty()) {
      q.filter = "?" + var + " " + op + " \"" +
                 data.literal_pool[rng.Uniform(data.literal_pool.size())] +
                 "\"";
    }
  }

  if (!vars.empty() && rng.Bernoulli(0.4)) {
    for (const std::string& var : vars) {
      if (rng.Bernoulli(0.5)) q.options.projection.push_back(var);
    }
    if (q.options.projection.empty()) {
      q.options.projection.push_back(vars[rng.Uniform(vars.size())]);
    }
  }
  q.options.distinct = rng.Bernoulli(0.4);
  const size_t limits[] = {0, 1, 3, 10};
  q.options.limit = limits[rng.Uniform(4)];
  return q;
}

/// The query on the live store. Its cells resolve through the live
/// store, so the caller reads the result inside the same OnLive call,
/// under the writer lock (query/match.h).
Result<MatchResult> RunQuery(const rdf::RdfStore& store,
                             const GeneratedQuery& q, unsigned threads,
                             size_t chunk_frames, const std::string& model) {
  MatchOptions options = q.options;
  options.threads = threads;
  options.chunk_frames = chunk_frames;
  return SdoRdfMatch(store, q.patterns, {model}, {}, q.filter, options);
}

/// A result together with the pin it was computed on: the result's
/// cells resolve through the pinned version, so the pin must outlive
/// every read of it (query/match.h). Members destroy in reverse order,
/// so the result goes first.
struct PinnedResult {
  rdf::SnapshotRdfStore::ReadPin pin;
  Result<MatchResult> result;
};

/// The sequential query on a pinned snapshot version.
PinnedResult RunPinnedQuery(const GeneratedQuery& q,
                            const std::string& model) {
  rdf::SnapshotRdfStore::ReadPin pin = SharedData()->versions.Snapshot();
  Result<MatchResult> result = SdoRdfMatch(pin.view(), q.patterns, {model},
                                           {}, q.filter, q.options);
  return PinnedResult{std::move(pin), std::move(result)};
}

/// Comparable text of a term. The store names a blank node by its
/// model-scoped label ("m<model id>x<label>"); the key keeps only the
/// label, as the reference model does.
std::string TermKey(const rdf::Term& term) {
  if (!term.is_blank()) return term.ToNTriples();
  const std::string& label = term.lexical();
  size_t x = 1;
  while (x < label.size() && label[x] >= '0' && label[x] <= '9') ++x;
  if (label.size() > 2 && label[0] == 'm' && x > 1 && x < label.size() &&
      label[x] == 'x') {
    return "_:" + label.substr(x + 1);
  }
  return "_:" + label;
}

/// Rows as sorted keys (multiset order).
std::vector<std::string> SortedRowKeys(size_t rows, size_t cols,
                                       const auto& at) {
  std::vector<std::string> keys;
  for (size_t r = 0; r < rows; ++r) {
    std::string key;
    for (size_t c = 0; c < cols; ++c) key += TermKey(at(r, c)) + "\t";
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// Assert the compiled executor's sequential answers, on the live store
/// and on a pinned version, agree with the reference model's full
/// answer — equal multisets without LIMIT; with LIMIT n, a sub-multiset
/// of size min(n, |answer|) (distinct rows under DISTINCT) — and that
/// every parallel thread/chunk configuration reproduces the sequential
/// live rows in the same order.
void ExpectMatchesReference(const GeneratedQuery& q,
                            const std::string& model = kModel) {
  SCOPED_TRACE("query: " + q.patterns + " filter: " + q.filter +
               (q.options.distinct ? " DISTINCT" : "") +
               " limit=" + std::to_string(q.options.limit));
  test::RefQuery ref_query;
  ref_query.patterns = q.patterns;
  ref_query.filter = q.filter;
  ref_query.projection = q.options.projection;
  ref_query.distinct = q.options.distinct;
  auto expected = SharedData()->reference.Match(ref_query, {model});
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const size_t cols = expected->columns.size();
  const std::vector<std::string> want = SortedRowKeys(
      expected->rows.size(), cols,
      [&](size_t r, size_t c) -> const rdf::Term& {
        return expected->rows[r][c];
      });

  auto expect_answer = [&](const Result<MatchResult>& answer,
                           const char* side) {
    SCOPED_TRACE(side);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->columns(), expected->columns);
    const std::vector<std::string> got = SortedRowKeys(
        answer->row_count(), cols,
        [&](size_t r, size_t c) -> rdf::Term { return answer->at(r, c); });
    if (q.options.limit == 0) {
      ASSERT_EQ(got, want);
    } else {
      ASSERT_EQ(got.size(), std::min(q.options.limit, want.size()));
      ASSERT_TRUE(std::includes(want.begin(), want.end(), got.begin(),
                                got.end()))
          << "LIMIT rows are not a sub-multiset of the full answer";
      if (q.options.distinct) {
        ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
            << "DISTINCT returned a duplicate row";
      }
    }
  };
  const PinnedResult pinned = RunPinnedQuery(q, model);
  expect_answer(pinned.result, "pinned version");

  OnLive([&](const rdf::RdfStore& store) {
    auto sequential = RunQuery(store, q, 1, 512, model);
    expect_answer(sequential, "live store");
    ASSERT_TRUE(sequential.ok());

    struct Config {
      unsigned threads;
      size_t chunk_frames;
    };
    const Config configs[] = {{2, 3}, {2, 512}, {8, 1}, {8, 512}};
    for (const Config& config : configs) {
      SCOPED_TRACE("threads=" + std::to_string(config.threads) +
                   " chunk_frames=" + std::to_string(config.chunk_frames));
      auto parallel =
          RunQuery(store, q, config.threads, config.chunk_frames, model);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ASSERT_EQ(parallel->columns(), sequential->columns());
      ASSERT_EQ(parallel->row_count(), sequential->row_count());
      for (size_t r = 0; r < parallel->row_count(); ++r) {
        for (size_t c = 0; c < cols; ++c) {
          ASSERT_TRUE(parallel->at(r, c) == sequential->at(r, c))
              << "row " << r << " col " << c << ": "
              << parallel->at(r, c).ToNTriples() << " vs "
              << sequential->at(r, c).ToNTriples();
        }
      }
    }
  });
}

TEST(ExecDiffTest, RandomizedQueriesMatchReferenceModel) {
  const DiffData& data = *SharedData();
  ASSERT_GE(data.triples.size(), 1000u);
  Random rng(20260806);
  for (int i = 0; i < 120; ++i) {
    ExpectMatchesReference(GenerateQuery(rng, data));
  }
}

TEST(ExecDiffTest, RepeatedVariableWithinPattern) {
  GeneratedQuery q;
  q.patterns = "(?x ?p ?x)";
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, SelfJoinAcrossPatterns) {
  GeneratedQuery q;
  q.patterns =
      "(?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t) "
      "(?s <http://purl.uniprot.org/core/citation> ?c) (?c ?p ?o)";
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, AllConstantPattern) {
  const DiffData& data = *SharedData();
  ASSERT_FALSE(data.triples.empty());
  const SampledTriple& t = data.triples.front();
  GeneratedQuery q;
  q.patterns = "(" + Tok(t.s) + " " + Tok(t.p) + " " + Tok(t.o) + ")";
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, DeadConstantPlan) {
  GeneratedQuery q;
  q.patterns = "(?s <urn:diff:never_inserted> ?o) (?s ?p ?o2)";
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, LimitPrefixIsIdenticalUnderParallelism) {
  GeneratedQuery q;
  q.patterns =
      "(?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://purl.uniprot.org/core/Protein>) (?s ?p ?o)";
  q.options.limit = 7;
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, DistinctProjectionUnderParallelism) {
  GeneratedQuery q;
  q.patterns =
      "(?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> ?t) (?s ?p ?o)";
  q.options.projection = {"t", "p"};
  q.options.distinct = true;
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, FilterWithUnboundVariable) {
  // ?zzz never occurs in the query: comparisons against it are false.
  GeneratedQuery q;
  q.patterns = "(?s <http://purl.uniprot.org/core/mnemonic> ?n)";
  q.filter = "?zzz = \"anything\"";
  ExpectMatchesReference(q);
}

TEST(ExecDiffTest, ObjectConstantsMatchCanonically) {
  // Lexically different forms of one value ("01" and "1" as
  // xsd:integer) are one object for matching and joining; the UniProt
  // sample has no such pairs, so a dedicated model supplies them.
  DiffData& data = *SharedData();
  const char kCanonModel[] = "diff_canon";
  ASSERT_TRUE(
      data.versions.CreateRdfModel(kCanonModel, "diff_canon_app", "triple")
          .ok());
  ASSERT_TRUE(data.reference.CreateModel(kCanonModel).ok());
  const std::string kInt = "^^<http://www.w3.org/2001/XMLSchema#integer>";
  const std::string objects[] = {"\"01\"" + kInt, "\"1\"" + kInt,
                                 "\"2\"" + kInt, "\"1\""};
  for (int i = 0; i < 8; ++i) {
    const std::string s = "<urn:c:s" + std::to_string(i % 3) + ">";
    const std::string& o = objects[i % 4];
    ASSERT_TRUE(
        data.versions.InsertTriple(kCanonModel, s, "<urn:c:v>", o).ok());
    ASSERT_TRUE(data.reference.Insert(kCanonModel, s, "<urn:c:v>", o).ok());
  }
  for (const std::string& o : objects) {
    GeneratedQuery q;
    q.patterns = "(?s <urn:c:v> " + o + ")";
    ExpectMatchesReference(q, kCanonModel);
  }
  GeneratedQuery join;
  join.patterns = "(?a <urn:c:v> ?x) (?b <urn:c:v> ?x)";
  ExpectMatchesReference(join, kCanonModel);
}

// ---- Compressed-scan differentials ---------------------------------------
//
// The quad caches store postings delta-varint-compressed and mark
// deletions as tombstones (see rdf/codec.h, link_store.h). These tests
// pit LinkStore::Scan — posting cursors, SpMap probes, galloping
// intersections, tombstone filters — on the live store and on a pinned
// version against oracles that never touch it: a linear scan of the
// uncompressed rdf_link$ rows, and the reference model.

/// Id-level quad, ordered so result multisets can be compared.
using IdQuadTuple = std::array<rdf::ValueId, 4>;

/// Every live quad of `model_id`, read from the rdf_link$ table rows
/// (not the compressed cache).
std::vector<IdQuadTuple> TableScanQuads(rdf::ModelId model_id) {
  return OnLive([&](const rdf::RdfStore& store) {
    std::vector<IdQuadTuple> quads;
    store.links().ScanModel(model_id, [&](const rdf::LinkRow& row) {
      quads.push_back({row.start_node_id, row.p_value_id, row.end_node_id,
                       row.canon_end_node_id});
      return true;
    });
    return quads;
  });
}

/// The sorted matches of one probe, by the scan kernel over `view`'s
/// cache of `model_id`.
std::vector<IdQuadTuple> KernelScan(const rdf::StoreView& view,
                                    rdf::ModelId model_id,
                                    std::optional<rdf::ValueId> s,
                                    std::optional<rdf::ValueId> p,
                                    std::optional<rdf::ValueId> canon_o) {
  std::vector<IdQuadTuple> got;
  const rdf::LinkStore::ModelIdCache* cache = view.CacheFor(model_id);
  if (cache == nullptr) return got;
  rdf::LinkStore::Scan(*cache, s, p, canon_o, /*scans=*/nullptr,
                       [&](uint32_t, rdf::ValueId qs, rdf::ValueId qp,
                           rdf::ValueId qo, rdf::ValueId qc) {
                         got.push_back({qs, qp, qo, qc});
                         return true;
                       });
  std::sort(got.begin(), got.end());
  return got;
}

/// Run one (s?, p?, canon_o?) probe through the scan kernel on the live
/// store and on a pinned version, and compare each result multiset with
/// the oracle's.
void ExpectProbeMatchesOracle(rdf::ModelId model_id,
                              const std::vector<IdQuadTuple>& oracle,
                              std::optional<rdf::ValueId> s,
                              std::optional<rdf::ValueId> p,
                              std::optional<rdf::ValueId> canon_o) {
  SCOPED_TRACE("probe s=" + (s ? std::to_string(*s) : "*") +
               " p=" + (p ? std::to_string(*p) : "*") +
               " o=" + (canon_o ? std::to_string(*canon_o) : "*"));
  std::vector<IdQuadTuple> expected;
  for (const IdQuadTuple& q : oracle) {
    if (s.has_value() && q[0] != *s) continue;
    if (p.has_value() && q[1] != *p) continue;
    if (canon_o.has_value() && q[3] != *canon_o) continue;
    expected.push_back(q);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(OnLive([&](const rdf::RdfStore& store) {
              return KernelScan(store, model_id, s, p, canon_o);
            }),
            expected)
      << "live store";
  EXPECT_EQ(KernelScan(SharedData()->versions.Snapshot().view(), model_id, s,
                       p, canon_o),
            expected)
      << "pinned version";
}

TEST(ExecDiffTest, CompressedLeafScanMatchesTableScanOracle) {
  auto model_id = SharedData()->versions.Snapshot()->GetModelId(kModel);
  ASSERT_TRUE(model_id.ok()) << model_id.status().ToString();
  const std::vector<IdQuadTuple> oracle = TableScanQuads(*model_id);
  ASSERT_GE(oracle.size(), 1000u);

  Random rng(20260808);
  for (int probe = 0; probe < 400; ++probe) {
    const IdQuadTuple& pick = oracle[rng.Uniform(oracle.size())];
    std::optional<rdf::ValueId> s, p, canon_o;
    if (rng.Bernoulli(0.5)) s = pick[0];
    if (rng.Bernoulli(0.5)) p = pick[1];
    if (rng.Bernoulli(0.5)) {
      // Mostly a canon that pairs with the picked s/p, sometimes one
      // from an unrelated quad so empty intersections are covered.
      canon_o = rng.Bernoulli(0.75)
                    ? pick[3]
                    : oracle[rng.Uniform(oracle.size())][3];
    }
    // Occasionally probe an id that was never interned.
    if (rng.Bernoulli(0.05)) s = rdf::ValueId{1} << 40;
    ExpectProbeMatchesOracle(*model_id, oracle, s, p, canon_o);
  }
}

TEST(ExecDiffTest, TombstonedQuadsVanishFromCompressedScans) {
  // A dedicated model (the shared kModel sample must stay intact):
  // insert, delete a random third, and every probe shape must agree
  // with the post-delete table rows — tombstoned cache quads must not
  // leak out of any posting or SpMap path.
  DiffData& data = *SharedData();
  const char kTombModel[] = "diff_tomb";
  auto created =
      data.versions.CreateRdfModel(kTombModel, "diff_tomb_app", "triple");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  struct Spo {
    std::string s, p, o;
  };
  std::vector<Spo> inserted;
  Random rng(20260809);
  for (int i = 0; i < 300; ++i) {
    Spo t{"<urn:tomb:s" + std::to_string(i % 40) + ">",
          "<urn:tomb:p" + std::to_string(i % 7) + ">",
          "<urn:tomb:o" + std::to_string(i % 90) + ">"};
    auto ins = data.versions.InsertTriple(kTombModel, t.s, t.p, t.o);
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    inserted.push_back(std::move(t));
  }
  for (const Spo& t : inserted) {
    if (!rng.Bernoulli(0.33)) continue;
    auto st = data.versions.DeleteTriple(kTombModel, t.s, t.p, t.o);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  auto model_id = data.versions.Snapshot()->GetModelId(kTombModel);
  ASSERT_TRUE(model_id.ok()) << model_id.status().ToString();
  const std::vector<IdQuadTuple> oracle = TableScanQuads(*model_id);
  ASSERT_FALSE(oracle.empty());
  // Deletes must actually have landed, or the oracle proves nothing.
  ASSERT_LT(oracle.size(), 300u - 40u);

  for (int probe = 0; probe < 200; ++probe) {
    const IdQuadTuple& pick = oracle[rng.Uniform(oracle.size())];
    std::optional<rdf::ValueId> s, p, canon_o;
    if (rng.Bernoulli(0.5)) s = pick[0];
    if (rng.Bernoulli(0.5)) p = pick[1];
    if (rng.Bernoulli(0.5)) canon_o = pick[3];
    ExpectProbeMatchesOracle(*model_id, oracle, s, p, canon_o);
  }
  // The full unconstrained scan must also skip tombstones.
  ExpectProbeMatchesOracle(*model_id, oracle, std::nullopt, std::nullopt,
                           std::nullopt);
}

TEST(ExecDiffTest, GallopingIntersectionMatchesReferenceModel) {
  // Postings sized past LinkStore::Scan's galloping threshold (driven
  // list > 4096 and the longer side > 8x sparser), with partial
  // overlap so SkipTo actually skips blocks. The reference model is the
  // oracle.
  DiffData& data = *SharedData();
  const char kGallopModel[] = "diff_gallop";
  auto created =
      data.versions.CreateRdfModel(kGallopModel, "diff_gallop_app", "triple");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(data.reference.CreateModel(kGallopModel).ok());

  // Hub subject s0: 4100 triples to the hub object (distinct
  // predicates) plus 4100 to private objects; the hub also referenced
  // by 62000 other subjects. by_s[s0] = 8200 (driven), by_canon[hub] =
  // 66100 (galloped: 66100/8 > 8200), overlap = 4100. A seeded shuffle
  // interleaves s0's hub and private triples irregularly: in a strict
  // alternation, a driven cursor that skips every other entry would
  // still find every hub row.
  std::vector<rdf::NTriple> triples;
  triples.reserve(70200);
  auto uri_triple = [](std::string s, std::string p, std::string o) {
    rdf::NTriple t;
    t.subject = rdf::Term::Uri(std::move(s));
    t.predicate = rdf::Term::Uri(std::move(p));
    t.object = rdf::Term::Uri(std::move(o));
    return t;
  };
  for (int i = 0; i < 4100; ++i) {
    triples.push_back(
        uri_triple("urn:g:s0", "urn:g:p" + std::to_string(i), "urn:g:hub"));
    triples.push_back(uri_triple("urn:g:s0", "urn:g:q" + std::to_string(i),
                                 "urn:g:o" + std::to_string(i)));
  }
  Random shuffle_rng(20260810);
  for (size_t i = triples.size() - 1; i > 0; --i) {
    std::swap(triples[i], triples[shuffle_rng.Uniform(i + 1)]);
  }
  for (int i = 0; i < 62000; ++i) {
    triples.push_back(uri_triple("urn:g:s" + std::to_string(i + 1),
                                 "urn:g:ref", "urn:g:hub"));
  }
  Status loaded = data.versions.Apply([&](rdf::RdfStore& store) {
    return rdf::BulkLoad(&store, kGallopModel, triples).status();
  });
  ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  for (const rdf::NTriple& t : triples) {
    ASSERT_TRUE(data.reference
                    .InsertTerms(kGallopModel, t.subject, t.predicate,
                                 t.object)
                    .ok());
  }

  // (s, ?, o): by_s[s0] drives a gallop over by_canon[hub].
  GeneratedQuery so;
  so.patterns = "(<urn:g:s0> ?p <urn:g:hub>)";
  ExpectMatchesReference(so, kGallopModel);

  // A miss: same shape against an object s0 never points at.
  GeneratedQuery miss;
  miss.patterns = "(<urn:g:s0> ?p <urn:g:o77>)";
  ExpectMatchesReference(miss, kGallopModel);

  // (The ExpectMatchesReference configs above already run the gallop
  // leaf under every parallel thread/chunk combination; a join through
  // the hub would explode the reference model's nested loops — 4100 x
  // 62000 rows — so it is deliberately absent.)

  // Same shapes at the id level against the table-scan oracle.
  auto model_id = data.versions.Snapshot()->GetModelId(kGallopModel);
  ASSERT_TRUE(model_id.ok()) << model_id.status().ToString();
  const std::vector<IdQuadTuple> oracle = TableScanQuads(*model_id);
  ASSERT_EQ(oracle.size(), 70200u);
  auto lookup = [&](const char* uri) {
    return data.versions.Snapshot()->LookupValue(rdf::Term::Uri(uri));
  };
  auto s0 = lookup("urn:g:s0");
  auto hub = lookup("urn:g:hub");
  auto ref = lookup("urn:g:ref");
  ASSERT_TRUE(s0 && hub && ref);
  ExpectProbeMatchesOracle(*model_id, oracle, *s0, std::nullopt, *hub);
  ExpectProbeMatchesOracle(*model_id, oracle, std::nullopt, *ref, *hub);
}

}  // namespace
}  // namespace rdfdb::query
