// Randomized model-based test of the whole store API.
//
// A seeded stream of operations drives a logged SnapshotRdfStore and
// the brute-force reference model (reference_model.h) side by side: model
// create and drop, insert, delete, ReifyTriple, AssertAboutTriple,
// AssertImplied, Checkpoint, and reopen (which loads the last
// checkpoint and replays the redo log). Every operation must have the
// same outcome on both, including the LINK_ID it returns. After every
// checkpoint and reopen, and every few operations in between, the
// whole state must agree too: each model's triples with their
// reference counts, contexts and LINK_IDs, the model statistics, the
// NDM network, point reads, and SDO_RDF_MATCH over random patterns, on
// the live store and (after each reopen, and for every point read and
// match) on the published version readers pin.
// Now and then a mutation gets a term no parser accepts; a call that
// fails must leave both sides unchanged, also across a reopen.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "common/string_util.h"
#include "ndm/network.h"
#include "query/match.h"
#include "rdf/snapshot_store.h"
#include "reference_model.h"
#include "test_temp_dir.h"

namespace rdfdb::rdf {
namespace {

using test::ReferenceStore;
using test::RefTriple;

const std::vector<std::string> kModels = {"m1", "m2", "m3"};
const std::vector<std::string> kSubjects = {"<urn:s0>", "<urn:s1>",
                                            "<urn:s2>", "urn:s3", "<urn:o0>"};
const std::vector<std::string> kPredicates = {"<urn:p0>", "<urn:p1>",
                                              "urn:p2"};
const std::vector<std::string> kObjects = {
    "<urn:o0>",
    "<urn:o1>",
    "<urn:s1>",
    "\"v\"",
    "\"chat\"@fr",
    "\"01\"^^<http://www.w3.org/2001/XMLSchema#integer>",
    "\"1\"^^<http://www.w3.org/2001/XMLSchema#integer>",
};

/// Terms that fail to parse in any position.
const std::vector<std::string> kUnparseable = {"", "_:", "<>", "\"open"};

/// One stored triple in comparable form.
using TripleRow = std::tuple<std::string, std::string, std::string, LinkId,
                             int64_t, bool>;

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    rng_.seed(GetParam());
    snapshot_path_ = temp_.Path("store");
    log_path_ = temp_.Path("store.log");
    Reopen();
  }

  /// Close and reopen the store from its checkpoint + redo log.
  void Reopen() {
    store_.reset();
    LoggedStoreOptions options;
    options.sync_mode = SyncMode::kNone;  // clean reopen; no crash here
    auto opened = SnapshotRdfStore::Open(snapshot_path_, log_path_, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(*opened);
  }

  const std::string& Pick(const std::vector<std::string>& pool) {
    return pool[rng_() % pool.size()];
  }

  /// A term from `pool`, or now and then one that does not parse.
  const std::string& Draw(const std::vector<std::string>& pool) {
    return rng_() % 16 == 0 ? Pick(kUnparseable) : Pick(pool);
  }

  /// A live triple of `model` in the reference (nullopt if none).
  std::optional<RefTriple> PickTriple(const std::string& model) {
    auto triples = reference_.Triples(model);
    if (!triples.ok() || (*triples)->empty()) return std::nullopt;
    return (**triples)[rng_() % (*triples)->size()];
  }

  /// Same outcome: both OK, or both failing with the same code.
  static void ExpectSameStatus(const Status& got, const Status& want,
                               const std::string& what) {
    EXPECT_EQ(got.code(), want.code())
        << what << ": store says '" << got.ToString() << "', model says '"
        << want.ToString() << "'";
  }

  /// Returns the store's status.
  template <typename T>
  static Status ExpectSameLink(const Result<SdoRdfTripleS>& got,
                               const Result<T>& want,
                               const std::string& what) {
    ExpectSameStatus(got.status(), want.status(), what);
    if (got.ok() && want.ok()) {
      EXPECT_EQ(got->rdf_t_id(), *want) << what;
    }
    return got.status();
  }

  static std::vector<TripleRow> StoreRows(const RdfStore& store,
                                          ModelId model_id) {
    std::vector<TripleRow> rows;
    store.links().ScanModel(model_id, [&](const LinkRow& row) {
      auto s = store.TermForValueId(row.start_node_id);
      auto p = store.TermForValueId(row.p_value_id);
      auto o = store.TermForValueId(row.end_node_id);
      EXPECT_TRUE(s.ok() && p.ok() && o.ok());
      if (s.ok() && p.ok() && o.ok()) {
        rows.emplace_back(s->ToNTriples(), p->ToNTriples(), o->ToNTriples(),
                          row.link_id, row.cost,
                          row.context == TripleContext::kImplied);
      }
      return true;
    });
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  static std::vector<TripleRow> ReferenceRows(
      const std::vector<RefTriple>& triples) {
    std::vector<TripleRow> rows;
    for (const RefTriple& t : triples) {
      rows.emplace_back(t.s.ToNTriples(), t.p.ToNTriples(), t.o.ToNTriples(),
                        t.link, t.refs, t.implied);
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  using NetLink = std::tuple<ndm::LinkId, ndm::NodeId, ndm::NodeId, int64_t>;

  /// (id, start, end, label) of the links at `node`, sorted.
  static std::vector<NetLink> LinksAt(const ndm::Network& net,
                                      ndm::NodeId node,
                                      ndm::Direction direction) {
    std::vector<NetLink> links;
    net.ForEachLink(node, direction, [&](const ndm::Link& link) {
      links.emplace_back(link.id, link.start, link.end, link.label);
    });
    std::sort(links.begin(), links.end());
    return links;
  }

  /// The store's NDM network must be the reference's live triples: the
  /// same node set, and per node the same out- and in-links.
  void ExpectSameNetwork(const RdfStore& store) {
    ndm::LogicalNetwork want;
    for (const std::string& model : reference_.ModelNames()) {
      auto model_id = store.GetModelId(model);
      auto triples = reference_.Triples(model);
      ASSERT_TRUE(model_id.ok() && triples.ok());
      auto id = [&](const Term& term) {
        return store.LookupTerm(*model_id, term).value_or(-1);
      };
      for (const RefTriple& t : **triples) {
        ASSERT_TRUE(
            want.AddLink({t.link, id(t.s), id(t.o), 1.0, id(t.p)}).ok());
      }
    }
    const ndm::Network& got = store.network();
    std::vector<ndm::NodeId> got_nodes;
    got.ForEachNode([&](ndm::NodeId node) { got_nodes.push_back(node); });
    std::sort(got_nodes.begin(), got_nodes.end());
    std::vector<ndm::NodeId> want_nodes = want.Nodes();
    std::sort(want_nodes.begin(), want_nodes.end());
    ASSERT_EQ(got_nodes, want_nodes);
    EXPECT_EQ(got.node_count(), want.node_count());
    EXPECT_EQ(got.link_count(), want.link_count());
    for (ndm::NodeId node : want_nodes) {
      EXPECT_TRUE(got.HasNode(node)) << node;
      for (ndm::Direction direction :
           {ndm::Direction::kOutgoing, ndm::Direction::kIncoming}) {
        EXPECT_EQ(LinksAt(got, node, direction),
                  LinksAt(want, node, direction))
            << "node " << node;
      }
    }
  }

  /// The model statistics of `view` (live or pinned) for `model`.
  void ExpectSameStats(const StoreView& view, const std::string& model) {
    auto stats = view.GetModelStats(model);
    auto want = reference_.GetModelStats(model);
    ASSERT_TRUE(stats.ok() && want.ok());
    EXPECT_EQ(stats->triples, want->triples);
    EXPECT_EQ(stats->distinct_subjects, want->distinct_subjects);
    EXPECT_EQ(stats->distinct_predicates, want->distinct_predicates);
    EXPECT_EQ(stats->distinct_objects, want->distinct_objects);
    EXPECT_EQ(stats->reified_statements, want->reified_statements);
    EXPECT_EQ(stats->implied_statements, want->implied_statements);
  }

  /// Whole-state agreement: models, triples (with COST, CONTEXT and
  /// LINK_ID), statistics, the NDM network, and the store's own
  /// invariants.
  void ExpectSameState(const std::string& when) {
    SCOPED_TRACE(when);
    store_->Apply([&](const RdfStore& store) {
      std::vector<std::string> names = store.ModelNames();
      for (std::string& name : names) name = ToLower(name);
      ASSERT_EQ(names, reference_.ModelNames());
      for (const std::string& model : names) {
        SCOPED_TRACE("model " + model);
        auto model_id = store.GetModelId(model);
        auto triples = reference_.Triples(model);
        ASSERT_TRUE(model_id.ok() && triples.ok());
        ASSERT_EQ(StoreRows(store, *model_id), ReferenceRows(**triples));
        ExpectSameStats(store, model);
      }
      ExpectSameNetwork(store);
      Status consistent = store.CheckConsistency();
      EXPECT_TRUE(consistent.ok()) << consistent.ToString();
    });
  }

  /// The version a reader pins must hold the same models, triples (by
  /// text and LINK_ID) and statistics.
  void ExpectSamePinnedState(const std::string& when) {
    SCOPED_TRACE(when + ", pinned");
    SnapshotRdfStore::ReadPin pin = store_->Snapshot();
    for (const std::string& model : kModels) {
      SCOPED_TRACE("model " + model);
      auto model_id = pin->GetModelId(model);
      auto triples = reference_.Triples(model);
      ASSERT_EQ(model_id.ok(), triples.ok());
      if (!model_id.ok()) continue;
      using PinnedRow = std::tuple<std::string, std::string, std::string,
                                   LinkId>;
      std::vector<PinnedRow> got, want;
      if (const LinkStore::ModelIdCache* cache = pin->CacheFor(*model_id)) {
        LinkStore::Scan(*cache, std::nullopt, std::nullopt, std::nullopt,
                        nullptr,
                        [&](uint32_t idx, ValueId s, ValueId p, ValueId o,
                            ValueId) {
                          auto st = pin->TermForValueId(s);
                          auto pt = pin->TermForValueId(p);
                          auto ot = pin->TermForValueId(o);
                          EXPECT_TRUE(st.ok() && pt.ok() && ot.ok());
                          if (st.ok() && pt.ok() && ot.ok()) {
                            got.emplace_back(st->ToNTriples(),
                                             pt->ToNTriples(),
                                             ot->ToNTriples(),
                                             cache->quads[idx].link_id);
                          }
                          return true;
                        });
      }
      for (const RefTriple& t : **triples) {
        want.emplace_back(t.s.ToNTriples(), t.p.ToNTriples(),
                          t.o.ToNTriples(), t.link);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want);
      ExpectSameStats(*pin, model);
    }
  }

  /// A mutation that failed on both sides must have changed neither,
  /// and the store must still reopen to the model's state.
  void ExpectUnchangedAfterFailure(const std::string& what) {
    ExpectSameState(what + " failed");
    Reopen();
    ASSERT_TRUE(reference_.Recover().ok()) << what;
    ExpectSameState(what + " failed, reopened");
    ExpectSamePinnedState(what + " failed, reopened");
  }

  void ExpectSamePointReads() {
    const std::string& model = Pick(kModels);
    const std::string& s = Pick(kSubjects);
    const std::string& p = Pick(kPredicates);
    const std::string& o = Pick(kObjects);
    // On the live store and on the pinned version.
    auto check = [&](const StoreView& store, const std::string& arm) {
      const std::string what =
          "reads " + model + " " + s + " " + p + " " + o + " " + arm;
      auto is_triple = store.IsTriple(model, s, p, o);
      auto want_triple = reference_.IsTriple(model, s, p, o);
      ExpectSameStatus(is_triple.status(), want_triple.status(), what);
      if (is_triple.ok() && want_triple.ok()) {
        EXPECT_EQ(*is_triple, *want_triple) << what;
      }
      auto reified = store.IsReified(model, s, p, o);
      auto want_reified = reference_.IsReified(model, s, p, o);
      ExpectSameStatus(reified.status(), want_reified.status(), what);
      if (reified.ok() && want_reified.ok()) {
        EXPECT_EQ(*reified, *want_reified) << what;
      }
      auto id = store.GetTripleId(model, s, p, o);
      auto want_id = reference_.GetTripleId(model, s, p, o);
      ExpectSameStatus(id.status(), want_id.status(), what);
      if (id.ok() && want_id.ok()) {
        EXPECT_EQ(*id, *want_id) << what;
      }
    };
    store_->Apply([&](const RdfStore& live) { check(live, "live"); });
    check(*store_->Snapshot(), "pinned");
  }

  /// A random 1–2-pattern query over one or two models; the answers
  /// must be equal multisets.
  void ExpectSameMatch() {
    std::vector<std::string> models = {Pick(kModels)};
    if (rng_() % 3 == 0) models.push_back(Pick(kModels));
    auto token = [&](const std::string& var,
                     const std::vector<std::string>& pool) {
      return rng_() % 2 == 0 ? "?" + var : Pick(pool);
    };
    std::string query = "(" + token("s", kSubjects) + " " +
                        token("p", kPredicates) + " " +
                        token("o", kObjects) + ")";
    if (rng_() % 3 == 0) {
      // Join on the first pattern's object, or through a reification
      // (the object of an assertion is the statement's DBUri).
      query += rng_() % 2 == 0
                   ? " (?o " + token("p2", kPredicates) + " ?o2)"
                   : " (?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                     "<http://www.w3.org/1999/02/22-rdf-syntax-ns#Statement>)"
                     " (?s ?p ?x)";
    }
    test::RefQuery ref_query;
    ref_query.patterns = query;
    ref_query.distinct = rng_() % 4 == 0;
    query::MatchOptions options;
    options.distinct = ref_query.distinct;
    const std::string what = "match " + query;

    auto want = reference_.Match(ref_query, models);
    std::vector<std::string> want_rows;
    if (want.ok()) {
      for (const auto& terms : want->rows) {
        std::string row;
        for (const Term& term : terms) row += term.ToNTriples() + "\t";
        want_rows.push_back(std::move(row));
      }
      std::sort(want_rows.begin(), want_rows.end());
    }
    // The live store and the pinned version must both give the answer.
    auto check = [&](const StoreView& view, const std::string& arm) {
      auto got = query::SdoRdfMatch(view, query, models, {}, "", options);
      ExpectSameStatus(got.status(), want.status(), what + " " + arm);
      if (!got.ok() || !want.ok()) return;
      ASSERT_EQ(got->columns(), want->columns) << what << " " << arm;
      std::vector<std::string> got_rows;
      for (size_t r = 0; r < got->row_count(); ++r) {
        std::string row;
        for (size_t c = 0; c < got->columns().size(); ++c) {
          row += got->at(r, c).ToNTriples() + "\t";
        }
        got_rows.push_back(std::move(row));
      }
      std::sort(got_rows.begin(), got_rows.end());
      EXPECT_EQ(got_rows, want_rows) << what << " " << arm;
    };
    store_->Apply([&](const RdfStore& live) { check(live, "live"); });
    check(*store_->Snapshot(), "pinned");
  }

  /// One random operation against both sides.
  void Step(int step) {
    const std::string& model = Pick(kModels);
    const std::string& s = Draw(kSubjects);
    const std::string& p = Draw(kPredicates);
    const std::string& o = Draw(kObjects);
    const std::string what = "step " + std::to_string(step);
    const uint64_t roll = rng_() % 100;
    Status mutation = Status::OK();  // the store's status for a mutation
    if (roll < 30) {
      mutation = ExpectSameLink(store_->InsertTriple(model, s, p, o),
                                reference_.Insert(model, s, p, o),
                                what + " insert");
    } else if (roll < 45) {
      // Mostly a stored triple (reifications and assertions included),
      // sometimes a random one that is likely absent.
      std::optional<RefTriple> victim;
      if (rng_() % 4 != 0) victim = PickTriple(model);
      const std::string ds = victim ? victim->s.ToNTriples() : s;
      const std::string dp = victim ? victim->p.ToNTriples() : p;
      const std::string dobj = victim ? victim->o.ToNTriples() : o;
      mutation = store_->DeleteTriple(model, ds, dp, dobj);
      ExpectSameStatus(mutation, reference_.Delete(model, ds, dp, dobj),
                       what + " delete");
    } else if (roll < 55) {
      // The base may live in another model, which both sides reject.
      if (std::optional<RefTriple> base = PickTriple(Pick(kModels))) {
        mutation = ExpectSameLink(store_->ReifyTriple(model, base->link),
                                  reference_.Reify(model, base->link),
                                  what + " reify");
      }
    } else if (roll < 65) {
      if (std::optional<RefTriple> base = PickTriple(Pick(kModels))) {
        mutation = ExpectSameLink(
            store_->AssertAboutTriple(model, s, p, base->link),
            reference_.AssertAbout(model, s, p, base->link),
            what + " assert");
      }
    } else if (roll < 73) {
      const std::string& reif_s = Draw(kSubjects);
      mutation = ExpectSameLink(
          store_->AssertImplied(model, reif_s, "<urn:says>", s, p, o),
          reference_.AssertImplied(model, reif_s, "<urn:says>", s, p, o),
          what + " assert implied");
    } else if (roll < 77) {
      mutation =
          store_->CreateRdfModel(model, model + "_app", "triple").status();
      ExpectSameStatus(mutation, reference_.CreateModel(model),
                       what + " create");
    } else if (roll < 79) {
      mutation = store_->DropRdfModel(model);
      ExpectSameStatus(mutation, reference_.DropModel(model),
                       what + " drop");
    } else if (roll < 83) {
      ASSERT_TRUE(store_->Checkpoint().ok()) << what;
      reference_.Checkpoint();
      ExpectSameState(what + " after checkpoint");
    } else if (roll < 87) {
      Reopen();
      ASSERT_TRUE(reference_.Recover().ok()) << what;
      ExpectSameState(what + " after reopen");
      ExpectSamePinnedState(what + " after reopen");
    } else if (roll < 94) {
      ExpectSameMatch();
    } else {
      ExpectSamePointReads();
    }
    if (!mutation.ok() && !HasFailure()) ExpectUnchangedAfterFailure(what);
  }

  test::TestTempDir temp_;
  std::string snapshot_path_;
  std::string log_path_;
  std::unique_ptr<SnapshotRdfStore> store_;
  ReferenceStore reference_;
  std::mt19937_64 rng_;
};

TEST_P(StoreModelTest, RandomOperationsMatchReferenceModel) {
  for (const std::string& model : {kModels[0], kModels[1]}) {
    ASSERT_TRUE(store_->CreateRdfModel(model, model + "_app", "triple").ok());
    ASSERT_TRUE(reference_.CreateModel(model).ok());
  }
  for (int step = 0; step < 400; ++step) {
    Step(step);
    if (HasFailure()) {
      FAIL() << "diverged at step " << step << " (seed " << GetParam()
             << ")";
    }
    if (step % 25 == 24) ExpectSameState("step " + std::to_string(step));
  }
  // The final state must also survive a reopen unchanged.
  Reopen();
  ASSERT_TRUE(reference_.Recover().ok());
  ExpectSameState("final reopen");
  ExpectSamePinnedState("final reopen");
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Values(1u, 2u, 3u, 20261017u));

}  // namespace
}  // namespace rdfdb::rdf
