// Tests for the extended SDO_RDF-style API surface (GetTripleId,
// GetModelStats, CheckConsistency) and cross-cutting store invariants
// checked over randomized workloads.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "gen/uniprot_gen.h"
#include "rdf/bulk_load.h"
#include "rdf/rdf_store.h"
#include "rdf/vocab.h"

namespace rdfdb::rdf {
namespace {

class StoreApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("cia", "ciadata", "triple").ok());
  }

  RdfStore store_;
};

TEST_F(StoreApiTest, GetTripleId) {
  auto triple = store_.InsertTriple("cia", "gov:files",
                                    "gov:terrorSuspect", "id:JohnDoe");
  ASSERT_TRUE(triple.ok());
  auto id = store_.GetTripleId("cia", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoe");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, triple->rdf_t_id());
  EXPECT_TRUE(store_.GetTripleId("cia", "gov:files", "gov:terrorSuspect",
                                 "id:Ghost")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(store_.GetTripleId("ghost", "gov:a", "gov:b", "gov:c")
                  .status()
                  .IsNotFound());
}

TEST_F(StoreApiTest, ModelStatsCountsEverything) {
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe")
                  .ok());
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JaneDoe")
                  .ok());
  auto base = store_.GetTripleId("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoe");
  ASSERT_TRUE(store_.ReifyTriple("cia", *base).ok());
  ASSERT_TRUE(store_.AssertImplied("cia", "gov:Interpol", "gov:source",
                                   "gov:files", "gov:terrorSuspect",
                                   "id:JohnDoeJr")
                  .ok());

  auto stats = store_.GetModelStats("cia");
  ASSERT_TRUE(stats.ok());
  // 2 facts + 1 reif + 1 implied base + 1 reif + 1 assertion = 6.
  EXPECT_EQ(stats->triples, 6u);
  EXPECT_EQ(stats->reified_statements, 2u);
  EXPECT_EQ(stats->implied_statements, 1u);
  EXPECT_EQ(stats->distinct_predicates, 3u);  // terrorSuspect, rdf:type,
                                              // gov:source
  EXPECT_GE(stats->distinct_subjects, 4u);
  EXPECT_TRUE(store_.GetModelStats("ghost").status().IsNotFound());
}

TEST_F(StoreApiTest, EmptyModelStats) {
  auto stats = store_.GetModelStats("cia");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triples, 0u);
  EXPECT_EQ(stats->distinct_subjects, 0u);
}

TEST_F(StoreApiTest, ConsistencyHoldsThroughMutations) {
  EXPECT_TRUE(store_.CheckConsistency().ok());
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:a", "gov:p", "gov:b").ok());
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:b", "gov:p", "gov:c").ok());
  EXPECT_TRUE(store_.CheckConsistency().ok());
  ASSERT_TRUE(store_.DeleteTriple("cia", "gov:a", "gov:p", "gov:b").ok());
  EXPECT_TRUE(store_.CheckConsistency().ok());
  ASSERT_TRUE(store_.DropRdfModel("cia").ok());
  EXPECT_TRUE(store_.CheckConsistency().ok());
}

TEST_F(StoreApiTest, ConsistencyReportsEachPlantedFault) {
  // Each fault is planted behind the store's back, through the raw
  // central-schema tables or the link store, on a fresh two-node store.
  auto check_after = [](const std::function<void(RdfStore&)>& fault) {
    RdfStore store;
    EXPECT_TRUE(store.CreateRdfModel("cia", "ciadata", "triple").ok());
    EXPECT_TRUE(store.InsertTriple("cia", "gov:a", "gov:p", "gov:b").ok());
    EXPECT_TRUE(store.CheckConsistency().ok());
    fault(store);
    return store.CheckConsistency();
  };
  auto first_row = [](const storage::Table& table) {
    storage::RowId first = -1;
    table.Scan([&](storage::RowId rid, const storage::Row&) {
      first = rid;
      return false;
    });
    return first;
  };
  auto expect_corruption = [](const Status& status, const std::string& what) {
    EXPECT_TRUE(status.IsCorruption()) << status.ToString();
    EXPECT_NE(status.message().find(what), std::string::npos)
        << status.ToString();
  };

  // A live link's endpoint has no rdf_node$ row.
  expect_corruption(check_after([&](RdfStore& store) {
                      storage::Table* nodes =
                          store.database().GetTable("MDSYS", "RDF_NODE$");
                      ASSERT_TRUE(nodes->Delete(first_row(*nodes)).ok());
                    }),
                    "has no rdf_node$ row for endpoint");
  // An rdf_node$ row with no live link.
  expect_corruption(
      check_after([](RdfStore& store) {
        ValueId unused = *store.values().LookupOrInsert(Term::Uri("gov:x"));
        storage::Row row(2);
        row[0] = storage::Value::Int64(unused);
        row[1] = storage::Value::String("Y");
        ASSERT_TRUE(store.database()
                        .GetTable("MDSYS", "RDF_NODE$")
                        ->Insert(std::move(row))
                        .ok());
      }),
      "orphaned node");
  // A link whose endpoint is not in rdf_value$.
  expect_corruption(check_after([](RdfStore& store) {
                      ValueId p = *store.values().Lookup(Term::Uri("gov:p"));
                      ASSERT_TRUE(store.links()
                                      .Insert(*store.GetModelId("cia"),
                                              999999, p, 999999, 999999,
                                              "STANDARD",
                                              TripleContext::kDirect, false)
                                      .ok());
                    }),
                    "missing VALUE_ID 999999");
  // The quad cache and rdf_link$ disagree on the live triple count.
  expect_corruption(check_after([&](RdfStore& store) {
                      storage::Table* links =
                          store.database().GetTable("MDSYS", "RDF_LINK$");
                      ASSERT_TRUE(links->Delete(first_row(*links)).ok());
                    }),
                    "quad cache has 1 live triples, rdf_link$ has 0");
}

TEST_F(StoreApiTest, ModelAccessGrants) {
  // The cia model was created without an owner -> public.
  auto open = store_.CanSelectModel("cia", "anyone");
  ASSERT_TRUE(open.ok());
  EXPECT_TRUE(*open);

  // An owned model restricts SELECT to the owner until granted.
  ASSERT_TRUE(
      store_.CreateRdfModel("secret", "secretdata", "triple", "cia_user")
          .ok());
  EXPECT_TRUE(*store_.CanSelectModel("secret", "cia_user"));
  EXPECT_FALSE(*store_.CanSelectModel("secret", "fbi_user"));
  ASSERT_TRUE(store_.GrantSelectOnModel("secret", "fbi_user").ok());
  EXPECT_TRUE(*store_.CanSelectModel("secret", "fbi_user"));
  EXPECT_FALSE(*store_.CanSelectModel("secret", "dhs_user"));
  EXPECT_TRUE(store_.GrantSelectOnModel("ghost", "x").IsNotFound());
  EXPECT_TRUE(store_.CanSelectModel("ghost", "x").status().IsNotFound());
}

// ---- Randomized property sweep ----------------------------------------

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, LoadExportReloadPreservesModel) {
  gen::UniProtOptions options;
  options.target_triples = 1500;
  options.seed = GetParam();
  gen::UniProtDataset dataset = gen::GenerateUniProt(options);

  RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  auto stats = BulkLoad(&store, "m", dataset.triples);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(store.CheckConsistency().ok());

  // Export and reload into a fresh store.
  auto exported = ExportModel(store, "m");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->size(), stats->new_links);

  RdfStore second;
  ASSERT_TRUE(second.CreateRdfModel("m", "mdata", "triple").ok());
  auto reload = BulkLoad(&second, "m", *exported);
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->new_links, exported->size());
  EXPECT_EQ(reload->reused_links, 0u);  // export had no duplicates
  ASSERT_TRUE(second.CheckConsistency().ok());

  // Model-level statistics agree.
  auto s1 = store.GetModelStats("m");
  auto s2 = second.GetModelStats("m");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s1->triples, s2->triples);
  EXPECT_EQ(s1->distinct_subjects, s2->distinct_subjects);
  EXPECT_EQ(s1->distinct_predicates, s2->distinct_predicates);
  EXPECT_EQ(s1->distinct_objects, s2->distinct_objects);
}

TEST_P(RandomWorkloadTest, DeleteEverythingLeavesCleanStore) {
  gen::UniProtOptions options;
  options.target_triples = 600;
  options.seed = GetParam() + 50;
  gen::UniProtDataset dataset = gen::GenerateUniProt(options);

  RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(BulkLoad(&store, "m", dataset.triples).ok());

  // Delete every triple, then verify nothing is left anywhere.
  ModelId model = *store.GetModelId("m");
  std::vector<LinkRow> rows;
  store.links().ScanModel(model, [&](const LinkRow& row) {
    rows.push_back(row);
    return true;
  });
  for (const LinkRow& row : rows) {
    ASSERT_TRUE(store.links()
                    .Delete(model, row.start_node_id, row.p_value_id,
                            row.end_node_id, /*force=*/true)
                    .ok());
  }
  EXPECT_EQ(store.links().TotalTripleCount(), 0u);
  EXPECT_EQ(store.database().GetTable("MDSYS", "RDF_NODE$")->row_count(), 0u);
  size_t nodes = 0;
  store.network().ForEachNode([&](ndm::NodeId) { ++nodes; });
  EXPECT_EQ(nodes, 0u);
  EXPECT_EQ(store.network().link_count(), 0u);
  EXPECT_TRUE(store.CheckConsistency().ok());
}

TEST_P(RandomWorkloadTest, ValueDedupInvariant) {
  gen::UniProtOptions options;
  options.target_triples = 1000;
  options.seed = GetParam() + 99;
  gen::UniProtDataset dataset = gen::GenerateUniProt(options);

  RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(BulkLoad(&store, "m", dataset.triples).ok());

  // No two rdf_value$ rows may carry the same (name, type, datatype,
  // lang) key — the "uniquely stored" invariant.
  std::set<std::string> keys;
  bool duplicates = false;
  store.values().table().Scan(
      [&](storage::RowId, const storage::Row& row) {
        std::string key;
        for (size_t col : {1u, 2u, 3u, 4u}) {
          key += row[col].ToString() + "\x1f";
        }
        if (!keys.insert(key).second) duplicates = true;
        return true;
      });
  EXPECT_FALSE(duplicates);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace rdfdb::rdf
