// Integration tests: the paper's three experiments run end-to-end at
// small scale, checking *correctness parity* between the RDF object
// store and the Jena2 baseline (the benchmarks measure the timing).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/jena2_store.h"
#include "gen/uniprot_gen.h"
#include "gen/workload.h"
#include "ndm/analysis.h"
#include "rdf/app_table.h"
#include "rdf/rdf_store.h"
#include "rdf/vocab.h"
#include "test_temp_dir.h"

namespace rdfdb {
namespace {

using baseline::Jena2Store;
using gen::GenerateUniProt;
using gen::LoadUniProtIntoJena2;
using gen::LoadUniProtIntoOracle;
using gen::UniProtDataset;
using gen::UniProtOptions;
using rdf::ApplicationTable;
using rdf::RdfStore;
using rdf::SdoRdfTripleS;
using rdf::Term;

class UniProtIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    UniProtOptions options;
    options.target_triples = 4000;
    dataset_ = new UniProtDataset(GenerateUniProt(options));

    store_ = new RdfStore();
    auto load = LoadUniProtIntoOracle(store_, "uniprot", "uniprot4k",
                                      *dataset_);
    ASSERT_TRUE(load.ok()) << load.status().ToString();

    jena_db_ = new storage::Database("JENADB");
    jena_ = new Jena2Store(jena_db_);
    ASSERT_TRUE(LoadUniProtIntoJena2(jena_, "uniprot", *dataset_).ok());
  }

  static void TearDownTestSuite() {
    delete jena_;
    delete jena_db_;
    delete store_;
    delete dataset_;
    jena_ = nullptr;
    jena_db_ = nullptr;
    store_ = nullptr;
    dataset_ = nullptr;
  }

  static UniProtDataset* dataset_;
  static RdfStore* store_;
  static storage::Database* jena_db_;
  static Jena2Store* jena_;
};

UniProtDataset* UniProtIntegrationTest::dataset_ = nullptr;
RdfStore* UniProtIntegrationTest::store_ = nullptr;
storage::Database* UniProtIntegrationTest::jena_db_ = nullptr;
Jena2Store* UniProtIntegrationTest::jena_ = nullptr;

TEST_F(UniProtIntegrationTest, ExperimentIParityMemberVsDirectJoin) {
  // Experiment I (Fig 9): the member-function query and the direct
  // storage-table join return the same rows.
  auto table = ApplicationTable::Attach(store_, "UP", "uniprot4k");
  ASSERT_TRUE(table.ok());

  // Member-function path.
  std::set<std::string> via_member;
  for (const SdoRdfTripleS& triple :
       table->FindBySubject(gen::kProbeSubject)) {
    auto full = triple.GetTriple();
    ASSERT_TRUE(full.ok());
    via_member.insert(full->ToString());
  }

  // Direct join over rdf_value$ x3 |x| rdf_link$ (Fig 9's second query).
  std::set<std::string> via_join;
  auto subject_id =
      store_->values().Lookup(Term::Uri(gen::kProbeSubject));
  ASSERT_TRUE(subject_id.has_value());
  rdf::ModelId model = *store_->GetModelId("uniprot");
  for (const rdf::LinkRow& row :
       store_->links().Match(model, *subject_id, std::nullopt,
                             std::nullopt)) {
    std::string s = *store_->values().GetText(row.start_node_id);
    std::string p = *store_->values().GetText(row.p_value_id);
    std::string o = *store_->values().GetText(row.end_node_id);
    via_join.insert("(" + s + ", " + p + ", " + o + ")");
  }

  EXPECT_EQ(via_member, via_join);
  EXPECT_EQ(via_member.size(), 24u);  // Table 1's row count
}

TEST_F(UniProtIntegrationTest, ExperimentIIParityOracleVsJena2) {
  // Experiment II (Table 1): the same subject query on both systems
  // returns the same statements.
  auto table = ApplicationTable::Attach(store_, "UP", "uniprot4k");
  ASSERT_TRUE(table.ok());
  std::set<std::string> oracle_rows;
  for (const SdoRdfTripleS& triple :
       table->FindBySubject(gen::kProbeSubject)) {
    auto full = triple.GetTriple();
    ASSERT_TRUE(full.ok());
    oracle_rows.insert(full->subject + "|" + full->property + "|" +
                       full->object);
  }

  auto jena_rows = jena_->ListStatements(
      "uniprot", Term::Uri(gen::kProbeSubject), std::nullopt, std::nullopt);
  ASSERT_TRUE(jena_rows.ok());
  std::set<std::string> jena_set;
  for (const rdf::NTriple& t : *jena_rows) {
    jena_set.insert(t.subject.ToDisplayString() + "|" +
                    t.predicate.ToDisplayString() + "|" +
                    t.object.ToDisplayString());
  }
  EXPECT_EQ(oracle_rows, jena_set);
  EXPECT_EQ(oracle_rows.size(), 24u);
}

TEST_F(UniProtIntegrationTest, ExperimentIIIParityIsReified) {
  // Experiment III (Table 2, Fig 11): true and false probes agree on
  // both systems.
  auto oracle_true = store_->IsReified(
      "uniprot", gen::kProbeSubject, std::string(rdf::kRdfsSeeAlso),
      gen::kProbeReifiedTarget);
  ASSERT_TRUE(oracle_true.ok());
  EXPECT_TRUE(*oracle_true);
  auto oracle_false = store_->IsReified(
      "uniprot", gen::kProbeSubject, std::string(rdf::kRdfsSeeAlso),
      gen::kProbeUnreifiedTarget);
  ASSERT_TRUE(oracle_false.ok());
  EXPECT_FALSE(*oracle_false);

  EXPECT_TRUE(*jena_->IsReified("uniprot", dataset_->reified_probe));
  EXPECT_FALSE(*jena_->IsReified("uniprot", dataset_->unreified_probe));
}

TEST_F(UniProtIntegrationTest, AllReifiedStatementsVisibleOnBothSystems) {
  size_t checked = 0;
  for (size_t i = 0; i < dataset_->reified.size(); i += 13) {
    const rdf::NTriple& base = dataset_->reified[i].base;
    auto oracle = store_->IsReified("uniprot",
                                    base.subject.ToDisplayString(),
                                    base.predicate.ToDisplayString(),
                                    base.object.ToDisplayString());
    ASSERT_TRUE(oracle.ok());
    EXPECT_TRUE(*oracle) << i;
    EXPECT_TRUE(*jena_->IsReified("uniprot", base)) << i;
    ++checked;
  }
  EXPECT_GT(checked, 5u);
}

TEST_F(UniProtIntegrationTest, ReificationStorageRatio) {
  // §7.3: streamlined reification = 1 row per reified statement where
  // the quad scheme stores 4.
  rdf::ModelId model = *store_->GetModelId("uniprot");
  auto type_id =
      store_->values().Lookup(Term::Uri(std::string(rdf::kRdfType)));
  auto stmt_id =
      store_->values().Lookup(Term::Uri(std::string(rdf::kRdfStatement)));
  ASSERT_TRUE(type_id.has_value());
  ASSERT_TRUE(stmt_id.has_value());
  size_t streamlined_rows = 0;
  store_->links().ScanModel(model, [&](const rdf::LinkRow& row) {
    if (row.p_value_id == *type_id && row.end_node_id == *stmt_id) {
      ++streamlined_rows;
    }
    return true;
  });
  // One row per *distinct* reified statement.
  std::set<std::string> distinct;
  for (const auto& r : dataset_->reified) {
    distinct.insert(rdf::ToNTriplesLine(r.base));
  }
  EXPECT_EQ(streamlined_rows, distinct.size());
  // Naive quad storage would use 4x the rows.
  EXPECT_EQ(streamlined_rows * 4, distinct.size() * 4);
}

TEST_F(UniProtIntegrationTest, ValueDeduplicationHolds) {
  // "Nodes in the RDF network are uniquely stored": distinct values in
  // rdf_value$ are far fewer than 3 x triples.
  size_t triples = store_->links().TotalTripleCount();
  size_t values = store_->values().value_count();
  EXPECT_LT(values, triples * 2);
  EXPECT_GT(values, 100u);
}

TEST_F(UniProtIntegrationTest, NetworkAnalysisOverLoadedData) {
  // "RDF data ... analyzed as networks": the probe protein reaches its
  // cross-references in one hop, and the network is non-trivially
  // connected.
  auto probe_id = store_->values().Lookup(Term::Uri(gen::kProbeSubject));
  ASSERT_TRUE(probe_id.has_value());
  auto target_id =
      store_->values().Lookup(Term::Uri(gen::kProbeReifiedTarget));
  ASSERT_TRUE(target_id.has_value());
  ndm::PathResult path =
      ndm::ShortestPath(store_->network(), *probe_id, *target_id);
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.links.size(), 1u);

  auto within = ndm::WithinCost(store_->network(), *probe_id, 1.0);
  EXPECT_GE(within.size(), 24u);  // itself + its objects (some shared)
  EXPECT_GT(ndm::ConnectedComponentCount(store_->network()), 1u);
}

TEST_F(UniProtIntegrationTest, SnapshotRoundTripAtScale) {
  test::TestTempDir temp;
  std::string path = temp.Path("integration_snap.bin");
  ASSERT_TRUE(store_->Save(path).ok());
  auto reopened = RdfStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->links().TotalTripleCount(),
            store_->links().TotalTripleCount());
  EXPECT_EQ((*reopened)->values().value_count(),
            store_->values().value_count());
  auto still = (*reopened)->IsReified(
      "uniprot", gen::kProbeSubject, std::string(rdf::kRdfsSeeAlso),
      gen::kProbeReifiedTarget);
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(*still);

  // The reopened store rebuilds the same dictionary: every VALUE_ID
  // spells the same bytes with the same type code, and blank nodes keep
  // their (model, label) scope.
  const RdfStore& back = **reopened;
  size_t values = 0;
  size_t blanks = 0;
  store_->values().table().Scan([&](storage::RowId, const storage::Row& row) {
    const rdf::ValueId id = row[0].as_int64();
    ++values;
    std::string original, reread;
    EXPECT_TRUE(store_->AppendNTriples(id, &original).ok());
    EXPECT_TRUE(back.AppendNTriples(id, &reread).ok());
    EXPECT_EQ(reread, original) << id;
    EXPECT_EQ(*back.values().GetTypeCode(id),
              *store_->values().GetTypeCode(id));
    auto scope = store_->values().LookupBlankLabel(id);
    EXPECT_EQ(back.values().LookupBlankLabel(id), scope) << id;
    if (scope.has_value()) {
      ++blanks;
      EXPECT_EQ(back.LookupBlank(scope->first, scope->second), id);
    }
    return true;
  });
  EXPECT_EQ(values, store_->values().value_count());
  EXPECT_GT(blanks, 0u);
  std::remove(path.c_str());
}

TEST_F(UniProtIntegrationTest, AppTableRowsCoverDatasetPlusAssertions) {
  auto table = ApplicationTable::Attach(store_, "UP", "uniprot4k");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->row_count(),
            dataset_->triples.size() + dataset_->reified.size());
}

}  // namespace
}  // namespace rdfdb
