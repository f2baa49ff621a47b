#include "rdf/rdf_store.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "ndm/analysis.h"
#include "rdf/reification.h"
#include "rdf/vocab.h"
#include "test_temp_dir.h"

namespace rdfdb::rdf {
namespace {

class RdfStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("cia", "ciadata", "triple").ok());
  }

  RdfStore store_;
};

TEST_F(RdfStoreTest, InsertRequiresExistingModel) {
  // "A check is first made to ensure that the RDF graph exists."
  auto result = store_.InsertTriple("nope", "gov:files",
                                    "gov:terrorSuspect", "id:JohnDoe");
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST_F(RdfStoreTest, InsertReturnsAllFiveIds) {
  auto triple = store_.InsertTriple("cia", "gov:files",
                                    "gov:terrorSuspect", "id:JohnDoe");
  ASSERT_TRUE(triple.ok());
  EXPECT_GT(triple->rdf_t_id(), 0);
  EXPECT_GT(triple->rdf_m_id(), 0);
  EXPECT_GT(triple->rdf_s_id(), 0);
  EXPECT_GT(triple->rdf_p_id(), 0);
  EXPECT_GT(triple->rdf_o_id(), 0);
}

TEST_F(RdfStoreTest, RepeatedTripleSharesAllIds) {
  // Figure 6: the repeated triple shares the same RDF_S_ID, RDF_P_ID and
  // RDF_O_ID — and in the same model, even the same RDF_T_ID.
  auto a = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoe");
  auto b = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoe");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->rdf_t_id(), b->rdf_t_id());
  EXPECT_EQ(a->rdf_s_id(), b->rdf_s_id());
  EXPECT_EQ(a->rdf_p_id(), b->rdf_p_id());
  EXPECT_EQ(a->rdf_o_id(), b->rdf_o_id());
}

TEST_F(RdfStoreTest, CrossModelValueSharing) {
  // Figure 6: CIA and DHS rows for the same triple share VALUE_IDs but
  // have different RDF_T_ID and RDF_M_ID.
  ASSERT_TRUE(store_.CreateRdfModel("dhs", "dhsdata", "triple").ok());
  auto cia = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoe");
  auto dhs = store_.InsertTriple("dhs", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoe");
  ASSERT_TRUE(cia.ok());
  ASSERT_TRUE(dhs.ok());
  EXPECT_EQ(cia->rdf_s_id(), dhs->rdf_s_id());
  EXPECT_EQ(cia->rdf_p_id(), dhs->rdf_p_id());
  EXPECT_EQ(cia->rdf_o_id(), dhs->rdf_o_id());
  EXPECT_NE(cia->rdf_t_id(), dhs->rdf_t_id());
  EXPECT_NE(cia->rdf_m_id(), dhs->rdf_m_id());
}

TEST_F(RdfStoreTest, MemberFunctionsResolveText) {
  auto triple = store_.InsertTriple("cia", "gov:files",
                                    "gov:terrorSuspect", "id:JohnDoe");
  ASSERT_TRUE(triple.ok());
  EXPECT_EQ(*triple->GetSubject(), "gov:files");
  EXPECT_EQ(*triple->GetProperty(), "gov:terrorSuspect");
  EXPECT_EQ(*triple->GetObject(), "id:JohnDoe");
  auto full = triple->GetTriple();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->subject, "gov:files");
  EXPECT_EQ(full->ToString(),
            "(gov:files, gov:terrorSuspect, id:JohnDoe)");
}

TEST_F(RdfStoreTest, GetObjectReturnsLongLiteral) {
  std::string big(kLongLiteralThreshold + 100, 'L');
  auto triple =
      store_.InsertTriple("cia", "gov:doc", "gov:body", "\"" + big + "\"");
  ASSERT_TRUE(triple.ok());
  EXPECT_EQ(*triple->GetObject(), big);
}

TEST_F(RdfStoreTest, IsTriple) {
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe")
                  .ok());
  EXPECT_TRUE(*store_.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoe"));
  EXPECT_FALSE(*store_.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                                "id:Nobody"));
  EXPECT_FALSE(*store_.IsTriple("cia", "id:JohnDoe", "gov:terrorSuspect",
                                "gov:files"));
}

TEST_F(RdfStoreTest, ReifyStoresSingleStreamlinedTriple) {
  // §5: one new triple per reification — <DBUri, rdf:type, rdf:Statement>.
  auto base = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe");
  ASSERT_TRUE(base.ok());
  size_t before = store_.links().TripleCount(base->rdf_m_id());
  auto reif = store_.ReifyTriple("cia", base->rdf_t_id());
  ASSERT_TRUE(reif.ok());
  EXPECT_EQ(store_.links().TripleCount(base->rdf_m_id()), before + 1);

  // The stored triple's subject is the DBUri; REIF_LINK is Y.
  EXPECT_EQ(*reif->GetSubject(), DBUriForLink(base->rdf_t_id()));
  EXPECT_EQ(*reif->GetProperty(), std::string(kRdfType));
  EXPECT_EQ(*reif->GetObject(), std::string(kRdfStatement));
  auto row = store_.links().Get(reif->rdf_t_id());
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->reif_link);
}

TEST_F(RdfStoreTest, ReifyUnknownTripleFails) {
  EXPECT_TRUE(store_.ReifyTriple("cia", 424242).status().IsNotFound());
}

TEST_F(RdfStoreTest, IsReified) {
  auto base = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe");
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(*store_.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoe"));
  ASSERT_TRUE(store_.ReifyTriple("cia", base->rdf_t_id()).ok());
  EXPECT_TRUE(*store_.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoe"));
  // Unknown triple: false, not an error.
  EXPECT_FALSE(*store_.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                 "id:Ghost"));
}

TEST_F(RdfStoreTest, AssertAboutReifiesOnDemand) {
  // §5.1: MI5 said <gov:files, gov:terrorSuspect, id:JohnDoe>.
  auto base = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe");
  ASSERT_TRUE(base.ok());
  auto assertion = store_.AssertAboutTriple("cia", "gov:MI5", "gov:source",
                                            base->rdf_t_id());
  ASSERT_TRUE(assertion.ok());
  // The assertion's object is the DBUri of the base triple.
  EXPECT_EQ(*assertion->GetObject(), DBUriForLink(base->rdf_t_id()));
  // Reification happened implicitly.
  EXPECT_TRUE(*store_.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoe"));
  // A second assertion reuses the existing reification: total triples =
  // base + reification + 2 assertions.
  ASSERT_TRUE(store_.AssertAboutTriple("cia", "gov:CIA", "gov:source",
                                       base->rdf_t_id())
                  .ok());
  EXPECT_EQ(store_.links().TripleCount(base->rdf_m_id()), 4u);
}

TEST_F(RdfStoreTest, AssertImpliedMarksContextI) {
  // §5.2: "Interpol said that JohnDoeJr is a terrorSuspect" — the base
  // triple is an implied statement, not a fact.
  auto assertion = store_.AssertImplied("cia", "gov:Interpol", "gov:source",
                                        "gov:files", "gov:terrorSuspect",
                                        "id:JohnDoeJr");
  ASSERT_TRUE(assertion.ok());
  auto base_row = store_.links().Get(
      LinkIdFromDBUri(*assertion->GetObject()).value());
  ASSERT_TRUE(base_row.ok());
  EXPECT_EQ(base_row->context, TripleContext::kImplied);
  EXPECT_TRUE(*store_.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoeJr"));

  // "If the triple is subsequently entered into the database as a fact,
  // the CONTEXT for this triple is changed from I to D."
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoeJr")
                  .ok());
  auto upgraded = store_.links().Get(base_row->link_id);
  EXPECT_EQ(upgraded->context, TripleContext::kDirect);
}

TEST_F(RdfStoreTest, AssertImpliedOnExistingFactKeepsDirect) {
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe")
                  .ok());
  auto assertion = store_.AssertImplied("cia", "gov:Interpol", "gov:source",
                                        "gov:files", "gov:terrorSuspect",
                                        "id:JohnDoe");
  ASSERT_TRUE(assertion.ok());
  auto base_row = store_.links().Get(
      LinkIdFromDBUri(*assertion->GetObject()).value());
  EXPECT_EQ(base_row->context, TripleContext::kDirect);
}

TEST_F(RdfStoreTest, ReificationStorageIsOneQuarterOfQuad) {
  // §7.3: "Reification in Oracle requires only 25% of the storage
  // required by naive implementations, which store the entire
  // reification quad." One row vs four.
  auto base = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe");
  size_t before = store_.links().TotalTripleCount();
  ASSERT_TRUE(store_.ReifyTriple("cia", base->rdf_t_id()).ok());
  size_t streamlined_rows = store_.links().TotalTripleCount() - before;
  EXPECT_EQ(streamlined_rows, 1u);
  EXPECT_EQ(streamlined_rows * 4, 4u);  // naive quad would be 4 rows
}

TEST_F(RdfStoreTest, DeleteTriple) {
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe")
                  .ok());
  ASSERT_TRUE(store_.DeleteTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe")
                  .ok());
  EXPECT_FALSE(*store_.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoe"));
  EXPECT_TRUE(store_.DeleteTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:Ghost")
                  .IsNotFound());
}

TEST_F(RdfStoreTest, CanonicalObjectSharesCanonId) {
  auto raw = store_.InsertTriple(
      "cia", "gov:x", "gov:age",
      "\"+025\"^^<http://www.w3.org/2001/XMLSchema#int>");
  ASSERT_TRUE(raw.ok());
  auto row = store_.links().Get(raw->rdf_t_id());
  ASSERT_TRUE(row.ok());
  // END != CANON_END because "+025" is not canonical.
  EXPECT_NE(row->end_node_id, row->canon_end_node_id);
  auto canon_term = store_.TermForValueId(row->canon_end_node_id);
  EXPECT_EQ(canon_term->lexical(), "25");
}

TEST_F(RdfStoreTest, BlankNodeSubjectsWork) {
  auto triple = store_.InsertTriple("cia", "_:b1", "gov:knows",
                                    "id:JohnDoe");
  ASSERT_TRUE(triple.ok());
  EXPECT_TRUE(*store_.IsTriple("cia", "_:b1", "gov:knows", "id:JohnDoe"));
}

TEST_F(RdfStoreTest, NetworkExposedForAnalysis) {
  // §1: "allowing RDF data to be managed as objects and analyzed as
  // networks."
  auto a = store_.InsertTriple("cia", "id:A", "gov:knows", "id:B");
  ASSERT_TRUE(store_.InsertTriple("cia", "id:B", "gov:knows", "id:C").ok());
  ASSERT_TRUE(a.ok());
  ndm::PathResult path =
      ndm::ShortestPath(store_.network(), a->rdf_s_id(),
                        *store_.values().Lookup(Term::Uri("id:C")));
  ASSERT_TRUE(path.found);
  EXPECT_EQ(path.links.size(), 2u);
}

TEST_F(RdfStoreTest, DropModelRemovesTriples) {
  ASSERT_TRUE(store_.InsertTriple("cia", "gov:a", "gov:b", "gov:c").ok());
  ASSERT_TRUE(store_.DropRdfModel("cia").ok());
  EXPECT_TRUE(store_.GetModelId("cia").status().IsNotFound());
  EXPECT_EQ(store_.links().TotalTripleCount(), 0u);
}

TEST_F(RdfStoreTest, SaveAndOpenRoundTrip) {
  auto base = store_.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                  "id:JohnDoe");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(store_.ReifyTriple("cia", base->rdf_t_id()).ok());
  ASSERT_TRUE(store_.InsertTriple("cia", "_:b1", "gov:knows", "id:JohnDoe")
                  .ok());

  test::TestTempDir temp;
  std::string path = temp.Path("store_test.bin");
  ASSERT_TRUE(store_.Save(path).ok());
  auto reopened = RdfStore::Open(path);
  ASSERT_TRUE(reopened.ok());
  RdfStore& loaded = **reopened;

  EXPECT_TRUE(*loaded.IsTriple("cia", "gov:files", "gov:terrorSuspect",
                               "id:JohnDoe"));
  EXPECT_TRUE(*loaded.IsReified("cia", "gov:files", "gov:terrorSuspect",
                                "id:JohnDoe"));
  EXPECT_EQ(loaded.links().TotalTripleCount(),
            store_.links().TotalTripleCount());
  EXPECT_EQ(loaded.network().link_count(),
            store_.network().link_count());
  // Pattern scans are served from the id-native quad cache, which must
  // be rebuilt after the raw-row snapshot copy — point lookups passing
  // while wildcard scans return nothing is exactly the regression this
  // guards against.
  {
    const LinkStore::ModelIdCache* cache =
        loaded.CacheFor(*loaded.GetModelId("cia"));
    ASSERT_NE(cache, nullptr);
    size_t matched = 0;
    LinkStore::Scan(*cache, std::nullopt, std::nullopt, std::nullopt,
                    /*scans=*/nullptr,
                    [&](uint32_t, ValueId, ValueId, ValueId, ValueId) {
                      ++matched;
                      return true;
                    });
    EXPECT_EQ(matched, loaded.links().TotalTripleCount());
  }
  // New inserts continue from fresh sequence values (no id collisions).
  auto fresh = loaded.InsertTriple("cia", "gov:new", "gov:p", "gov:o");
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(fresh->rdf_t_id(), base->rdf_t_id());
  // Views were rebuilt.
  EXPECT_NE(loaded.database().GetView("MDSYS", "RDFM_CIA"), nullptr);
  std::remove(path.c_str());
}

TEST_F(RdfStoreTest, InvalidTermsRejected) {
  EXPECT_FALSE(store_.InsertTriple("cia", "\"literal\"", "gov:p", "o").ok());
  EXPECT_FALSE(store_.InsertTriple("cia", "gov:s", "_:blank", "o").ok());
  EXPECT_FALSE(store_.InsertTriple("cia", "", "gov:p", "o").ok());
}

}  // namespace
}  // namespace rdfdb::rdf
