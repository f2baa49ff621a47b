#include "rdf/link_store.h"

#include <gtest/gtest.h>

#include "rdf/vocab.h"

namespace rdfdb::rdf {
namespace {

class LinkStoreTest : public ::testing::Test {
 protected:
  LinkStoreTest() : values_(&db_), links_(&db_, &values_) {}

  ValueId V(const std::string& uri) {
    return *values_.LookupOrInsert(Term::Uri(uri));
  }

  /// The NDM links the store reports at `node`.
  std::vector<ndm::Link> NetLinks(ValueId node, ndm::Direction direction) {
    std::vector<ndm::Link> out;
    links_.ForEachLink(node, direction,
                       [&](const ndm::Link& link) { out.push_back(link); });
    return out;
  }

  size_t NodeRows() { return db_.GetTable("MDSYS", "RDF_NODE$")->row_count(); }

  storage::Database db_{"ORADB"};
  ValueStore values_;
  LinkStore links_;
};

TEST_F(LinkStoreTest, InsertCreatesLinkAndNodes) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto outcome = links_.Insert(1, s, p, o, o, "STANDARD",
                               TripleContext::kDirect, false);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->inserted);
  EXPECT_GT(outcome->row.link_id, 0);
  EXPECT_EQ(outcome->row.cost, 1);
  EXPECT_EQ(links_.TripleCount(1), 1u);
  // The triple is an NDM link between two rdf_node$ rows.
  EXPECT_TRUE(links_.HasNode(s));
  EXPECT_TRUE(links_.HasNode(o));
  EXPECT_EQ(NodeRows(), 2u);
  std::vector<ndm::Link> out = NetLinks(s, ndm::Direction::kOutgoing);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, outcome->row.link_id);
  EXPECT_EQ(out[0].end, o);
  EXPECT_EQ(out[0].label, p);
  std::vector<ndm::Link> in = NetLinks(o, ndm::Direction::kIncoming);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].id, outcome->row.link_id);
  EXPECT_TRUE(NetLinks(s, ndm::Direction::kIncoming).empty());
}

TEST_F(LinkStoreTest, DuplicateInsertIncrementsCost) {
  // "COST: the number of times the triple is stored in an application
  // table. The triple is only stored once in the rdf_link$ table."
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto first = links_.Insert(1, s, p, o, o, "STANDARD",
                             TripleContext::kDirect, false);
  auto second = links_.Insert(1, s, p, o, o, "STANDARD",
                              TripleContext::kDirect, false);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->inserted);
  EXPECT_EQ(second->row.link_id, first->row.link_id);
  EXPECT_EQ(second->row.cost, 2);
  EXPECT_EQ(links_.TripleCount(1), 1u);
  EXPECT_EQ(links_.link_count(), 1u);
}

TEST_F(LinkStoreTest, SameTripleDifferentModelsIsSeparate) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  auto other = links_.Insert(2, s, p, o, o, "STANDARD",
                             TripleContext::kDirect, false);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->inserted);
  EXPECT_EQ(links_.TripleCount(1), 1u);
  EXPECT_EQ(links_.TripleCount(2), 1u);
  // Nodes are shared (stored once), links are per-triple.
  EXPECT_EQ(NodeRows(), 2u);
  EXPECT_EQ(links_.node_count(), 2u);
  EXPECT_EQ(links_.link_count(), 2u);
  EXPECT_EQ(NetLinks(s, ndm::Direction::kOutgoing).size(), 2u);
}

TEST_F(LinkStoreTest, ImpliedUpgradesToDirect) {
  // "If the triple is subsequently entered into the database as a fact,
  // the CONTEXT for this triple is changed from I to D."
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto implied = links_.Insert(1, s, p, o, o, "STANDARD",
                               TripleContext::kImplied, false);
  EXPECT_EQ(implied->row.context, TripleContext::kImplied);
  auto direct = links_.Insert(1, s, p, o, o, "STANDARD",
                              TripleContext::kDirect, false);
  EXPECT_EQ(direct->row.context, TripleContext::kDirect);
  // And a Direct triple never downgrades.
  auto still = links_.Insert(1, s, p, o, o, "STANDARD",
                             TripleContext::kImplied, false);
  EXPECT_EQ(still->row.context, TripleContext::kDirect);
}

TEST_F(LinkStoreTest, ReifLinkFlagIsSticky) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  auto second = links_.Insert(1, s, p, o, o, "STANDARD",
                              TripleContext::kDirect, true);
  EXPECT_TRUE(second->row.reif_link);
  auto third = links_.Insert(1, s, p, o, o, "STANDARD",
                             TripleContext::kDirect, false);
  EXPECT_TRUE(third->row.reif_link);
}

TEST_F(LinkStoreTest, FindAndGet) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  auto outcome = links_.Insert(1, s, p, o, o, "STANDARD",
                               TripleContext::kDirect, false);
  auto found = links_.Find(1, s, p, o);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->link_id, outcome->row.link_id);
  EXPECT_FALSE(links_.Find(2, s, p, o).has_value());
  EXPECT_FALSE(links_.Find(1, o, p, s).has_value());
  auto got = links_.Get(outcome->row.link_id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->start_node_id, s);
  EXPECT_TRUE(links_.Get(999999).status().IsNotFound());
}

TEST_F(LinkStoreTest, MatchByPositions) {
  ValueId s1 = V("s1"), s2 = V("s2"), p1 = V("p1"), p2 = V("p2"),
          o1 = V("o1"), o2 = V("o2");
  (void)links_.Insert(1, s1, p1, o1, o1, "STANDARD",
                      TripleContext::kDirect, false);
  (void)links_.Insert(1, s1, p2, o2, o2, "STANDARD",
                      TripleContext::kDirect, false);
  (void)links_.Insert(1, s2, p2, o2, o2, "STANDARD",
                      TripleContext::kDirect, false);

  EXPECT_EQ(links_.Match(1, s1, std::nullopt, std::nullopt).size(), 2u);
  EXPECT_EQ(links_.Match(1, std::nullopt, p2, std::nullopt).size(), 2u);
  EXPECT_EQ(links_.Match(1, std::nullopt, std::nullopt, o2).size(), 2u);
  EXPECT_EQ(links_.Match(1, s1, p2, std::nullopt).size(), 1u);
  EXPECT_EQ(links_.Match(1, std::nullopt, std::nullopt, std::nullopt).size(),
            3u);
  EXPECT_TRUE(links_.Match(2, std::nullopt, std::nullopt, std::nullopt)
                  .empty());
  EXPECT_TRUE(links_.Match(1, s2, p1, std::nullopt).empty());
}

TEST_F(LinkStoreTest, MatchEachStreamsAndStopsEarly) {
  ValueId s = V("s"), p = V("p");
  for (int i = 0; i < 10; ++i) {
    ValueId o = V("o" + std::to_string(i));
    (void)links_.Insert(1, s, p, o, o, "STANDARD",
                        TripleContext::kDirect, false);
  }
  size_t visited = 0;
  links_.MatchEach(1, s, std::nullopt, std::nullopt,
                   [&](const LinkRow&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3u);
  // Streaming and materializing agree on the full result.
  size_t streamed = 0;
  links_.MatchEach(1, s, std::nullopt, std::nullopt,
                   [&](const LinkRow&) {
                     ++streamed;
                     return true;
                   });
  EXPECT_EQ(streamed,
            links_.Match(1, s, std::nullopt, std::nullopt).size());
}

TEST_F(LinkStoreTest, MatchUsesCanonicalObject) {
  ValueId s = V("s"), p = V("p");
  ValueId o_raw =
      *values_.LookupOrInsert(Term::TypedLiteral("+025", "xsd-int"));
  ValueId o_canon =
      *values_.LookupOrInsert(Term::TypedLiteral("25", "xsd-int"));
  (void)links_.Insert(1, s, p, o_raw, o_canon, "STANDARD",
                      TripleContext::kDirect, false);
  auto hits = links_.Match(1, std::nullopt, std::nullopt, o_canon);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].end_node_id, o_raw);
  EXPECT_TRUE(links_.Match(1, std::nullopt, std::nullopt, o_raw).empty());
}

TEST_F(LinkStoreTest, InLinksOfNonCanonicalObject) {
  // A non-canonical literal's in-links are posted under its canonical
  // VALUE_ID; the network still tells the two nodes apart.
  const std::string xsd_int = "http://www.w3.org/2001/XMLSchema#integer";
  ValueId s1 = V("s1"), s2 = V("s2"), p = V("p");
  ValueId o_raw = *values_.LookupOrInsert(Term::TypedLiteral("+025", xsd_int));
  ValueId o_canon =
      *values_.LookupOrInsert(Term::TypedLiteral("25", xsd_int));
  auto raw = links_.Insert(1, s1, p, o_raw, o_canon, "STANDARD",
                           TripleContext::kDirect, false);
  auto canon = links_.Insert(1, s2, p, o_canon, o_canon, "STANDARD",
                             TripleContext::kDirect, false);
  std::vector<ndm::Link> in_raw = NetLinks(o_raw, ndm::Direction::kIncoming);
  ASSERT_EQ(in_raw.size(), 1u);
  EXPECT_EQ(in_raw[0].id, raw->row.link_id);
  std::vector<ndm::Link> in_canon =
      NetLinks(o_canon, ndm::Direction::kIncoming);
  ASSERT_EQ(in_canon.size(), 1u);
  EXPECT_EQ(in_canon[0].id, canon->row.link_id);
  // Deleting the canonical triple orphans only its own endpoints.
  ASSERT_TRUE(links_.Delete(1, s2, p, o_canon).ok());
  EXPECT_FALSE(links_.HasNode(o_canon));
  EXPECT_TRUE(links_.HasNode(o_raw));
  EXPECT_EQ(NodeRows(), 2u);
}

TEST_F(LinkStoreTest, DeleteDecrementsCostThenRemoves) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.Delete(1, s, p, o).ok());
  EXPECT_EQ(links_.TripleCount(1), 1u);  // still referenced once
  EXPECT_EQ(links_.Find(1, s, p, o)->cost, 1);
  ASSERT_TRUE(links_.Delete(1, s, p, o).ok());
  EXPECT_EQ(links_.TripleCount(1), 0u);
  EXPECT_FALSE(links_.Find(1, s, p, o).has_value());
  EXPECT_TRUE(links_.Delete(1, s, p, o).IsNotFound());
}

TEST_F(LinkStoreTest, DeleteRemovesOrphanedNodesOnly) {
  // "The nodes attached to this link are not removed if there are other
  // links connected to them."
  ValueId s = V("s"), p = V("p"), o1 = V("o1"), o2 = V("o2");
  (void)links_.Insert(1, s, p, o1, o1, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, s, p, o2, o2, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.Delete(1, s, p, o1).ok());
  EXPECT_TRUE(links_.HasNode(s));    // still used by the second triple
  EXPECT_FALSE(links_.HasNode(o1));  // orphaned -> removed
  EXPECT_TRUE(links_.HasNode(o2));
  EXPECT_EQ(NodeRows(), 2u);
  EXPECT_TRUE(NetLinks(o1, ndm::Direction::kBoth).empty());
}

TEST_F(LinkStoreTest, ForceDeleteIgnoresCost) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.Delete(1, s, p, o, /*force=*/true).ok());
  EXPECT_FALSE(links_.Find(1, s, p, o).has_value());
}

TEST_F(LinkStoreTest, DeleteModelRemovesEverything) {
  ValueId s = V("s"), p = V("p"), o = V("o");
  (void)links_.Insert(1, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(1, o, p, s, s, "STANDARD", TripleContext::kDirect,
                      false);
  (void)links_.Insert(2, s, p, o, o, "STANDARD", TripleContext::kDirect,
                      false);
  ASSERT_TRUE(links_.DeleteModel(1).ok());
  EXPECT_EQ(links_.TripleCount(1), 0u);
  EXPECT_EQ(links_.TripleCount(2), 1u);
  EXPECT_EQ(links_.link_count(), 1u);
  // Both nodes are still endpoints of model 2's triple.
  EXPECT_EQ(NodeRows(), 2u);
  EXPECT_EQ(NetLinks(o, ndm::Direction::kIncoming).size(), 1u);
}

TEST_F(LinkStoreTest, ScanModel) {
  ValueId s = V("s"), p = V("p");
  for (int i = 0; i < 5; ++i) {
    (void)links_.Insert(3, s, p, V("o" + std::to_string(i)),
                        V("o" + std::to_string(i)), "STANDARD",
                        TripleContext::kDirect, false);
  }
  size_t count = 0;
  links_.ScanModel(3, [&](const LinkRow& row) {
    EXPECT_EQ(row.model_id, 3);
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5u);
  // Early stop.
  count = 0;
  links_.ScanModel(3, [&](const LinkRow&) { return ++count < 2; });
  EXPECT_EQ(count, 2u);
}

TEST(ClassifyPredicateTest, LinkTypes) {
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfType)), "RDF_TYPE");
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfNs) + "_1"), "RDF_MEMBER");
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfLi)), "RDF_MEMBER");
  EXPECT_EQ(ClassifyPredicate(std::string(kRdfSubject)), "RDF_*");
  EXPECT_EQ(ClassifyPredicate("http://www.us.gov#terrorSuspect"),
            "STANDARD");
}

}  // namespace
}  // namespace rdfdb::rdf
