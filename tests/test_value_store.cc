#include "rdf/value_store.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "rdf/vocab.h"

namespace rdfdb::rdf {
namespace {

class ValueStoreTest : public ::testing::Test {
 protected:
  storage::Database db_{"ORADB"};
  ValueStore store_{&db_};
};

TEST_F(ValueStoreTest, InsertAssignsIdAndDeduplicates) {
  // "Each text entry is uniquely stored."
  auto id1 = store_.LookupOrInsert(Term::Uri("http://a"));
  ASSERT_TRUE(id1.ok());
  auto id2 = store_.LookupOrInsert(Term::Uri("http://a"));
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id1, *id2);
  EXPECT_EQ(store_.value_count(), 1u);
  auto id3 = store_.LookupOrInsert(Term::Uri("http://b"));
  EXPECT_NE(*id1, *id3);
  EXPECT_EQ(store_.value_count(), 2u);
}

TEST_F(ValueStoreTest, LookupWithoutInsert) {
  EXPECT_FALSE(store_.Lookup(Term::Uri("http://missing")).has_value());
  auto id = store_.LookupOrInsert(Term::Uri("http://there"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store_.Lookup(Term::Uri("http://there")).value(), *id);
}

TEST_F(ValueStoreTest, DistinguishesKindsWithSameLexical) {
  auto uri = store_.LookupOrInsert(Term::Uri("x"));
  auto plain = store_.LookupOrInsert(Term::PlainLiteral("x"));
  auto lang = store_.LookupOrInsert(Term::PlainLiteralLang("x", "en"));
  auto lang2 = store_.LookupOrInsert(Term::PlainLiteralLang("x", "de"));
  auto typed = store_.LookupOrInsert(
      Term::TypedLiteral("x", std::string(kXsdString)));
  std::set<ValueId> ids{*uri, *plain, *lang, *lang2, *typed};
  EXPECT_EQ(ids.size(), 5u);
}

TEST_F(ValueStoreTest, RoundTripsAllTermKinds) {
  const Term terms[] = {
      Term::Uri("http://example.org/x"),
      Term::PlainLiteral("plain text"),
      Term::PlainLiteralLang("bonjour", "fr"),
      Term::TypedLiteral("25", std::string(kXsdInt)),
  };
  for (const Term& term : terms) {
    auto id = store_.LookupOrInsert(term);
    ASSERT_TRUE(id.ok());
    auto back = store_.GetTerm(*id);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, term) << term.ToNTriples();
  }
}

TEST_F(ValueStoreTest, LongLiteralSpillsToLongValue) {
  std::string big(kLongLiteralThreshold + 500, 'y');
  Term term = Term::PlainLiteral(big);
  auto id = store_.LookupOrInsert(term);
  ASSERT_TRUE(id.ok());
  auto back = store_.GetTerm(*id);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->lexical(), big);
  EXPECT_STREQ(back->TypeCode(), "PLL");
  auto text = store_.GetText(*id);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(*text, big);
  // Dedup works through the fingerprint.
  auto again = store_.LookupOrInsert(Term::PlainLiteral(big));
  EXPECT_EQ(*again, *id);
}

TEST_F(ValueStoreTest, TypedLongLiteral) {
  std::string big(kLongLiteralThreshold + 1, 'z');
  Term term = Term::TypedLiteral(big, std::string(kXsdString));
  auto id = store_.LookupOrInsert(term);
  ASSERT_TRUE(id.ok());
  auto code = store_.GetTypeCode(*id);
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, "TLL");
}

TEST_F(ValueStoreTest, BlankNodesRejectedFromGlobalPath) {
  EXPECT_TRUE(store_.LookupOrInsert(Term::BlankNode("b"))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ValueStoreTest, BlankNodesAreModelScoped) {
  auto m1 = store_.LookupOrInsertBlank(1, "node1");
  ASSERT_TRUE(m1.ok());
  auto m1_again = store_.LookupOrInsertBlank(1, "node1");
  ASSERT_TRUE(m1_again.ok());
  EXPECT_EQ(*m1, *m1_again);  // stable within a model
  auto m2 = store_.LookupOrInsertBlank(2, "node1");
  ASSERT_TRUE(m2.ok());
  EXPECT_NE(*m1, *m2);  // same label, different model -> different node
}

TEST_F(ValueStoreTest, BlankLookupWithoutInsert) {
  EXPECT_FALSE(store_.LookupBlank(1, "ghost").has_value());
  auto id = store_.LookupOrInsertBlank(1, "ghost");
  EXPECT_EQ(store_.LookupBlank(1, "ghost").value(), *id);
  EXPECT_FALSE(store_.LookupBlank(2, "ghost").has_value());
}

TEST_F(ValueStoreTest, BlankNodeRoundTripsAsBlank) {
  auto id = store_.LookupOrInsertBlank(7, "ann1");
  auto back = store_.GetTerm(*id);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_blank());
  auto code = store_.GetTypeCode(*id);
  EXPECT_EQ(*code, "BN");
}

TEST_F(ValueStoreTest, GetTermUnknownIdFails) {
  EXPECT_TRUE(store_.GetTerm(999999).status().IsNotFound());
  EXPECT_TRUE(store_.GetText(999999).status().IsNotFound());
  EXPECT_TRUE(store_.GetTypeCode(999999).status().IsNotFound());
}

TEST_F(ValueStoreTest, TypeCodesMatchPaperTable) {
  struct Case {
    Term term;
    const char* code;
  };
  std::string big(kLongLiteralThreshold + 1, 'q');
  const Case cases[] = {
      {Term::Uri("u"), "UR"},
      {Term::PlainLiteral("p"), "PL"},
      {Term::PlainLiteralLang("p", "en"), "PL@"},
      {Term::TypedLiteral("1", std::string(kXsdInt)), "TL"},
      {Term::PlainLiteral(big), "PLL"},
      {Term::TypedLiteral(big, std::string(kXsdString)), "TLL"},
  };
  for (const Case& c : cases) {
    auto id = store_.LookupOrInsert(c.term);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*store_.GetTypeCode(*id), c.code);
  }
}

TEST_F(ValueStoreTest, ReattachesToExistingTables) {
  auto id = store_.LookupOrInsert(Term::Uri("http://persist"));
  ASSERT_TRUE(id.ok());
  // Every term kind, including long literals and blank nodes that share
  // a label across models, rebuilds to the same dictionary entry.
  std::string big(kLongLiteralThreshold + 7, 'r');
  const Term terms[] = {
      Term::PlainLiteral("plain \"quoted\"\n"),
      Term::PlainLiteralLang("bonjour", "fr"),
      Term::TypedLiteral("25", std::string(kXsdInt)),
      Term::PlainLiteral(big),
      Term::PlainLiteralLang(big, "en"),
      Term::TypedLiteral(big, std::string(kXsdString)),
  };
  std::vector<ValueId> ids{*id};
  for (const Term& term : terms) ids.push_back(*store_.LookupOrInsert(term));
  const ValueId b1 = *store_.LookupOrInsertBlank(1, "shared");
  const ValueId b2 = *store_.LookupOrInsertBlank(2, "shared");
  ids.push_back(b1);
  ids.push_back(b2);

  ValueStore second(&db_);  // same database: must see the same rows
  EXPECT_EQ(second.Lookup(Term::Uri("http://persist")).value(), *id);
  for (ValueId value_id : ids) {
    std::string before, after;
    ASSERT_TRUE(store_.AppendNTriples(value_id, &before).ok());
    ASSERT_TRUE(second.AppendNTriples(value_id, &after).ok());
    EXPECT_EQ(after, before) << value_id;
    EXPECT_EQ(*second.GetTypeCode(value_id), *store_.GetTypeCode(value_id));
  }
  for (const Term& term : terms) {
    EXPECT_EQ(second.Lookup(term), store_.Lookup(term));
  }
  EXPECT_EQ(second.LookupBlank(1, "shared"), b1);
  EXPECT_EQ(second.LookupBlank(2, "shared"), b2);
  EXPECT_EQ(second.LookupBlankLabel(b1), std::make_pair(int64_t{1},
                                                        std::string("shared")));
  EXPECT_EQ(second.LookupBlankLabel(b2), std::make_pair(int64_t{2},
                                                        std::string("shared")));
}

}  // namespace
}  // namespace rdfdb::rdf
