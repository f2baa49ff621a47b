#include "query/match.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/ic_dataset.h"

namespace rdfdb::query {
namespace {

using gen::BuildIcScenario;
using gen::IcScenario;

class MatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto scenario = BuildIcScenario(&store_);
    ASSERT_TRUE(scenario.ok());
    scenario_ = *scenario;
    engine_ = std::make_unique<InferenceEngine>(&store_);
  }

  std::set<std::string> Names(const MatchResult& result) {
    std::set<std::string> names;
    for (size_t i = 0; i < result.row_count(); ++i) {
      names.insert(result.Get(i, "name"));
    }
    return names;
  }

  rdf::RdfStore store_;
  IcScenario scenario_;
  std::unique_ptr<InferenceEngine> engine_;
};

TEST_F(MatchTest, SingleModelQuery) {
  auto result = SdoRdfMatch(&store_, nullptr,
                            "(gov:files gov:terrorSuspect ?name)", {"cia"},
                            {}, scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(), std::vector<std::string>{"name"});
  EXPECT_EQ(Names(*result),
            (std::set<std::string>{"http://www.us.id#JohnDoe",
                                   "http://www.us.id#JaneDoe"}));
}

TEST_F(MatchTest, CrossModelUnionDeduplicatesNothing) {
  // JohnDoe appears in all three models; the union yields one row per
  // matching triple (3 for JohnDoe + 1 for JaneDoe).
  auto result = SdoRdfMatch(&store_, nullptr,
                            "(gov:files gov:terrorSuspect ?name)",
                            {"cia", "dhs", "fbi"}, {}, scenario_.aliases,
                            "");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count(), 4u);
  EXPECT_EQ(Names(*result).size(), 2u);
}

TEST_F(MatchTest, LiteralObjectPattern) {
  auto result =
      SdoRdfMatch(&store_, nullptr, "(?x gov:terrorAction \"bombing\")",
                  {"dhs"}, {}, scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->row_count(), 1u);
  EXPECT_EQ(result->Get(0, "x"), "http://www.us.id#JimDoe");
}

TEST_F(MatchTest, InferenceWithIntelRulebase) {
  // Figure 8 end-to-end: rulebase + rules index + cross-model query.
  ASSERT_TRUE(engine_->CreateRulebase("intel_rb").ok());
  Rule rule;
  rule.name = "intel_rule";
  rule.antecedent = "(?x gov:terrorAction \"bombing\")";
  rule.consequent = "(gov:files gov:terrorSuspect ?x)";
  rule.aliases = scenario_.aliases;
  ASSERT_TRUE(engine_->InsertRule("intel_rb", rule).ok());
  auto index = engine_->CreateRulesIndex(
      "rdfs_rix_intel", {"cia", "dhs", "fbi"}, {"RDFS", "intel_rb"});
  ASSERT_TRUE(index.ok());

  auto result = SdoRdfMatch(&store_, engine_.get(),
                            "(gov:files gov:terrorSuspect ?name)",
                            {"cia", "dhs", "fbi"}, {"RDFS", "intel_rb"},
                            scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  // "Through inference ... JimDoe is now considered a terror suspect.
  // Known terror suspects JohnDoe and JaneDoe are also returned."
  EXPECT_EQ(Names(*result),
            (std::set<std::string>{"http://www.us.id#JohnDoe",
                                   "http://www.us.id#JaneDoe",
                                   "http://www.us.id#JimDoe"}));
}

TEST_F(MatchTest, InferenceWorksWithoutIndexOnTheFly) {
  ASSERT_TRUE(engine_->CreateRulebase("intel_rb").ok());
  Rule rule;
  rule.name = "intel_rule";
  rule.antecedent = "(?x gov:terrorAction \"bombing\")";
  rule.consequent = "(gov:files gov:terrorSuspect ?x)";
  rule.aliases = scenario_.aliases;
  ASSERT_TRUE(engine_->InsertRule("intel_rb", rule).ok());
  // No CreateRulesIndex call: match must compute entailment itself.
  auto result = SdoRdfMatch(&store_, engine_.get(),
                            "(gov:files gov:terrorSuspect ?name)",
                            {"cia", "dhs", "fbi"}, {"RDFS", "intel_rb"},
                            scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Names(*result).size(), 3u);
}

TEST_F(MatchTest, JoinWithRelationalTable) {
  // The SELECT in Figure 8 joins match output to ic.address.
  auto result = SdoRdfMatch(&store_, nullptr,
                            "(gov:files gov:terrorSuspect ?name)",
                            {"cia", "dhs", "fbi"}, {}, scenario_.aliases,
                            "");
  ASSERT_TRUE(result.ok());
  const storage::Index* index =
      scenario_.address_table->GetIndex("addr_name_idx");
  std::set<std::string> locations;
  for (size_t i = 0; i < result->row_count(); ++i) {
    auto rows = index->Find(
        {storage::Value::String(result->Get(i, "name"))});
    for (storage::RowId rid : rows) {
      locations.insert(
          (*scenario_.address_table->Get(rid))[1].as_string());
    }
  }
  EXPECT_EQ(locations, (std::set<std::string>{"Brooklyn, NY"}));
}

TEST_F(MatchTest, MultiPatternJoin) {
  auto result = SdoRdfMatch(
      &store_, nullptr,
      "(gov:files gov:terrorSuspect ?name) (?name gov:enteredCountry ?d)",
      {"cia", "fbi"}, {}, scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(),
            (std::vector<std::string>{"name", "d"}));
  // JohnDoe entered on June-20-2000 (fbi model); suspect rows come from
  // cia and fbi -> two solutions, same display values.
  ASSERT_GE(result->row_count(), 1u);
  for (size_t i = 0; i < result->row_count(); ++i) {
    EXPECT_EQ(result->Get(i, "name"), "http://www.us.id#JohnDoe");
    EXPECT_EQ(result->Get(i, "d"), "June-20-2000");
  }
}

TEST_F(MatchTest, FilterRestrictsRows) {
  auto result = SdoRdfMatch(&store_, nullptr,
                            "(gov:files gov:terrorSuspect ?name)",
                            {"cia"}, {}, scenario_.aliases,
                            "?name != \"http://www.us.id#JohnDoe\"");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Names(*result),
            (std::set<std::string>{"http://www.us.id#JaneDoe"}));
}

TEST_F(MatchTest, VariablePredicate) {
  auto result = SdoRdfMatch(&store_, nullptr, "(id:JimDoe ?p ?o)", {"dhs"},
                            {}, scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->row_count(), 1u);
  EXPECT_EQ(result->Get(0, "p"), "http://www.us.gov#terrorAction");
  EXPECT_EQ(result->Get(0, "o"), "bombing");
}

TEST_F(MatchTest, CanonicalLiteralMatching) {
  // The CANON_END_NODE_ID machinery end-to-end: a query constant in one
  // lexical form matches a stored triple in another.
  ASSERT_TRUE(
      store_
          .InsertTriple("cia", "http://www.us.id#JohnDoe",
                        "http://www.us.gov#age", "\"+025\"^^xsd:int")
          .ok());
  auto result = SdoRdfMatch(
      &store_, nullptr, "(?who gov:age \"25\"^^xsd:int)", {"cia"}, {},
      scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->row_count(), 1u);
  EXPECT_EQ(result->Get(0, "who"), "http://www.us.id#JohnDoe");
  // Bound object variables carry the canonical form.
  auto bound = SdoRdfMatch(&store_, nullptr,
                           "(id:JohnDoe gov:age ?age)", {"cia"}, {},
                           scenario_.aliases, "");
  ASSERT_TRUE(bound.ok());
  ASSERT_EQ(bound->row_count(), 1u);
  EXPECT_EQ(bound->Get(0, "age"), "25");
}

TEST_F(MatchTest, FilterOnNumericTypedLiteral) {
  // InsertTriple takes full URIs; alias expansion is a query-side
  // convenience.
  ASSERT_TRUE(store_
                  .InsertTriple("cia", "http://www.us.id#JohnDoe",
                                "http://www.us.gov#age",
                                "\"34\"^^xsd:int")
                  .ok());
  ASSERT_TRUE(store_
                  .InsertTriple("cia", "http://www.us.id#JaneDoe",
                                "http://www.us.gov#age",
                                "\"9\"^^xsd:int")
                  .ok());
  auto result = SdoRdfMatch(&store_, nullptr, "(?who gov:age ?age)",
                            {"cia"}, {}, scenario_.aliases, "?age > 18");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->row_count(), 1u);
  EXPECT_EQ(result->Get(0, "who"), "http://www.us.id#JohnDoe");
}

TEST_F(MatchTest, ErrorCases) {
  EXPECT_TRUE(SdoRdfMatch(&store_, nullptr, "(?x ?p ?o)", {}, {},
                          scenario_.aliases, "")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SdoRdfMatch(&store_, nullptr, "(?x ?p ?o)", {"ghost"}, {},
                          scenario_.aliases, "")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(SdoRdfMatch(&store_, nullptr, "not a query", {"cia"}, {},
                          scenario_.aliases, "")
                  .status()
                  .IsInvalidArgument());
  // Rulebases without an engine.
  EXPECT_TRUE(SdoRdfMatch(&store_, nullptr, "(?x ?p ?o)", {"cia"},
                          {"RDFS"}, scenario_.aliases, "")
                  .status()
                  .IsInvalidArgument());
  // Unknown rulebase.
  EXPECT_TRUE(SdoRdfMatch(&store_, engine_.get(), "(?x ?p ?o)", {"cia"},
                          {"ghost_rb"}, scenario_.aliases, "")
                  .status()
                  .IsNotFound());
}

TEST_F(MatchTest, ResultAccessors) {
  auto result = SdoRdfMatch(&store_, nullptr,
                            "(gov:files gov:terrorSuspect ?name)", {"cia"},
                            {}, scenario_.aliases, "");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ColumnIndex("name"), 0);
  EXPECT_EQ(result->ColumnIndex("ghost"), -1);
  EXPECT_EQ(result->Get(0, "ghost"), "");
  EXPECT_EQ(result->Get(99, "name"), "");
  std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("?name"), std::string::npos);
  EXPECT_NE(rendered.find("JohnDoe"), std::string::npos);
}

TEST_F(MatchTest, ProjectionDistinctAndLimit) {
  MatchOptions options;
  options.projection = {"name"};
  options.distinct = true;
  // JohnDoe appears in 3 models, JaneDoe in 1: DISTINCT collapses to 2.
  auto result = SdoRdfMatch(&store_, nullptr,
                            "(?src gov:terrorSuspect ?name)",
                            {"cia", "dhs", "fbi"}, {}, scenario_.aliases,
                            "", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns(), std::vector<std::string>{"name"});
  EXPECT_EQ(result->row_count(), 2u);

  // LIMIT caps the row count.
  MatchOptions limited;
  limited.limit = 1;
  auto one = SdoRdfMatch(&store_, nullptr,
                         "(?src gov:terrorSuspect ?name)",
                         {"cia", "dhs", "fbi"}, {}, scenario_.aliases, "",
                         limited);
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->row_count(), 1u);

  // Unknown projection variable is an error.
  MatchOptions bad;
  bad.projection = {"ghost"};
  EXPECT_TRUE(SdoRdfMatch(&store_, nullptr,
                          "(?src gov:terrorSuspect ?name)", {"cia"}, {},
                          scenario_.aliases, "", bad)
                  .status()
                  .IsInvalidArgument());
}

TEST(MatchDistinctTest, ManyDistinctRowsEachKeptOnce) {
  // Enough distinct rows that DISTINCT's seen-set grows several times
  // while duplicates of early rows keep arriving.
  rdf::RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("d", "d_app", "triple").ok());
  for (int s = 0; s < 300; ++s) {
    for (int p = 0; p < 3; ++p) {
      ASSERT_TRUE(store
                      .InsertTriple("d", "ex:s" + std::to_string(s),
                                    "ex:p" + std::to_string(p),
                                    "ex:o" + std::to_string(s % 100))
                      .ok());
    }
  }
  MatchOptions options;
  options.distinct = true;
  options.projection = {"p", "o"};
  auto pairs = SdoRdfMatch(&store, nullptr, "(?s ?p ?o)", {"d"}, {}, {}, "",
                           options);
  ASSERT_TRUE(pairs.ok()) << pairs.status().ToString();
  std::set<std::string> seen;
  for (size_t r = 0; r < pairs->row_count(); ++r) {
    seen.insert(pairs->Get(r, "p") + " " + pairs->Get(r, "o"));
  }
  EXPECT_EQ(pairs->row_count(), 300u);
  EXPECT_EQ(seen.size(), 300u);

  options.projection = {"o"};
  auto objects = SdoRdfMatch(&store, nullptr, "(?s ?p ?o)", {"d"}, {}, {},
                             "", options);
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(objects->row_count(), 100u);
}

TEST_F(MatchTest, EngineRulebaseManagement) {
  EXPECT_TRUE(engine_->CreateRulebase("rb1").ok());
  EXPECT_TRUE(engine_->CreateRulebase("rb1").IsAlreadyExists());
  EXPECT_TRUE(engine_->CreateRulebase("RDFS").IsAlreadyExists());
  EXPECT_EQ(engine_->RulebaseNames(), std::vector<std::string>{"rb1"});
  // The rule table exists (the paper's mdsys.rdfr_<rb>).
  EXPECT_NE(store_.database().GetTable("MDSYS", "RDFR_RB1"), nullptr);
  ASSERT_TRUE(engine_->DropRulebase("rb1").ok());
  EXPECT_TRUE(engine_->DropRulebase("rb1").IsNotFound());
  EXPECT_EQ(store_.database().GetTable("MDSYS", "RDFR_RB1"), nullptr);
}

TEST_F(MatchTest, EngineRuleRowsPersisted) {
  ASSERT_TRUE(engine_->CreateRulebase("intel_rb").ok());
  Rule rule;
  rule.name = "intel_rule";
  rule.antecedent = "(?x gov:terrorAction \"bombing\")";
  rule.filter = "";
  rule.consequent = "(gov:files gov:terrorSuspect ?x)";
  rule.aliases = scenario_.aliases;
  ASSERT_TRUE(engine_->InsertRule("intel_rb", rule).ok());
  storage::Table* table =
      store_.database().GetTable("MDSYS", "RDFR_INTEL_RB");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->row_count(), 1u);
  // Invalid rules are rejected and not persisted.
  Rule bad = rule;
  bad.name = "bad";
  bad.consequent = "(?unbound gov:p ?x)";
  EXPECT_FALSE(engine_->InsertRule("intel_rb", bad).ok());
  EXPECT_EQ(table->row_count(), 1u);
  EXPECT_TRUE(engine_->InsertRule("ghost", rule).IsNotFound());
}

TEST_F(MatchTest, RulesIndexIsASnapshotUntilRebuilt) {
  // CREATE_RULES_INDEX "pre-computes triples": like the paper's index it
  // reflects the data at build time. New base triples still flow into
  // results (the base source is live); new *entailments* require a
  // rebuild.
  ASSERT_TRUE(engine_->CreateRulebase("intel_rb").ok());
  Rule rule;
  rule.name = "intel_rule";
  rule.antecedent = "(?x gov:terrorAction \"bombing\")";
  rule.consequent = "(gov:files gov:terrorSuspect ?x)";
  rule.aliases = scenario_.aliases;
  ASSERT_TRUE(engine_->InsertRule("intel_rb", rule).ok());
  ASSERT_TRUE(engine_
                  ->CreateRulesIndex("rix", {"cia", "dhs", "fbi"},
                                     {"intel_rb"})
                  .ok());

  // A new bomber inserted after the index was built.
  ASSERT_TRUE(store_
                  .InsertTriple("dhs", "http://www.us.id#NewGuy",
                                "http://www.us.gov#terrorAction",
                                "bombing")
                  .ok());
  auto stale = SdoRdfMatch(&store_, engine_.get(),
                           "(gov:files gov:terrorSuspect ?name)",
                           {"cia", "dhs", "fbi"}, {"intel_rb"},
                           scenario_.aliases, "");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(Names(*stale).count("http://www.us.id#NewGuy"), 0u);

  // Rebuild picks the new entailment up.
  ASSERT_TRUE(engine_->DropRulesIndex("rix").ok());
  ASSERT_TRUE(engine_
                  ->CreateRulesIndex("rix", {"cia", "dhs", "fbi"},
                                     {"intel_rb"})
                  .ok());
  auto fresh = SdoRdfMatch(&store_, engine_.get(),
                           "(gov:files gov:terrorSuspect ?name)",
                           {"cia", "dhs", "fbi"}, {"intel_rb"},
                           scenario_.aliases, "");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(Names(*fresh).count("http://www.us.id#NewGuy"), 1u);
}

TEST_F(MatchTest, EngineRulesIndexManagement) {
  auto index = engine_->CreateRulesIndex("rix", {"cia"}, {"RDFS"});
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE(engine_->CreateRulesIndex("rix", {"cia"}, {"RDFS"})
                  .status()
                  .IsAlreadyExists());
  EXPECT_EQ(engine_->FindCoveringIndex({"cia"}, {"RDFS"}), *index);
  EXPECT_EQ(engine_->FindCoveringIndex({"dhs"}, {"RDFS"}), nullptr);
  ASSERT_TRUE(engine_->DropRulesIndex("rix").ok());
  EXPECT_EQ(engine_->FindCoveringIndex({"cia"}, {"RDFS"}), nullptr);
  EXPECT_TRUE(engine_->DropRulesIndex("rix").IsNotFound());
}

}  // namespace
}  // namespace rdfdb::query
