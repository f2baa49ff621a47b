#include "query/rules_index.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "query/exec.h"
#include "rdf/vocab.h"

namespace rdfdb::query {
namespace {

using rdf::RdfStore;
using rdf::Term;
using rdf::ValueId;

TEST(TripleSetTest, AddDeduplicates) {
  TripleSet set;
  EXPECT_TRUE(set.Add({1, 2, 3, 3}));
  EXPECT_FALSE(set.Add({1, 2, 3, 3}));
  EXPECT_TRUE(set.Add({1, 2, 4, 4}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.Contains(1, 2, 3));
  EXPECT_FALSE(set.Contains(1, 2, 5));
}

TEST(TripleSetTest, MatchByEachPosition) {
  TripleSet set;
  set.Add({1, 10, 100, 100});
  set.Add({1, 11, 101, 101});
  set.Add({2, 10, 100, 100});
  auto count = [&](std::optional<ValueId> s, std::optional<ValueId> p,
                   std::optional<ValueId> o) {
    size_t n = 0;
    set.Match(s, p, o, [&](const IdTriple&) {
      ++n;
      return true;
    });
    return n;
  };
  EXPECT_EQ(count(1, std::nullopt, std::nullopt), 2u);
  EXPECT_EQ(count(std::nullopt, 10, std::nullopt), 2u);
  EXPECT_EQ(count(std::nullopt, std::nullopt, 100), 2u);
  EXPECT_EQ(count(1, 10, std::nullopt), 1u);
  EXPECT_EQ(count(std::nullopt, std::nullopt, std::nullopt), 3u);
  EXPECT_EQ(count(9, std::nullopt, std::nullopt), 0u);
}

TEST(TripleSetTest, MatchEarlyStop) {
  TripleSet set;
  for (int i = 0; i < 10; ++i) set.Add({1, 2, i, i});
  size_t n = 0;
  set.Match(1, std::nullopt, std::nullopt, [&](const IdTriple&) {
    return ++n < 3;
  });
  EXPECT_EQ(n, 3u);
}

class EntailmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("kb", "kbdata", "triple").ok());
    model_ = *store_.GetModelId("kb");
  }

  void Add(const std::string& s, const std::string& p,
           const std::string& o) {
    ASSERT_TRUE(store_.InsertTriple("kb", s, p, o).ok());
  }

  /// Solutions of `query` over the "kb" model from the compiled
  /// executor, one variable -> VALUE_ID map each.
  std::vector<std::map<std::string, ValueId>> Solve(const std::string& query,
                                                    bool reorder = true) {
    auto patterns = ParsePatterns(query, {});
    EXPECT_TRUE(patterns.ok()) << patterns.status().ToString();
    if (!patterns.ok()) return {};
    ModelSource base(&store_, {model_});
    CompiledPlan plan = CompilePatterns(store_, *patterns, nullptr, base,
                                        reorder, /*trace=*/nullptr);
    std::vector<std::map<std::string, ValueId>> solutions;
    Status st = ExecutePlan(store_, plan, base, [&](const ValueId* slots) {
      std::map<std::string, ValueId>& row = solutions.emplace_back();
      for (size_t i = 0; i < plan.slot_count(); ++i) {
        row[plan.vars[i]] = slots[i];
      }
      return true;
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return solutions;
  }

  bool Inferred(const TripleSet& set, const std::string& s,
                const std::string& p, const std::string& o) {
    auto s_id = store_.values().Lookup(Term::Uri(s));
    auto p_id = store_.values().Lookup(Term::Uri(p));
    auto o_id = store_.values().Lookup(Term::Uri(o));
    if (!s_id || !p_id || !o_id) return false;
    return set.Contains(*s_id, *p_id, *o_id);
  }

  RdfStore store_;
  rdf::ModelId model_ = 0;
};

TEST_F(EntailmentTest, Rdfs9SubClassInstances) {
  Add("ex:Dog", std::string(rdf::kRdfsSubClassOf), "ex:Animal");
  Add("ex:rex", std::string(rdf::kRdfType), "ex:Dog");
  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  size_t rounds = 0;
  auto inferred = ComputeEntailment(&store_, base, rbs, &rounds);
  ASSERT_TRUE(inferred.ok());
  EXPECT_TRUE(
      Inferred(*inferred, "ex:rex", std::string(rdf::kRdfType),
               "ex:Animal"));
  EXPECT_GE(rounds, 2u);  // at least one productive round + fixpoint check
}

TEST_F(EntailmentTest, Rdfs11SubClassTransitivity) {
  Add("ex:A", std::string(rdf::kRdfsSubClassOf), "ex:B");
  Add("ex:B", std::string(rdf::kRdfsSubClassOf), "ex:C");
  Add("ex:C", std::string(rdf::kRdfsSubClassOf), "ex:D");
  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto inferred = ComputeEntailment(&store_, base, rbs, nullptr);
  ASSERT_TRUE(inferred.ok());
  // Transitive closure needs chained rounds: A subClassOf D.
  EXPECT_TRUE(Inferred(*inferred, "ex:A",
                       std::string(rdf::kRdfsSubClassOf), "ex:D"));
}

TEST_F(EntailmentTest, Rdfs2DomainAndRdfs3Range) {
  Add("ex:hasPet", std::string(rdf::kRdfsDomain), "ex:Person");
  Add("ex:hasPet", std::string(rdf::kRdfsRange), "ex:Animal");
  Add("ex:alice", "ex:hasPet", "ex:rex");
  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto inferred = ComputeEntailment(&store_, base, rbs, nullptr);
  ASSERT_TRUE(inferred.ok());
  EXPECT_TRUE(Inferred(*inferred, "ex:alice",
                       std::string(rdf::kRdfType), "ex:Person"));
  EXPECT_TRUE(Inferred(*inferred, "ex:rex", std::string(rdf::kRdfType),
                       "ex:Animal"));
}

TEST_F(EntailmentTest, Rdfs3SkipsLiteralObjects) {
  Add("ex:name", std::string(rdf::kRdfsRange), "ex:NameClass");
  ASSERT_TRUE(store_.InsertTriple("kb", "ex:alice", "ex:name",
                                  "\"Alice\"")
                  .ok());
  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto inferred = ComputeEntailment(&store_, base, rbs, nullptr);
  ASSERT_TRUE(inferred.ok());
  // No triple with a literal subject was inferred.
  for (const IdTriple& t : inferred->triples()) {
    auto code = store_.values().GetTypeCode(t.s);
    ASSERT_TRUE(code.ok());
    EXPECT_TRUE(*code == "UR" || *code == "BN");
  }
}

TEST_F(EntailmentTest, Rdfs7SubPropertyInheritance) {
  Add("ex:hasMother", std::string(rdf::kRdfsSubPropertyOf),
      "ex:hasParent");
  Add("ex:bob", "ex:hasMother", "ex:carol");
  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto inferred = ComputeEntailment(&store_, base, rbs, nullptr);
  ASSERT_TRUE(inferred.ok());
  EXPECT_TRUE(Inferred(*inferred, "ex:bob", "ex:hasParent", "ex:carol"));
}

TEST_F(EntailmentTest, UserRuleWithFilterAndConstants) {
  Add("ex:jim", "ex:score", "ex:ignored");
  ASSERT_TRUE(store_.InsertTriple(
                  "kb", "ex:jim", "ex:age",
                  "\"30\"^^<http://www.w3.org/2001/XMLSchema#int>")
                  .ok());
  ASSERT_TRUE(store_.InsertTriple(
                  "kb", "ex:kid", "ex:age",
                  "\"10\"^^<http://www.w3.org/2001/XMLSchema#int>")
                  .ok());
  Rulebase rb("adults");
  Rule rule;
  rule.name = "adult_rule";
  rule.antecedent = "(?x ex:age ?a)";
  rule.filter = "?a >= 18";
  rule.consequent = "(?x rdf:type ex:Adult)";
  rule.aliases = {{"ex", "ex:"}};
  // Note: 'ex:age' has no alias expansion ("ex" maps to "ex:")...
  rule.aliases = {};
  ASSERT_TRUE(rb.AddRule(rule).ok());

  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&rb};
  auto inferred = ComputeEntailment(&store_, base, rbs, nullptr);
  ASSERT_TRUE(inferred.ok());
  EXPECT_TRUE(Inferred(*inferred, "ex:jim", std::string(rdf::kRdfType),
                       "ex:Adult"));
  EXPECT_FALSE(Inferred(*inferred, "ex:kid", std::string(rdf::kRdfType),
                        "ex:Adult"));
}

TEST_F(EntailmentTest, NoRulesMeansNoInference) {
  Add("ex:a", "ex:b", "ex:c");
  ModelSource base(&store_, {model_});
  auto inferred = ComputeEntailment(&store_, base, {}, nullptr);
  ASSERT_TRUE(inferred.ok());
  EXPECT_EQ(inferred->size(), 0u);
}

TEST_F(EntailmentTest, InferredExcludesBaseTriples) {
  // rdfs9 would re-derive an already-present triple; it must not appear
  // in the inferred set.
  Add("ex:Dog", std::string(rdf::kRdfsSubClassOf), "ex:Animal");
  Add("ex:rex", std::string(rdf::kRdfType), "ex:Dog");
  Add("ex:rex", std::string(rdf::kRdfType), "ex:Animal");  // pre-asserted
  ModelSource base(&store_, {model_});
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto inferred = ComputeEntailment(&store_, base, rbs, nullptr);
  ASSERT_TRUE(inferred.ok());
  EXPECT_FALSE(
      Inferred(*inferred, "ex:rex", std::string(rdf::kRdfType),
               "ex:Animal"));
}

TEST_F(EntailmentTest, RulesIndexBuildPersistsTable) {
  Add("ex:Dog", std::string(rdf::kRdfsSubClassOf), "ex:Animal");
  Add("ex:rex", std::string(rdf::kRdfType), "ex:Dog");
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto index = RulesIndex::Build(&store_, "rix", {"kb"}, rbs);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->name(), "rix");
  EXPECT_GT((*index)->inferred_count(), 0u);
  EXPECT_GE((*index)->rounds(), 2u);
  // Pre-computed triples are persisted as the paper describes.
  storage::Table* table = store_.database().GetTable("MDSYS", "RDFI_RIX");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->row_count(), (*index)->inferred_count());
}

TEST_F(EntailmentTest, RulesIndexCovers) {
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  auto index = RulesIndex::Build(&store_, "rix", {"kb"}, rbs);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->Covers({"kb"}, {"RDFS"}));
  EXPECT_TRUE((*index)->Covers({"KB"}, {"rdfs"}));  // case-insensitive
  EXPECT_FALSE((*index)->Covers({"kb", "other"}, {"RDFS"}));
  EXPECT_FALSE((*index)->Covers({"kb"}, {"RDFS", "extra"}));
  EXPECT_FALSE((*index)->Covers({"kb"}, {}));
}

TEST_F(EntailmentTest, RulesIndexUnknownModelFails) {
  std::vector<const Rulebase*> rbs{&BuiltinRdfsRulebase()};
  EXPECT_TRUE(RulesIndex::Build(&store_, "rix", {"ghost"}, rbs)
                  .status()
                  .IsNotFound());
}

TEST_F(EntailmentTest, EvalPatternsJoinsAcrossPatterns) {
  Add("ex:a", "ex:knows", "ex:b");
  Add("ex:b", "ex:knows", "ex:c");
  Add("ex:c", "ex:knows", "ex:d");
  auto solutions = Solve("(?x ex:knows ?y) (?y ex:knows ?z)");
  ASSERT_EQ(solutions.size(), 2u);  // a-b-c and b-c-d
  for (const auto& solution : solutions) EXPECT_EQ(solution.size(), 3u);
}

TEST_F(EntailmentTest, EvalPatternsRepeatedVariableMustMatch) {
  Add("ex:x", "ex:p", "ex:x");
  Add("ex:x", "ex:p", "ex:y");
  EXPECT_EQ(Solve("(?a ex:p ?a)").size(), 1u);  // only the self-loop
}

/// Join order chosen by the compiled executor's planner over the "kb"
/// model.
class PlanPatternOrderTest : public EntailmentTest {
 protected:
  std::vector<size_t> Order(const std::string& query) {
    auto patterns = ParsePatterns(query, {});
    EXPECT_TRUE(patterns.ok());
    ModelSource base(&store_, {model_});
    return CompilePatterns(store_, *patterns, nullptr, base,
                           /*reorder_patterns=*/true, nullptr)
        .order;
  }
};

TEST_F(PlanPatternOrderTest, ConstantRichPatternsFirst) {
  Add("ex:alice", "ex:name", "\"Alice\"");
  for (int i = 0; i < 10; ++i) {
    Add("ex:alice", "ex:knows", "ex:n" + std::to_string(i));
    Add("ex:n" + std::to_string(i), "ex:name", "\"N\"");
  }
  std::vector<size_t> order =
      Order("(?x ex:knows ?y) (?x ex:name \"Alice\") (?y ?p ?z)");
  ASSERT_EQ(order.size(), 3u);
  // (?x ex:name "Alice") matches one row -> runs first.
  EXPECT_EQ(order[0], 1u);
  // The fully-variable pattern runs last.
  EXPECT_EQ(order[2], 2u);
}

TEST_F(PlanPatternOrderTest, PrefersConnectedPatterns) {
  // After picking the selective pattern on ?a, the planner must pick
  // the pattern sharing ?a before the disconnected one on ?c, even
  // though the disconnected one matches fewer rows.
  Add("ex:alice", "ex:name", "\"Alice\"");
  for (int i = 0; i < 10; ++i) {
    Add("ex:alice", "ex:knows", "ex:n" + std::to_string(i));
  }
  Add("ex:n0", "ex:p", "ex:d0");
  Add("ex:n1", "ex:p", "ex:d1");
  std::vector<size_t> order =
      Order("(?c ex:p ?d) (?a ex:knows ?c) (?a ex:name \"Alice\")");
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // one matching row
  EXPECT_EQ(order[1], 1u);  // shares ?a with the first pick
  EXPECT_EQ(order[2], 0u);  // joined via ?c only after step 2
}

TEST_F(EntailmentTest, ReorderingDoesNotChangeResults) {
  // Random-ish chain data; evaluate a 3-pattern query with and without
  // the planner and compare solution sets.
  for (int i = 0; i < 30; ++i) {
    Add("ex:n" + std::to_string(i), "ex:knows",
        "ex:n" + std::to_string((i * 7 + 3) % 30));
    Add("ex:n" + std::to_string(i), "ex:team",
        "ex:t" + std::to_string(i % 3));
  }
  auto collect = [&](bool reorder) {
    auto solutions = Solve(
        "(?x ex:knows ?y) (?y ex:knows ?z) (?z ex:team ex:t1)", reorder);
    return std::set<std::map<std::string, ValueId>>(solutions.begin(),
                                                    solutions.end());
  };
  auto with = collect(true);
  auto without = collect(false);
  EXPECT_EQ(with, without);
  EXPECT_FALSE(with.empty());
}

TEST_F(EntailmentTest, EvalPatternsUnknownConstantYieldsNothing) {
  Add("ex:a", "ex:b", "ex:c");
  EXPECT_TRUE(Solve("(?x ex:never ?y)").empty());
}

}  // namespace
}  // namespace rdfdb::query
