#include "rdf/quad_loader.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "rdf/reification.h"
#include "rdf/vocab.h"
#include "test_temp_dir.h"

namespace rdfdb::rdf {
namespace {

Term U(const std::string& uri) { return Term::Uri(uri); }

/// The classic reification quad for <s, p, o> via reifier R.
std::vector<NTriple> Quad(const Term& r, const Term& s, const Term& p,
                          const Term& o) {
  return {
      {r, U(std::string(kRdfType)), U(std::string(kRdfStatement))},
      {r, U(std::string(kRdfSubject)), s},
      {r, U(std::string(kRdfPredicate)), p},
      {r, U(std::string(kRdfObject)), o},
  };
}

class QuadLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("m", "mdata", "triple").ok());
  }

  RdfStore store_;
};

TEST_F(QuadLoaderTest, CompleteQuadBecomesStreamlinedForm) {
  Term r = U("http://ex/reif1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));

  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->input_triples, 4u);
  EXPECT_EQ(stats->complete_quads, 1u);
  EXPECT_EQ(stats->incomplete_quads, 0u);

  // Stored: base triple + ONE reification triple (not four).
  ModelId model = *store_.GetModelId("m");
  EXPECT_EQ(store_.links().TripleCount(model), 2u);
  EXPECT_TRUE(*store_.IsReified("m", "http://ex/s", "http://ex/p",
                                "http://ex/o"));
  // The base triple is implied, not a fact.
  auto s_id = store_.values().Lookup(U("http://ex/s"));
  auto p_id = store_.values().Lookup(U("http://ex/p"));
  auto o_id = store_.values().Lookup(U("http://ex/o"));
  auto row = store_.links().Find(model, *s_id, *p_id, *o_id);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->context, TripleContext::kImplied);
}

TEST_F(QuadLoaderTest, AssertionsRewrittenToDBUri) {
  Term r = U("http://ex/reif1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  // "MI5 said R" — the assertion references the reifier.
  input.push_back({U("http://ex/MI5"), U("http://ex/said"), r});

  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->assertions_rewritten, 1u);

  // The stored assertion's object is the DBUri of the base triple.
  ModelId model = *store_.GetModelId("m");
  auto mi5 = store_.values().Lookup(U("http://ex/MI5"));
  ASSERT_TRUE(mi5.has_value());
  auto hits = store_.links().Match(model, *mi5, std::nullopt, std::nullopt);
  ASSERT_EQ(hits.size(), 1u);
  auto object_term = store_.TermForValueId(hits[0].end_node_id);
  EXPECT_TRUE(IsReificationUri(object_term->lexical()));
  EXPECT_TRUE(hits[0].reif_link);
}

TEST_F(QuadLoaderTest, ReifierInSubjectPositionAlsoRewritten) {
  Term r = U("http://ex/reif1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  input.push_back({r, U("http://ex/confidence"),
                   Term::PlainLiteral("0.9")});

  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->assertions_rewritten, 1u);
  // No triple remains whose subject is the original reifier URI.
  EXPECT_FALSE(store_.values().Lookup(r).has_value());
}

TEST_F(QuadLoaderTest, IncompleteQuadDeletedByDefault) {
  Term r = U("http://ex/partial");
  std::vector<NTriple> input = {
      {r, U(std::string(kRdfType)), U(std::string(kRdfStatement))},
      {r, U(std::string(kRdfSubject)), U("http://ex/s")},
      // rdf:predicate and rdf:object missing.
  };
  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->incomplete_quads, 1u);
  EXPECT_EQ(stats->incomplete_triples, 2u);
  EXPECT_EQ(stats->complete_quads, 0u);
  ModelId model = *store_.GetModelId("m");
  EXPECT_EQ(store_.links().TripleCount(model), 0u);
}

TEST_F(QuadLoaderTest, IncompleteQuadEmittedToFile) {
  test::TestTempDir temp;
  std::string path = temp.Path("incomplete.nt");
  Term r = U("http://ex/partial");
  std::vector<NTriple> input = {
      {r, U(std::string(kRdfType)), U(std::string(kRdfStatement))},
  };
  QuadLoaderOptions options;
  options.incomplete_policy = IncompleteQuadPolicy::kEmitToFile;
  options.incomplete_output_path = path;
  QuadLoader loader(&store_, options);
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  auto spilled = ParseNTriplesFile(path);
  ASSERT_TRUE(spilled.ok());
  EXPECT_EQ(spilled->size(), 1u);
  EXPECT_EQ((*spilled)[0].subject, r);
  std::remove(path.c_str());
}

TEST_F(QuadLoaderTest, EmitToFileWithoutPathFails) {
  Term r = U("http://ex/partial");
  std::vector<NTriple> input = {
      {r, U(std::string(kRdfType)), U(std::string(kRdfStatement))},
  };
  QuadLoaderOptions options;
  options.incomplete_policy = IncompleteQuadPolicy::kEmitToFile;
  QuadLoader loader(&store_, options);
  EXPECT_TRUE(loader.Load("m", input).status().IsInvalidArgument());
}

TEST_F(QuadLoaderTest, IncompleteQuadInsertedAsTriples) {
  Term r = U("http://ex/partial");
  std::vector<NTriple> input = {
      {r, U(std::string(kRdfSubject)), U("http://ex/s")},
  };
  QuadLoaderOptions options;
  options.incomplete_policy = IncompleteQuadPolicy::kInsertAsTriples;
  QuadLoader loader(&store_, options);
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->plain_triples, 1u);
  EXPECT_TRUE(*store_.IsTriple("m", "http://ex/partial",
                               std::string(kRdfSubject), "http://ex/s"));
}

TEST_F(QuadLoaderTest, AmbiguousQuadIsIncomplete) {
  Term r = U("http://ex/ambiguous");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  // Second conflicting rdf:subject.
  input.push_back({r, U(std::string(kRdfSubject)), U("http://ex/s2")});
  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->complete_quads, 0u);
  EXPECT_EQ(stats->incomplete_quads, 1u);
}

TEST_F(QuadLoaderTest, StoreReplacedUrisOption) {
  Term r = U("http://ex/reif1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  QuadLoaderOptions options;
  options.store_replaced_uris = true;
  QuadLoader loader(&store_, options);
  ASSERT_TRUE(loader.Load("m", input).ok());
  // <DBUri, ora:replacesResource, R> is recorded.
  ModelId model = *store_.GetModelId("m");
  auto pred = store_.values().Lookup(U(kReplacesResourceUri));
  ASSERT_TRUE(pred.has_value());
  auto hits = store_.links().Match(model, std::nullopt, *pred, std::nullopt);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(store_.TermForValueId(hits[0].end_node_id)->lexical(),
            "http://ex/reif1");
}

TEST_F(QuadLoaderTest, BlankNodeReifier) {
  Term r = Term::BlankNode("stmt1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  input.push_back({U("http://ex/N"), U("http://ex/said"), r});
  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->complete_quads, 1u);
  EXPECT_EQ(stats->assertions_rewritten, 1u);
}

TEST_F(QuadLoaderTest, MixedQuadAndPlainTriples) {
  Term r = U("http://ex/reif1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  input.push_back(
      {U("http://ex/a"), U("http://ex/b"), U("http://ex/c")});
  input.push_back(
      {U("http://ex/a"), U("http://ex/b"), Term::PlainLiteral("v")});
  QuadLoader loader(&store_, {});
  auto stats = loader.Load("m", input);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->plain_triples, 2u);
  ModelId model = *store_.GetModelId("m");
  // base + reif + 2 plain = 4 rows.
  EXPECT_EQ(store_.links().TripleCount(model), 4u);
}

TEST_F(QuadLoaderTest, LoadFileEndToEnd) {
  test::TestTempDir temp;
  std::string path = temp.Path("quadload.nt");
  Term r = U("http://ex/reif1");
  std::vector<NTriple> input =
      Quad(r, U("http://ex/s"), U("http://ex/p"), U("http://ex/o"));
  ASSERT_TRUE(WriteNTriplesFile(path, input).ok());
  QuadLoader loader(&store_, {});
  auto stats = loader.LoadFile("m", path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->complete_quads, 1u);
  std::remove(path.c_str());
}

TEST_F(QuadLoaderTest, UnknownModelFails) {
  QuadLoader loader(&store_, {});
  EXPECT_TRUE(loader.Load("ghost", {}).status().IsNotFound());
}

}  // namespace
}  // namespace rdfdb::rdf
