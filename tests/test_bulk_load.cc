#include "rdf/bulk_load.h"
#include "test_temp_dir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

namespace rdfdb::rdf {
namespace {

Term U(const std::string& uri) { return Term::Uri(uri); }

class BulkLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("m", "mdata", "triple").ok());
  }

  RdfStore store_;
};

TEST_F(BulkLoadTest, LoadsStatements) {
  std::vector<NTriple> statements = {
      {U("http://a"), U("http://p"), U("http://b")},
      {U("http://a"), U("http://p"), Term::PlainLiteral("v")},
      {Term::BlankNode("x"), U("http://q"), U("http://a")},
  };
  auto stats = BulkLoad(&store_, "m", statements);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->statements, 3u);
  EXPECT_EQ(stats->new_links, 3u);
  EXPECT_EQ(stats->reused_links, 0u);
  EXPECT_EQ(stats->app_rows, 0u);
  EXPECT_EQ(store_.links().TotalTripleCount(), 3u);
}

TEST_F(BulkLoadTest, DuplicatesReuseLinks) {
  std::vector<NTriple> statements = {
      {U("http://a"), U("http://p"), U("http://b")},
      {U("http://a"), U("http://p"), U("http://b")},
  };
  auto stats = BulkLoad(&store_, "m", statements);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->new_links, 1u);
  EXPECT_EQ(stats->reused_links, 1u);
  EXPECT_EQ(store_.links().TotalTripleCount(), 1u);
}

TEST_F(BulkLoadTest, PopulatesApplicationTable) {
  auto table = ApplicationTable::Create(&store_, "APP", "mdata");
  ASSERT_TRUE(table.ok());
  std::vector<NTriple> statements = {
      {U("http://a"), U("http://p"), U("http://b")},
      {U("http://c"), U("http://p"), U("http://d")},
  };
  auto stats = BulkLoad(&store_, "m", statements, &*table);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->app_rows, 2u);
  EXPECT_EQ(table->row_count(), 2u);
  // Row ids continue across loads.
  auto more = BulkLoad(&store_, "m",
                       {{U("http://e"), U("http://p"), U("http://f")}},
                       &*table);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(table->row_count(), 3u);
}

TEST_F(BulkLoadTest, UnknownModelFails) {
  EXPECT_TRUE(BulkLoad(&store_, "ghost", {}).status().IsNotFound());
}

TEST_F(BulkLoadTest, ExportRoundTrip) {
  std::vector<NTriple> statements = {
      {U("http://a"), U("http://p"), U("http://b")},
      {U("http://a"), U("http://p"),
       Term::TypedLiteral("5", "http://www.w3.org/2001/XMLSchema#int")},
      {U("http://a"), U("http://p"), Term::PlainLiteralLang("hei", "no")},
  };
  ASSERT_TRUE(BulkLoad(&store_, "m", statements).ok());
  auto exported = ExportModel(store_, "m");
  ASSERT_TRUE(exported.ok());
  ASSERT_EQ(exported->size(), statements.size());
  // Order is not guaranteed; compare as sets of serialized lines.
  auto lines = [](const std::vector<NTriple>& ts) {
    std::vector<std::string> out;
    for (const NTriple& t : ts) out.push_back(ToNTriplesLine(t));
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(lines(*exported), lines(statements));
}

TEST_F(BulkLoadTest, ExportBlankNodesUseInternalLabels) {
  ASSERT_TRUE(BulkLoad(&store_, "m",
                       {{Term::BlankNode("x"), U("http://p"),
                         U("http://o")}})
                  .ok());
  auto exported = ExportModel(store_, "m");
  ASSERT_TRUE(exported.ok());
  ASSERT_EQ(exported->size(), 1u);
  EXPECT_TRUE((*exported)[0].subject.is_blank());
  // Internal labels are model-qualified, so reloading into another model
  // cannot capture the original model's nodes.
  EXPECT_NE((*exported)[0].subject.lexical(), "x");
}

TEST_F(BulkLoadTest, FileRoundTrip) {
  test::TestTempDir temp;
  std::string path = temp.Path("bulk.nt");
  std::vector<NTriple> statements = {
      {U("http://a"), U("http://p"), U("http://b")},
      {U("http://c"), U("http://q"), Term::PlainLiteral("text value")},
  };
  ASSERT_TRUE(WriteNTriplesFile(path, statements).ok());
  auto stats = BulkLoadFile(&store_, "m", path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->new_links, 2u);

  std::string out_path = temp.Path("bulk_out.nt");
  ASSERT_TRUE(ExportModelToFile(store_, "m", out_path).ok());
  auto reparsed = ParseNTriplesFile(out_path);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->size(), 2u);
  std::remove(path.c_str());
  std::remove(out_path.c_str());
}

TEST_F(BulkLoadTest, ExportUnknownModelFails) {
  EXPECT_TRUE(ExportModel(store_, "ghost").status().IsNotFound());
}

// ---- Pipelined-loader identity to the sequential loader ---------------

/// Render every central-schema table (plus the id sequences) into one
/// canonical string, so two stores can be compared for bit-identical
/// state: same VALUE_ID / LINK_ID assignment, same COST, CONTEXT,
/// REIF_LINK, same rdf_node$ and blank-node mapping rows.
std::string DumpStoreState(RdfStore* store) {
  std::string out;
  for (const char* name :
       {"RDF_VALUE$", "RDF_BLANK_NODE$", "RDF_LINK$", "RDF_NODE$"}) {
    const storage::Table* table = store->database().GetTable("MDSYS", name);
    out += std::string(name) + "\n";
    if (table == nullptr) continue;
    table->Scan([&](storage::RowId rid, const storage::Row& row) {
      out += std::to_string(rid);
      for (const storage::Value& v : row) {
        out += "|" + v.ToString();
      }
      out += "\n";
      return true;
    });
  }
  for (const char* seq : {"RDF_VALUE_SEQ", "RDF_LINK_SEQ"}) {
    storage::Sequence* s = store->database().GetSequence("MDSYS", seq);
    out += std::string(seq) + "=" +
           (s == nullptr ? "-" : std::to_string(s->Peek())) + "\n";
  }
  return out;
}

/// A workload that exercises every identity-sensitive path: duplicate
/// statements (COST), duplicates spanning chunk boundaries, typed
/// literals whose canonical form differs from the lexical form,
/// language-tagged literals, and blank nodes.
std::vector<NTriple> MixedStatements(size_t n) {
  std::vector<NTriple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string k = std::to_string(i % 37);
    switch (i % 5) {
      case 0:
        out.push_back({U("http://s" + k), U("http://p"), U("http://o" + k)});
        break;
      case 1:  // "07" canonicalizes to "7" — exercises canon interning
        out.push_back(
            {U("http://s" + k), U("http://age"),
             Term::TypedLiteral("0" + k,
                                "http://www.w3.org/2001/XMLSchema#int")});
        break;
      case 2:
        out.push_back({Term::BlankNode("b" + k), U("http://q"),
                       Term::PlainLiteralLang("v" + k, "en")});
        break;
      case 3:  // repeats exactly (i % 37 cycles) — duplicate statements
        out.push_back({U("http://dup"), U("http://p"), U("http://dup-o")});
        break;
      default:
        out.push_back({U("http://s" + k), U("http://r"),
                       Term::PlainLiteral("text " + k)});
        break;
    }
  }
  return out;
}

TEST(BulkLoadIdentityTest, PipelinedMatchesSequentialBitForBit) {
  const std::vector<NTriple> statements = MixedStatements(500);

  RdfStore reference;
  ASSERT_TRUE(reference.CreateRdfModel("m", "mdata", "triple").ok());
  auto ref_table = ApplicationTable::Create(&reference, "APP", "mdata");
  ASSERT_TRUE(ref_table.ok());
  auto ref_stats = BulkLoadSequential(&reference, "m", statements,
                                      &*ref_table);
  ASSERT_TRUE(ref_stats.ok());
  const std::string ref_state = DumpStoreState(&reference);

  for (unsigned threads : {1u, 2u, 8u}) {
    RdfStore store;
    ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
    auto table = ApplicationTable::Create(&store, "APP", "mdata");
    ASSERT_TRUE(table.ok());
    BulkLoadOptions options;
    options.threads = threads;
    options.batch_size = 64;  // force many chunks
    auto stats = BulkLoad(&store, "m", statements, &*table, options);
    ASSERT_TRUE(stats.ok()) << "threads=" << threads;
    EXPECT_EQ(stats->statements, ref_stats->statements);
    EXPECT_EQ(stats->new_links, ref_stats->new_links);
    EXPECT_EQ(stats->reused_links, ref_stats->reused_links);
    EXPECT_EQ(stats->app_rows, ref_stats->app_rows);
    EXPECT_EQ(table->row_count(), ref_table->row_count());
    EXPECT_EQ(DumpStoreState(&store), ref_state) << "threads=" << threads;
  }
}

TEST(BulkLoadIdentityTest, FileLoadMatchesSequentialBitForBit) {
  const std::vector<NTriple> statements = MixedStatements(300);
  test::TestTempDir temp;
  std::string path = temp.Path("identity.nt");
  ASSERT_TRUE(WriteNTriplesFile(path, statements).ok());

  RdfStore reference;
  ASSERT_TRUE(reference.CreateRdfModel("m", "mdata", "triple").ok());
  ASSERT_TRUE(BulkLoadSequential(&reference, "m", statements).ok());
  const std::string ref_state = DumpStoreState(&reference);

  for (unsigned threads : {1u, 2u, 8u}) {
    RdfStore store;
    ASSERT_TRUE(store.CreateRdfModel("m", "mdata", "triple").ok());
    BulkLoadOptions options;
    options.threads = threads;
    options.batch_size = 16;
    auto stats = BulkLoadFile(&store, "m", path, nullptr, options);
    ASSERT_TRUE(stats.ok()) << "threads=" << threads;
    EXPECT_EQ(DumpStoreState(&store), ref_state) << "threads=" << threads;
  }
  std::remove(path.c_str());
}

TEST_F(BulkLoadTest, DuplicateCostAccumulatesAcrossChunkBoundaries) {
  // One triple repeated 50 times with 8-statement chunks: every chunk
  // after the first sees it as pre-existing, within-chunk repeats fold
  // into the group count.
  std::vector<NTriple> statements(
      50, NTriple{U("http://a"), U("http://p"), U("http://b")});
  BulkLoadOptions options;
  options.threads = 2;
  options.batch_size = 8;
  auto stats = BulkLoad(&store_, "m", statements, nullptr, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->new_links, 1u);
  EXPECT_EQ(stats->reused_links, 49u);
  ASSERT_EQ(store_.links().TotalTripleCount(), 1u);
  auto model_id = store_.GetModelId("m");
  ASSERT_TRUE(model_id.ok());
  store_.links().ScanModel(*model_id, [&](const LinkRow& row) {
    EXPECT_EQ(row.cost, 50);
    return true;
  });
}

TEST_F(BulkLoadTest, ImpliedRowUpgradesToDirectUnderBulkLoad) {
  auto model_id = store_.GetModelId("m");
  ASSERT_TRUE(model_id.ok());
  ASSERT_TRUE(store_
                  .InsertParsedTriple(*model_id, U("http://a"), U("http://p"),
                                      U("http://b"), TripleContext::kImplied)
                  .ok());
  BulkLoadOptions options;
  options.threads = 2;
  options.batch_size = 4;
  ASSERT_TRUE(BulkLoad(&store_, "m",
                       {{U("http://a"), U("http://p"), U("http://b")}},
                       nullptr, options)
                  .ok());
  store_.links().ScanModel(*model_id, [&](const LinkRow& row) {
    EXPECT_EQ(row.context, TripleContext::kDirect);
    EXPECT_EQ(row.cost, 2);
    return true;
  });
}

TEST(BulkLoadIdentityTest, BlankNodesStayModelScoped) {
  RdfStore store;
  ASSERT_TRUE(store.CreateRdfModel("m1", "d1", "t").ok());
  ASSERT_TRUE(store.CreateRdfModel("m2", "d2", "t").ok());
  std::vector<NTriple> statements = {
      {Term::BlankNode("x"), U("http://p"), U("http://o")},
  };
  BulkLoadOptions options;
  options.threads = 2;
  ASSERT_TRUE(BulkLoad(&store, "m1", statements, nullptr, options).ok());
  ASSERT_TRUE(BulkLoad(&store, "m2", statements, nullptr, options).ok());
  auto id1 = store.GetModelId("m1");
  auto id2 = store.GetModelId("m2");
  ASSERT_TRUE(id1.ok() && id2.ok());
  auto blank1 = store.values().LookupBlank(*id1, "x");
  auto blank2 = store.values().LookupBlank(*id2, "x");
  ASSERT_TRUE(blank1.has_value());
  ASSERT_TRUE(blank2.has_value());
  EXPECT_NE(*blank1, *blank2)
      << "same label in different models must not unify";
}

TEST_F(BulkLoadTest, MalformedLineInLaterChunkReportsAbsoluteLineNumber) {
  test::TestTempDir temp;
  std::string path = temp.Path("malformed.nt");
  {
    std::ofstream out(path, std::ios::trunc);
    for (int i = 1; i <= 30; ++i) {
      if (i == 23) {
        out << "<http://bad> <http://p> missing-terminator\n";
      } else {
        out << "<http://s" << i << "> <http://p> <http://o" << i << "> .\n";
      }
    }
  }
  BulkLoadOptions options;
  options.threads = 2;
  options.batch_size = 4;  // the bad line is deep inside a later chunk
  auto stats = BulkLoadFile(&store_, "m", path, nullptr, options);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("line 23"), std::string::npos)
      << stats.status().message();
  std::remove(path.c_str());
}

TEST_F(BulkLoadTest, PipelinedRejectsLiteralSubjects) {
  std::vector<NTriple> statements = {
      {U("http://a"), U("http://p"), U("http://b")},
      {Term::PlainLiteral("nope"), U("http://p"), U("http://b")},
  };
  BulkLoadOptions options;
  options.threads = 2;
  options.batch_size = 1;
  auto stats = BulkLoad(&store_, "m", statements, nullptr, options);
  EXPECT_TRUE(stats.status().IsInvalidArgument());
}

}  // namespace
}  // namespace rdfdb::rdf
