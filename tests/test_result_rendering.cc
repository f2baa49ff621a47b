// Late materialization end to end: SDO_RDF_MATCH results stay VALUE_IDs
// and leave the store as N-Triples text written straight from each
// store's term storage (StoreView::AppendNTriples), never through a
// Term. These tests pin that text byte for byte to Term::ToNTriples()
// for every term kind, on the live store, on a pinned version, and in
// the cells of /query bodies.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "query/match.h"
#include "rdf/reification.h"
#include "rdf/snapshot_store.h"
#include "rdf/vocab.h"
#include "server/http.h"
#include "server/server.h"

namespace rdfdb {
namespace {

using rdf::Term;

/// Every escape N-Triples or JSON applies: quote, backslash, newline,
/// carriage return, tab, a C0 control (U+0001, JSON-only), and
/// multi-byte UTF-8 that both pass through.
const std::string kTricky =
    std::string("q\"b\\s\nn\rr\tt") + '\x01' + "c \xc3\xa9 \xe6\xbc\xa2 "
    "\xf0\x9f\x98\x80";

/// Its N-Triples spelling, written out by hand.
const std::string kTrickyNt =
    std::string("\"q\\\"b\\\\s\\nn\\rr\\tt") + '\x01' +
    "c \xc3\xa9 \xe6\xbc\xa2 \xf0\x9f\x98\x80\"";

/// And that as a JSON string (U+0001 becomes \u0001), by hand.
const std::string kTrickyJson =
    R"("\"q\\\"b\\\\s\\nn\\rr\\tt\u0001c )"
    "\xc3\xa9 \xe6\xbc\xa2 \xf0\x9f\x98\x80" R"(\"")";

class ResultRenderingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateRdfModel("a", "a_app", "triple").ok());
    ASSERT_TRUE(store_.CreateRdfModel("b", "b_app", "triple").ok());
    long_text_.assign(rdf::kLongLiteralThreshold + 500, 'L');
    // One object of every kind; long ones take the CLOB path.
    const std::vector<Term> objects = {
        Term::Uri("http://ex/o"),
        Term::BlankNode("shared"),
        Term::PlainLiteral("plain"),
        Term::PlainLiteralLang("chat", "fr"),
        Term::TypedLiteral("25", std::string(rdf::kXsdInt)),
        Term::PlainLiteralLang(long_text_ + "fr", "fr"),
        Term::PlainLiteral(long_text_ + "plain"),
        Term::TypedLiteral(long_text_ + "typed", "http://ex/dt"),
        Term::PlainLiteral(kTricky),
        Term::PlainLiteralLang(kTricky, "ja"),
        Term::TypedLiteral(kTricky, "http://ex/dt"),
    };
    Status loaded = store_.Apply([&](rdf::RdfStore& live) -> Status {
      RDFDB_ASSIGN_OR_RETURN(rdf::ModelId a, live.GetModelId("a"));
      RDFDB_ASSIGN_OR_RETURN(rdf::ModelId b, live.GetModelId("b"));
      for (size_t i = 0; i < objects.size(); ++i) {
        // Skip a few VALUE_IDs midway, so later terms sit past a gap in
        // the sequence (the pinned dictionary cannot find them by
        // position and must fall back to its id table).
        if (i == objects.size() / 2) {
          for (int skip = 0; skip < 3; ++skip) {
            live.database().GetSequence("MDSYS", "RDF_VALUE_SEQ")->Next();
          }
        }
        RDFDB_RETURN_NOT_OK(
            live.InsertParsedTriple(a, Term::Uri("http://ex/s"),
                                    Term::Uri("http://ex/p" +
                                              std::to_string(i)),
                                    objects[i])
                .status());
      }
      // The same blank label in a second model is a second term.
      RDFDB_RETURN_NOT_OK(
          live.InsertParsedTriple(b, Term::BlankNode("shared"),
                                  Term::Uri("http://ex/p0"),
                                  Term::PlainLiteral("in b"))
              .status());
      // Reifying mints a DBUri subject.
      RDFDB_ASSIGN_OR_RETURN(
          link_, live.GetTripleId("a", "<http://ex/s>", "<http://ex/p0>",
                                  "<http://ex/o>"));
      return live.ReifyTriple("a", link_).status();
    });
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();
  }

  /// The body /query returns for `query_string`, via the socket-free
  /// Handle.
  std::string QueryBody(const std::string& query_string) {
    server::RdfServer server(&store_, {});
    server::HttpRequest request;
    request.method = "GET";
    request.path = "/query";
    request.query = query_string;
    request.target = request.path + "?" + request.query;
    server::HttpResponse response = server.Handle(request, nullptr);
    EXPECT_EQ(response.status, 200) << response.body;
    return response.body;
  }

  rdf::SnapshotRdfStore store_;
  std::string long_text_;
  rdf::LinkId link_ = 0;
};

/// Every distinct VALUE_ID the result holds.
std::set<rdf::ValueId> ResultIds(const query::MatchResult& result) {
  std::set<rdf::ValueId> ids;
  for (size_t r = 0; r < result.row_count(); ++r) {
    for (size_t c = 0; c < result.columns().size(); ++c) {
      ids.insert(result.id(r, c));
    }
  }
  return ids;
}

/// AppendNTriples onto a non-empty buffer, checked against the Term path.
void ExpectSpellingsAgree(const rdf::StoreView& view,
                          const std::set<rdf::ValueId>& ids,
                          std::set<std::string>* spellings) {
  for (rdf::ValueId id : ids) {
    SCOPED_TRACE("VALUE_ID " + std::to_string(id));
    Result<Term> term = view.TermForValueId(id);
    ASSERT_TRUE(term.ok()) << term.status().ToString();
    std::string out = "prefix ";
    ASSERT_TRUE(view.AppendNTriples(id, &out).ok());
    EXPECT_EQ(out, "prefix " + term->ToNTriples());
    spellings->insert(out.substr(7));
  }
  std::string untouched = "kept";
  EXPECT_TRUE(view.AppendNTriples(*ids.rbegin() + 1000, &untouched)
                  .IsNotFound());
  EXPECT_EQ(untouched, "kept");
}

TEST_F(ResultRenderingTest, AppendNTriplesMatchesToNTriplesOnBothStores) {
  auto pin = store_.Snapshot();
  auto result = query::SdoRdfMatch(pin.view(), "(?s ?p ?o)", {"a", "b"}, {},
                                   "");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->row_count(), 13u);  // 11 + 1 in b + 1 reification
  const std::set<rdf::ValueId> ids = ResultIds(*result);

  std::set<std::string> pinned, live;
  ExpectSpellingsAgree(pin.view(), ids, &pinned);
  store_.Apply([&](const rdf::RdfStore& store) {
    ExpectSpellingsAgree(store, ids, &live);
  });
  EXPECT_EQ(pinned, live);

  // Spot checks against hand-written spellings.
  for (const std::string& want :
       {std::string("<http://ex/o>"), std::string("\"plain\""),
        std::string("\"chat\"@fr"),
        std::string("\"25\"^^<http://www.w3.org/2001/XMLSchema#int>"),
        "\"" + long_text_ + "fr\"@fr", "\"" + long_text_ + "plain\"",
        "\"" + long_text_ + "typed\"^^<http://ex/dt>", kTrickyNt,
        kTrickyNt + "@ja", kTrickyNt + "^^<http://ex/dt>",
        "<" + rdf::DBUriForLink(link_) + ">",
        "<" + std::string(rdf::kRdfStatement) + ">"}) {
    EXPECT_EQ(pinned.count(want), 1u) << want;
  }
  size_t blanks = 0;
  for (const std::string& s : pinned) blanks += s.rfind("_:", 0) == 0;
  EXPECT_EQ(blanks, 2u) << "one blank node per model";
}

/// The /query body the Term path writes: every cell
/// AppendJsonString(at(r, c).ToNTriples()), up to and including
/// "row_count" (the stats that follow are not cells).
std::string TermPathBody(const query::MatchResult& table) {
  std::string body = "{\"columns\": [";
  for (size_t c = 0; c < table.columns().size(); ++c) {
    if (c > 0) body += ", ";
    obs::AppendJsonString(table.columns()[c], &body);
  }
  body += "], \"rows\": [";
  for (size_t r = 0; r < table.row_count(); ++r) {
    if (r > 0) body += ", ";
    body += "[";
    for (size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) body += ", ";
      obs::AppendJsonString(table.at(r, c).ToNTriples(), &body);
    }
    body += "]";
  }
  return body + "], \"row_count\": " + std::to_string(table.row_count()) +
         ",";
}

TEST_F(ResultRenderingTest, QueryBodyCellsAreByteIdenticalToTermPath) {
  // A self-join: every row repeats ?s, and each object (the long
  // literals included) recurs across rows, so most ids are written
  // several times into the same body.
  const std::string join = "(?s ?p ?o) (?s ?q ?o2)";
  struct Case {
    std::string params;
    query::MatchOptions options;
  };
  query::MatchOptions distinct_limit;
  distinct_limit.distinct = true;
  distinct_limit.limit = 7;
  const std::vector<Case> cases = {
      {"", {}},
      {"&distinct=1&limit=7", distinct_limit},
  };
  struct Models {
    std::string params;
    std::vector<std::string> names;
  };
  const std::vector<Models> model_sets = {{"&model=a", {"a"}},
                                          {"&model=a&model=b", {"a", "b"}}};
  for (const Case& c : cases) {
    for (const Models& models : model_sets) {
      SCOPED_TRACE(models.params + c.params);
      auto pin = store_.Snapshot();
      auto expected = query::SdoRdfMatch(pin.view(), join, models.names, {},
                                         "", c.options);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_GT(expected->row_count(), 0u);
      const size_t cells =
          expected->row_count() * expected->columns().size();
      ASSERT_LT(ResultIds(*expected).size(), cells) << "no repeated ids";

      const std::string want = TermPathBody(*expected);
      const std::string got = QueryBody(
          "q=" + server::PercentEncode(join) + models.params + c.params);
      ASSERT_GE(got.size(), want.size());
      EXPECT_EQ(got.substr(0, want.size()), want);
      if (c.params.empty()) {
        EXPECT_NE(got.find(kTrickyJson), std::string::npos);
      }
    }
  }
}

}  // namespace
}  // namespace rdfdb
