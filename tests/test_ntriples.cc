#include "rdf/ntriples.h"
#include "test_temp_dir.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace rdfdb::rdf {
namespace {

TEST(NTriplesLineTest, BasicUriTriple) {
  auto parsed = ParseNTriplesLine(
      "<http://s> <http://p> <http://o> .");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(parsed->has_value());
  const NTriple& t = **parsed;
  EXPECT_EQ(t.subject.lexical(), "http://s");
  EXPECT_EQ(t.predicate.lexical(), "http://p");
  EXPECT_EQ(t.object.lexical(), "http://o");
}

TEST(NTriplesLineTest, BlankAndCommentLinesSkipped) {
  auto blank = ParseNTriplesLine("");
  ASSERT_TRUE(blank.ok());
  EXPECT_FALSE(blank->has_value());
  auto spaces = ParseNTriplesLine("   \t ");
  ASSERT_TRUE(spaces.ok());
  EXPECT_FALSE(spaces->has_value());
  auto comment = ParseNTriplesLine("# a comment <x> <y> <z> .");
  ASSERT_TRUE(comment.ok());
  EXPECT_FALSE(comment->has_value());
}

TEST(NTriplesLineTest, BlankNodes) {
  auto parsed = ParseNTriplesLine("_:a <http://p> _:b .");
  ASSERT_TRUE(parsed.ok());
  const NTriple& t = **parsed;
  EXPECT_TRUE(t.subject.is_blank());
  EXPECT_EQ(t.subject.lexical(), "a");
  EXPECT_TRUE(t.object.is_blank());
  EXPECT_EQ(t.object.lexical(), "b");
}

TEST(NTriplesLineTest, PlainLiteralObject) {
  auto parsed = ParseNTriplesLine("<http://s> <http://p> \"hello world\" .");
  ASSERT_TRUE(parsed.ok());
  EXPECT_STREQ((*parsed)->object.TypeCode(), "PL");
  EXPECT_EQ((*parsed)->object.lexical(), "hello world");
}

TEST(NTriplesLineTest, LanguageTaggedLiteral) {
  auto parsed = ParseNTriplesLine("<http://s> <http://p> \"chat\"@fr .");
  ASSERT_TRUE(parsed.ok());
  EXPECT_STREQ((*parsed)->object.TypeCode(), "PL@");
  EXPECT_EQ((*parsed)->object.language(), "fr");
}

TEST(NTriplesLineTest, TypedLiteral) {
  auto parsed = ParseNTriplesLine(
      "<http://s> <http://p> "
      "\"25\"^^<http://www.w3.org/2001/XMLSchema#int> .");
  ASSERT_TRUE(parsed.ok());
  EXPECT_STREQ((*parsed)->object.TypeCode(), "TL");
  EXPECT_EQ((*parsed)->object.datatype(),
            "http://www.w3.org/2001/XMLSchema#int");
}

TEST(NTriplesLineTest, EscapesInLiterals) {
  auto parsed = ParseNTriplesLine(
      "<http://s> <http://p> \"line1\\nline2 \\\"q\\\" \\\\\" .");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->object.lexical(), "line1\nline2 \"q\" \\");
}

TEST(NTriplesLineTest, LiteralContainingDotAndSpaces) {
  auto parsed = ParseNTriplesLine(
      "<http://s> <http://p> \"v. 2. etc\" .");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->object.lexical(), "v. 2. etc");
}

TEST(NTriplesLineTest, MalformedLines) {
  const char* cases[] = {
      "<http://s> <http://p> <http://o>",          // no terminator
      "<http://s> <http://p> .",                    // missing object
      "<http://s> .",                               // missing pred/obj
      "\"lit\" <http://p> <http://o> .",            // literal subject
      "<http://s> _:b <http://o> .",                // blank predicate
      "<http://s> \"lit\" <http://o> .",            // literal predicate
      "<http://s> <http://p> \"unterminated .",     // bad literal
      "<http://s> <http://p> <http://o> . extra",   // trailing junk
      "<http://s <http://p> <http://o> .",          // unterminated uri
      "<http://s> <http://p> \"x\"^^notauri .",     // bad datatype
  };
  for (const char* line : cases) {
    auto parsed = ParseNTriplesLine(line);
    EXPECT_FALSE(parsed.ok()) << line;
  }
}

TEST(NTriplesDocTest, ParsesMultipleLines) {
  std::string doc =
      "# header\n"
      "<http://s1> <http://p> <http://o1> .\n"
      "\n"
      "<http://s2> <http://p> \"v\" .\n";
  auto parsed = ParseNTriplesDocument(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 2u);
}

TEST(NTriplesDocTest, ReportsLineNumberOnError) {
  std::string doc =
      "<http://s1> <http://p> <http://o1> .\n"
      "garbage here\n";
  auto parsed = ParseNTriplesDocument(doc);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesRoundTripTest, SerializeThenParse) {
  const NTriple cases[] = {
      {Term::Uri("http://s"), Term::Uri("http://p"), Term::Uri("http://o")},
      {Term::BlankNode("b1"), Term::Uri("http://p"),
       Term::PlainLiteral("with \"quotes\" and\nnewline")},
      {Term::Uri("http://s"), Term::Uri("http://p"),
       Term::PlainLiteralLang("salut", "fr")},
      {Term::Uri("http://s"), Term::Uri("http://p"),
       Term::TypedLiteral("3.14",
                          "http://www.w3.org/2001/XMLSchema#decimal")},
  };
  for (const NTriple& t : cases) {
    std::string line = ToNTriplesLine(t);
    auto parsed = ParseNTriplesLine(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->has_value());
    EXPECT_EQ(**parsed, t) << line;
  }
}

TEST(NTriplesFileTest, WriteAndReadBack) {
  test::TestTempDir temp;
  std::string path = temp.Path("ntriples_test.nt");
  std::vector<NTriple> triples = {
      {Term::Uri("http://a"), Term::Uri("http://p"), Term::Uri("http://b")},
      {Term::Uri("http://a"), Term::Uri("http://q"),
       Term::PlainLiteral("text")},
  };
  ASSERT_TRUE(WriteNTriplesFile(path, triples).ok());
  auto back = ParseNTriplesFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, triples);
  std::remove(path.c_str());
}

TEST(NTriplesFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(ParseNTriplesFile("/nonexistent/x.nt").status().IsIOError());
}

}  // namespace
}  // namespace rdfdb::rdf
