#include "rdf/canonical.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string_view>

#include "rdf/vocab.h"

namespace rdfdb::rdf {
namespace {

struct CanonCase {
  const char* datatype;
  const char* input;
  const char* expected;
};

// Names each case by datatype and input, e.g. "int(+025)". Without it gtest
// prints the struct's raw bytes, which hold string addresses, so the case
// names would change from one run to the next.
void PrintTo(const CanonCase& c, std::ostream* os) {
  std::string_view datatype = c.datatype;
  *os << datatype.substr(datatype.find('#') + 1) << '(' << c.input << ')';
}

class CanonicalFormTest : public ::testing::TestWithParam<CanonCase> {};

TEST_P(CanonicalFormTest, ProducesCanonicalLexicalForm) {
  const CanonCase& c = GetParam();
  Term canon = CanonicalForm(Term::TypedLiteral(c.input, c.datatype));
  EXPECT_EQ(canon.lexical(), c.expected)
      << c.input << " ^^ " << c.datatype;
}

INSTANTIATE_TEST_SUITE_P(
    Integers, CanonicalFormTest,
    ::testing::Values(
        CanonCase{"http://www.w3.org/2001/XMLSchema#int", "+025", "25"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#int", "25", "25"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#int", "-07", "-7"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#int", "0", "0"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#int", "-0", "0"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#int", "000", "0"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#integer", " 42 ", "42"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#long", "0009", "9"}));

INSTANTIATE_TEST_SUITE_P(
    Decimals, CanonicalFormTest,
    ::testing::Values(
        CanonCase{"http://www.w3.org/2001/XMLSchema#decimal", "1.50", "1.5"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#decimal", "3.000", "3"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#decimal", "03.10",
                  "3.1"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#decimal", "-0.50",
                  "-0.5"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#decimal", "-0.0", "0"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#decimal", ".5", "0.5"}));

INSTANTIATE_TEST_SUITE_P(
    Booleans, CanonicalFormTest,
    ::testing::Values(
        CanonCase{"http://www.w3.org/2001/XMLSchema#boolean", "1", "true"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#boolean", "0", "false"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#boolean", "true",
                  "true"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#boolean", "false",
                  "false"}));

INSTANTIATE_TEST_SUITE_P(
    Doubles, CanonicalFormTest,
    ::testing::Values(
        CanonCase{"http://www.w3.org/2001/XMLSchema#double", "1.0", "1"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#double", "2.50", "2.5"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#double", "1e2",
                  "1e+02"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#double", "100",
                  "1e+02"},
        CanonCase{"http://www.w3.org/2001/XMLSchema#float", "0.5", "0.5"}));

TEST(CanonicalFormEdgeTest, EquivalentFormsConverge) {
  // The purpose of CANON_END_NODE_ID: different lexical forms of the
  // same value must canonicalize identically.
  Term a = CanonicalForm(Term::TypedLiteral("+025", std::string(kXsdInt)));
  Term b = CanonicalForm(Term::TypedLiteral("25", std::string(kXsdInt)));
  EXPECT_EQ(a, b);
}

TEST(CanonicalFormEdgeTest, XsdStringBecomesPlainLiteral) {
  Term canon =
      CanonicalForm(Term::TypedLiteral("abc", std::string(kXsdString)));
  EXPECT_STREQ(canon.TypeCode(), "PL");
  EXPECT_EQ(canon.lexical(), "abc");
}

TEST(CanonicalFormEdgeTest, InvalidLexicalFormsUnchanged) {
  Term bad_int = Term::TypedLiteral("notanumber", std::string(kXsdInt));
  EXPECT_EQ(CanonicalForm(bad_int), bad_int);
  Term bad_bool = Term::TypedLiteral("maybe", std::string(kXsdBoolean));
  EXPECT_EQ(CanonicalForm(bad_bool), bad_bool);
  Term bad_dec = Term::TypedLiteral("1.2.3", std::string(kXsdDecimal));
  EXPECT_EQ(CanonicalForm(bad_dec), bad_dec);
  Term sign_only = Term::TypedLiteral("-", std::string(kXsdInt));
  EXPECT_EQ(CanonicalForm(sign_only), sign_only);
}

TEST(CanonicalFormEdgeTest, NonLiteralsUnchanged) {
  Term uri = Term::Uri("http://x");
  EXPECT_EQ(CanonicalForm(uri), uri);
  Term blank = Term::BlankNode("b");
  EXPECT_EQ(CanonicalForm(blank), blank);
  Term plain = Term::PlainLiteral("+025");  // no datatype -> untouched
  EXPECT_EQ(CanonicalForm(plain), plain);
  Term lang = Term::PlainLiteralLang("x", "en");
  EXPECT_EQ(CanonicalForm(lang), lang);
}

TEST(CanonicalFormEdgeTest, UnknownDatatypeUnchanged) {
  Term custom = Term::TypedLiteral("+025", "http://example.org/myType");
  EXPECT_EQ(CanonicalForm(custom), custom);
}

TEST(CanonicalFormEdgeTest, DatatypePreserved) {
  Term canon = CanonicalForm(Term::TypedLiteral("+1", std::string(kXsdInt)));
  EXPECT_EQ(canon.datatype(), kXsdInt);
  EXPECT_STREQ(canon.TypeCode(), "TL");
}

TEST(IsCanonicalizableDatatypeTest, KnownTypes) {
  EXPECT_TRUE(IsCanonicalizableDatatype(std::string(kXsdInt)));
  EXPECT_TRUE(IsCanonicalizableDatatype(std::string(kXsdInteger)));
  EXPECT_TRUE(IsCanonicalizableDatatype(std::string(kXsdDecimal)));
  EXPECT_TRUE(IsCanonicalizableDatatype(std::string(kXsdDouble)));
  EXPECT_TRUE(IsCanonicalizableDatatype(std::string(kXsdBoolean)));
  EXPECT_TRUE(IsCanonicalizableDatatype(std::string(kXsdString)));
  EXPECT_FALSE(IsCanonicalizableDatatype("http://example.org/custom"));
  EXPECT_FALSE(IsCanonicalizableDatatype(std::string(kXsdDate)));
}

TEST(CanonicalFormEdgeTest, DoubleRoundTripsShortestForm) {
  // The canonical double form must parse back to the same value.
  Term canon = CanonicalForm(
      Term::TypedLiteral("0.30000000000000004", std::string(kXsdDouble)));
  EXPECT_EQ(canon.lexical(), "0.30000000000000004");
}

}  // namespace
}  // namespace rdfdb::rdf
