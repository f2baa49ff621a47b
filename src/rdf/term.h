// RDF term model: URIs, blank nodes, and (typed / language-tagged /
// long) literals — the value kinds the paper's rdf_value$ table stores
// with VALUE_TYPE codes UR, BN, PL, PL@, TL, PLL, TLL.

#ifndef RDFDB_RDF_TERM_H_
#define RDFDB_RDF_TERM_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace rdfdb::rdf {

/// Threshold above which a literal becomes a long literal stored in the
/// LONG_VALUE CLOB column ("long-literals are text values that exceed
/// 4000 characters").
inline constexpr size_t kLongLiteralThreshold = 4000;

/// Term kinds, one per VALUE_TYPE code in rdf_value$.
enum class TermKind {
  kUri,               ///< "UR"
  kBlankNode,         ///< "BN"
  kPlainLiteral,      ///< "PL"
  kPlainLiteralLang,  ///< "PL@"
  kTypedLiteral,      ///< "TL"
  kPlainLongLiteral,  ///< "PLL"
  kTypedLongLiteral,  ///< "TLL"
};

/// One RDF term. Immutable value type.
class Term {
 public:
  Term() = default;

  /// URI reference, e.g. "http://www.us.gov#files".
  static Term Uri(std::string uri);

  /// Blank node with label (no "_:" prefix), e.g. "anyname001".
  static Term BlankNode(std::string label);

  /// Plain literal; becomes a long literal automatically past the
  /// 4000-char threshold.
  static Term PlainLiteral(std::string text);

  /// Plain literal with a language tag ("chat"@fr).
  static Term PlainLiteralLang(std::string text, std::string language);

  /// Typed literal ("25"^^xsd:int); becomes a typed long literal past the
  /// threshold.
  static Term TypedLiteral(std::string text, std::string datatype_uri);

  TermKind kind() const { return kind_; }

  bool is_uri() const { return kind_ == TermKind::kUri; }
  bool is_blank() const { return kind_ == TermKind::kBlankNode; }
  bool is_literal() const { return !is_uri() && !is_blank(); }
  bool is_long_literal() const {
    return kind_ == TermKind::kPlainLongLiteral ||
           kind_ == TermKind::kTypedLongLiteral;
  }
  bool is_typed_literal() const {
    return kind_ == TermKind::kTypedLiteral ||
           kind_ == TermKind::kTypedLongLiteral;
  }

  /// URI text, blank label, or literal text.
  const std::string& lexical() const { return lexical_; }

  /// Language tag (empty unless kPlainLiteralLang).
  const std::string& language() const { return language_; }

  /// Datatype URI (empty unless typed).
  const std::string& datatype() const { return datatype_; }

  /// VALUE_TYPE code as stored in rdf_value$: UR, BN, PL, PL@, TL, PLL,
  /// TLL.
  const char* TypeCode() const;

  /// N-Triples serialization: <uri>, _:label, "text"@lang, "text"^^<dt>.
  std::string ToNTriples() const;

  /// Human-readable form used by GET_SUBJECT()/GET_OBJECT() result
  /// strings: URI and blank nodes render bare, literals render their text.
  std::string ToDisplayString() const;

  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }

  /// Hash consistent with operator==.
  uint64_t Hash() const;

 private:
  TermKind kind_ = TermKind::kUri;
  std::string lexical_;
  std::string language_;
  std::string datatype_;
};

/// The one N-Triples spelling of a term, for callers that hold its
/// parts rather than a Term: turns the raw lexical form at
/// out[lexical_start, end) into <uri>, _:label, "text"@lang or
/// "text"^^<dt> in place, escaping backslash, quote, newline, carriage
/// return and tab inside literals. A plain literal (long or not)
/// carries "@lang" exactly when `language` is non-empty.
/// Term::ToNTriples and the dictionaries' AppendNTriples both write
/// through it.
void SpellNTriples(TermKind kind, std::string_view language,
                   std::string_view datatype, size_t lexical_start,
                   std::string* out);

/// The inverse of SpellNTriples: the term of kind `kind` whose
/// ToNTriples() is `spelling`. Only spellings SpellNTriples wrote are
/// accepted, so nothing is validated: the first unescaped quote closes
/// a literal, and what follows it is "", "@lang" or "^^<datatype>".
Term TermFromSpelling(TermKind kind, std::string_view spelling);

/// Parse an API-level term string as accepted by the paper's
/// SDO_RDF_TRIPLE_S constructors:
///   * "_:label"           -> blank node
///   * '"text"'            -> plain literal (quoted)
///   * '"text"@lang'       -> language-tagged literal
///   * '"text"^^<dturi>'   -> typed literal
///   * '<uri>' or bare URI -> URI (anything with a scheme-ish prefix)
///   * anything else       -> plain literal (the paper's example inserts
///                            the object 'bombing' unquoted)
Result<Term> ParseApiTerm(const std::string& text);

/// Like ParseApiTerm but restricted to subject position (URI or blank
/// node only).
Result<Term> ParseApiSubject(const std::string& text);

/// Like ParseApiTerm but restricted to predicate position (URI only).
Result<Term> ParseApiPredicate(const std::string& text);

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_TERM_H_
