#include "rdf/term.h"

#include <cctype>

#include "common/hash.h"
#include "common/string_util.h"
#include "rdf/vocab.h"

namespace rdfdb::rdf {

bool IsContainerMembershipProperty(std::string_view uri) {
  if (!StartsWith(uri, kRdfNs)) return false;
  std::string_view local = uri.substr(kRdfNs.size());
  if (local.size() < 2 || local[0] != '_') return false;
  for (size_t i = 1; i < local.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(local[i]))) return false;
  }
  return true;
}

Term Term::Uri(std::string uri) {
  Term t;
  t.kind_ = TermKind::kUri;
  t.lexical_ = std::move(uri);
  return t;
}

Term Term::BlankNode(std::string label) {
  Term t;
  t.kind_ = TermKind::kBlankNode;
  t.lexical_ = std::move(label);
  return t;
}

Term Term::PlainLiteral(std::string text) {
  Term t;
  t.kind_ = text.size() > kLongLiteralThreshold
                ? TermKind::kPlainLongLiteral
                : TermKind::kPlainLiteral;
  t.lexical_ = std::move(text);
  return t;
}

Term Term::PlainLiteralLang(std::string text, std::string language) {
  if (language.empty()) return PlainLiteral(std::move(text));
  Term t;
  // Language-tagged long literals keep the PLL code with the tag recorded,
  // matching the paper's "plain long-literal ... with a language
  // specified" wording.
  t.kind_ = text.size() > kLongLiteralThreshold
                ? TermKind::kPlainLongLiteral
                : TermKind::kPlainLiteralLang;
  t.lexical_ = std::move(text);
  t.language_ = std::move(language);
  return t;
}

Term Term::TypedLiteral(std::string text, std::string datatype_uri) {
  Term t;
  t.kind_ = text.size() > kLongLiteralThreshold
                ? TermKind::kTypedLongLiteral
                : TermKind::kTypedLiteral;
  t.lexical_ = std::move(text);
  t.datatype_ = std::move(datatype_uri);
  return t;
}

const char* Term::TypeCode() const {
  switch (kind_) {
    case TermKind::kUri:
      return "UR";
    case TermKind::kBlankNode:
      return "BN";
    case TermKind::kPlainLiteral:
      return "PL";
    case TermKind::kPlainLiteralLang:
      return "PL@";
    case TermKind::kTypedLiteral:
      return "TL";
    case TermKind::kPlainLongLiteral:
      return "PLL";
    case TermKind::kTypedLongLiteral:
      return "TLL";
  }
  return "?";
}

namespace {

/// The N-Triples escape letter for `c` ('\\', '"', 'n', 'r', 't'), or 0
/// when `c` is written as is.
char LiteralEscape(char c) {
  switch (c) {
    case '\\':
      return '\\';
    case '"':
      return '"';
    case '\n':
      return 'n';
    case '\r':
      return 'r';
    case '\t':
      return 't';
    default:
      return 0;
  }
}

/// Escape out[from, end) in place: count the escapes, grow once, and
/// move the bytes back to front, so nothing is copied when none is
/// needed (the common case). FindEscapable skips the plain runs.
void EscapeLiteralTail(size_t from, std::string* out) {
  size_t extra = 0;
  for (size_t i = FindEscapable(*out, from); i < out->size();
       i = FindEscapable(*out, i + 1)) {
    if (LiteralEscape((*out)[i]) != 0) ++extra;
  }
  if (extra == 0) return;
  size_t src = out->size();
  out->resize(src + extra);
  size_t dst = out->size();
  char* d = out->data();
  while (src > from) {
    const char c = d[--src];
    const char esc = LiteralEscape(c);
    d[--dst] = esc == 0 ? c : esc;
    if (esc != 0) d[--dst] = '\\';
  }
}

}  // namespace

void SpellNTriples(TermKind kind, std::string_view language,
                   std::string_view datatype, size_t lexical_start,
                   std::string* out) {
  switch (kind) {
    case TermKind::kUri:
      out->insert(lexical_start, 1, '<');
      out->push_back('>');
      return;
    case TermKind::kBlankNode:
      out->insert(lexical_start, "_:");
      return;
    case TermKind::kTypedLiteral:
    case TermKind::kTypedLongLiteral:
    case TermKind::kPlainLiteral:
    case TermKind::kPlainLiteralLang:
    case TermKind::kPlainLongLiteral:
      break;
  }
  out->insert(lexical_start, 1, '"');
  EscapeLiteralTail(lexical_start + 1, out);
  out->push_back('"');
  if (kind == TermKind::kTypedLiteral ||
      kind == TermKind::kTypedLongLiteral) {
    out->append("^^<").append(datatype).push_back('>');
  } else if (!language.empty()) {
    out->push_back('@');
    out->append(language);
  }
}

Term TermFromSpelling(TermKind kind, std::string_view spelling) {
  if (kind == TermKind::kUri) {
    return Term::Uri(std::string(spelling.substr(1, spelling.size() - 2)));
  }
  if (kind == TermKind::kBlankNode) {
    return Term::BlankNode(std::string(spelling.substr(2)));
  }
  // A literal: undo EscapeLiteralTail up to the closing quote.
  std::string text;
  text.reserve(spelling.size());
  size_t i = 1;
  for (; spelling[i] != '"'; ++i) {
    char c = spelling[i];
    if (c == '\\') {
      c = spelling[++i];
      c = c == 'n' ? '\n' : c == 'r' ? '\r' : c == 't' ? '\t' : c;
    }
    text.push_back(c);
  }
  const std::string_view suffix = spelling.substr(i + 1);
  if (kind == TermKind::kTypedLiteral ||
      kind == TermKind::kTypedLongLiteral) {
    // suffix is ^^<datatype>
    return Term::TypedLiteral(std::move(text),
                              std::string(suffix.substr(3, suffix.size() - 4)));
  }
  // suffix is "" or @lang; an empty language gives a plain literal.
  return Term::PlainLiteralLang(
      std::move(text), std::string(suffix.empty() ? suffix : suffix.substr(1)));
}

std::string Term::ToNTriples() const {
  std::string out;
  out.reserve(lexical_.size() + language_.size() + datatype_.size() + 8);
  out.append(lexical_);
  SpellNTriples(kind_, language_, datatype_, 0, &out);
  return out;
}

std::string Term::ToDisplayString() const {
  switch (kind_) {
    case TermKind::kUri:
      return lexical_;
    case TermKind::kBlankNode:
      return "_:" + lexical_;
    default:
      return lexical_;
  }
}

bool Term::operator==(const Term& other) const {
  return kind_ == other.kind_ && lexical_ == other.lexical_ &&
         language_ == other.language_ && datatype_ == other.datatype_;
}

uint64_t Term::Hash() const {
  uint64_t h = HashCombine(static_cast<uint64_t>(kind_), Fnv1a64(lexical_));
  h = HashCombine(h, Fnv1a64(language_));
  h = HashCombine(h, Fnv1a64(datatype_));
  return h;
}

namespace {

/// Heuristic for "this bare token is a URI": has a scheme-like prefix
/// ("scheme:rest", scheme = alpha followed by alphanumerics/+/-/.), or is
/// wrapped in angle brackets. Matches the paper's usage where 'gov:files'
/// is a URI but 'bombing' is a plain literal.
bool LooksLikeUri(const std::string& s) {
  size_t colon = s.find(':');
  if (colon == std::string::npos || colon == 0) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0]))) return false;
  for (size_t i = 1; i < colon; ++i) {
    char c = s[i];
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '+' &&
        c != '-' && c != '.') {
      return false;
    }
  }
  return true;
}

/// Parse a quoted literal body: "text"(@lang | ^^<dt> | ^^dt)?
Result<Term> ParseQuotedLiteral(const std::string& text) {
  size_t close = std::string::npos;
  for (size_t i = 1; i < text.size(); ++i) {
    if (text[i] == '\\') {
      ++i;  // skip escaped char
      continue;
    }
    if (text[i] == '"') {
      close = i;
      break;
    }
  }
  if (close == std::string::npos) {
    return Status::InvalidArgument("unterminated literal: " + text);
  }
  // Unescape body.
  std::string body;
  body.reserve(close - 1);
  for (size_t i = 1; i < close; ++i) {
    if (text[i] == '\\' && i + 1 < close) {
      char next = text[i + 1];
      switch (next) {
        case 'n':
          body.push_back('\n');
          break;
        case 'r':
          body.push_back('\r');
          break;
        case 't':
          body.push_back('\t');
          break;
        default:
          body.push_back(next);
      }
      ++i;
    } else {
      body.push_back(text[i]);
    }
  }
  std::string suffix = text.substr(close + 1);
  if (suffix.empty()) return Term::PlainLiteral(std::move(body));
  if (suffix[0] == '@') {
    std::string lang = suffix.substr(1);
    if (lang.empty()) {
      return Status::InvalidArgument("empty language tag: " + text);
    }
    return Term::PlainLiteralLang(std::move(body), std::move(lang));
  }
  if (StartsWith(suffix, "^^")) {
    std::string dt = suffix.substr(2);
    if (StartsWith(dt, "<") && EndsWith(dt, ">")) {
      dt = dt.substr(1, dt.size() - 2);
    }
    if (dt.empty()) {
      return Status::InvalidArgument("empty datatype: " + text);
    }
    // Expand the well-known prefixes so "25"^^xsd:int canonicalizes the
    // same way as the full-URI form.
    if (StartsWith(dt, "xsd:")) {
      dt = std::string(kXsdNs) + dt.substr(4);
    } else if (StartsWith(dt, "rdfs:")) {
      dt = std::string(kRdfsNs) + dt.substr(5);
    } else if (StartsWith(dt, "rdf:")) {
      dt = std::string(kRdfNs) + dt.substr(4);
    }
    return Term::TypedLiteral(std::move(body), std::move(dt));
  }
  return Status::InvalidArgument("bad literal suffix: " + text);
}

}  // namespace

Result<Term> ParseApiTerm(const std::string& raw) {
  std::string text = Trim(raw);
  if (text.empty()) {
    return Status::InvalidArgument("empty term");
  }
  if (StartsWith(text, "_:")) {
    std::string label = text.substr(2);
    if (label.empty()) {
      return Status::InvalidArgument("blank node needs a label");
    }
    return Term::BlankNode(std::move(label));
  }
  if (text[0] == '"') return ParseQuotedLiteral(text);
  if (StartsWith(text, "<") && EndsWith(text, ">")) {
    std::string uri = text.substr(1, text.size() - 2);
    if (uri.empty()) return Status::InvalidArgument("empty URI");
    return Term::Uri(std::move(uri));
  }
  if (LooksLikeUri(text)) return Term::Uri(std::move(text));
  // The paper inserts the object 'bombing' unquoted as a literal.
  return Term::PlainLiteral(std::move(text));
}

Result<Term> ParseApiSubject(const std::string& text) {
  RDFDB_ASSIGN_OR_RETURN(Term t, ParseApiTerm(text));
  if (!t.is_uri() && !t.is_blank()) {
    return Status::InvalidArgument(
        "subject must be a URI or blank node, got literal: " + text);
  }
  return t;
}

Result<Term> ParseApiPredicate(const std::string& text) {
  RDFDB_ASSIGN_OR_RETURN(Term t, ParseApiTerm(text));
  if (!t.is_uri()) {
    return Status::InvalidArgument("predicate must be a URI: " + text);
  }
  return t;
}

}  // namespace rdfdb::rdf
