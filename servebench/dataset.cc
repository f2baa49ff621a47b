#include "dataset.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "http_client.h"
#include "rdf/vocab.h"

namespace servebench {

namespace {

using rdfdb::rdf::NTriple;
using rdfdb::rdf::TermKind;

const std::string kSeeAlso(rdfdb::rdf::kRdfsSeeAlso);
const std::string kRdfType(rdfdb::rdf::kRdfType);
const std::string kRdfStatement(rdfdb::rdf::kRdfStatement);
const std::string kComment = "http://www.w3.org/2000/01/rdf-schema#comment";

bool IsBlank(std::string_view nt) { return nt.substr(0, 2) == "_:"; }

/// Keys with at least `min_rows` distinct rows, most popular first.
std::vector<ScanKey> PopularKeys(
    std::unordered_map<std::string, std::unordered_set<uint64_t>>* by_key,
    size_t min_rows) {
  std::vector<ScanKey> keys;
  for (auto& [uri, members] : *by_key) {
    if (members.size() < min_rows) continue;
    ScanKey key;
    key.uri = uri;
    key.total = members.size();
    key.members = std::move(members);
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end(), [](const ScanKey& a, const ScanKey& b) {
    return a.total != b.total ? a.total > b.total : a.uri < b.uri;
  });
  return keys;
}

std::vector<double> SkewedCdf(size_t n) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

size_t DrawSkewed(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->NextDouble();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

void SortUnique(std::vector<uint64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

Request MakeQuery(OpKind kind, std::string pattern, size_t limit) {
  Request r;
  r.kind = kind;
  r.method = "GET";
  r.target = "/query?q=" + PercentEncode(pattern) + "&model=" + kModel;
  if (limit > 0) r.target += "&limit=" + std::to_string(limit);
  r.pattern = std::move(pattern);
  r.limit = limit;
  return r;
}

/// Minimal reader for the server's /query reply:
/// {"columns": [...], "rows": [["cell", ...], ...], "row_count": N, ...}
class ReplyCursor {
 public:
  explicit ReplyCursor(const std::string& body)
      : p_(body.data()), end_(body.data() + body.size()) {}

  bool SeekRows() {
    const char* hit = Find("\"rows\":");
    if (hit == nullptr) return false;
    p_ = hit + 7;
    return Eat('[');
  }

  /// Reads the next row into `cells` (decoded only when `decode`).
  /// Returns false at the end of the rows array or on malformed input
  /// (`ok()` tells them apart).
  bool NextRow(std::vector<std::string>* cells, bool decode) {
    Skip();
    if (p_ < end_ && *p_ == ']') {
      ++p_;
      return false;
    }
    if (rows_ > 0 && !Eat(',')) return Bad();
    if (!Eat('[')) return Bad();
    size_t n = 0;
    for (;;) {
      Skip();
      if (p_ < end_ && *p_ == ']') {
        ++p_;
        break;
      }
      if (n > 0 && !Eat(',')) return Bad();
      if (cells->size() <= n) cells->emplace_back();
      if (!ReadString(decode ? &(*cells)[n] : nullptr)) return Bad();
      ++n;
    }
    cells->resize(n);
    ++rows_;
    return true;
  }

  bool ok() const { return ok_; }
  size_t rows() const { return rows_; }

  /// The "row_count" field after the rows array; -1 if absent.
  long long RowCount() {
    const char* hit = Find("\"row_count\":");
    return hit == nullptr ? -1 : std::atoll(hit + 12);
  }

 private:
  const char* Find(const char* needle) const {
    const size_t n = std::strlen(needle);
    for (const char* q = p_; q + n <= end_; ++q) {
      if (std::memcmp(q, needle, n) == 0) return q;
    }
    return nullptr;
  }
  void Skip() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\n')) ++p_;
  }
  bool Eat(char c) {
    Skip();
    if (p_ >= end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool Bad() {
    ok_ = false;
    return false;
  }
  bool ReadString(std::string* out) {
    if (!Eat('"')) return false;
    if (out != nullptr) out->clear();
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ >= end_) return false;
        c = *p_++;
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (end_ - p_ < 4) return false;
            c = static_cast<char>(std::strtol(std::string(p_, 4).c_str(),
                                              nullptr, 16));
            p_ += 4;
            break;
          default: break;  // \" \\ \/
        }
      }
      if (out != nullptr) out->push_back(c);
    }
    return Eat('"');
  }

  const char* p_;
  const char* end_;
  size_t rows_ = 0;
  bool ok_ = true;
};

/// Row-content check for one decoded row; "" when the row is possible.
std::string CheckRow(const Oracle& oracle, const Request& request,
                     const std::vector<std::string>& cells) {
  auto want_cols = [&](size_t n) {
    return cells.size() == n ? std::string()
                             : "expected " + std::to_string(n) + " columns";
  };
  switch (request.kind) {
    case OpKind::kLookup: {
      if (auto e = want_cols(2); !e.empty()) return e;
      const uint64_t h =
          RowHash({cells[0], IsBlank(cells[1]) ? "_:" : cells[1]});
      const auto& rows = request.protein->lookup_rows;
      if (!std::binary_search(rows.begin(), rows.end(), h)) {
        return "unexpected row " + cells[0] + " " + cells[1];
      }
      return "";
    }
    case OpKind::kJoin: {
      if (auto e = want_cols(3); !e.empty()) return e;
      const auto& cites = request.protein->citations;
      if (cells[0] != Angle(request.protein->uri) ||
          !std::binary_search(cites.begin(), cites.end(), RowHash({cells[1]})) ||
          cells[2] != request.protein->length_nt) {
        return "unexpected row " + cells[0] + " " + cells[1] + " " + cells[2];
      }
      return "";
    }
    case OpKind::kScan:
      switch (request.shape) {
        case ScanShape::kSeeAlso:
          if (auto e = want_cols(1); !e.empty()) return e;
          if (!request.key->members.count(RowHash({cells[0]}))) {
            return "unexpected subject " + cells[0];
          }
          return "";
        case ScanShape::kChain3:
          if (auto e = want_cols(3); !e.empty()) return e;
          if (!request.key->members.count(RowHash({cells[0]})) ||
              !IsBlank(cells[1]) || cells[2].rfind("\"annotation ", 0) != 0) {
            return "unexpected row " + cells[0] + " " + cells[1] + " " +
                   cells[2];
          }
          return "";
        case ScanShape::kCurated: {
          if (auto e = want_cols(2); !e.empty()) return e;
          const size_t at = cells[1].find("LINK_ID=");
          const int64_t link =
              at == std::string::npos ? -1 : std::atoll(cells[1].c_str() + at + 8);
          if (!oracle.curated.count(CuratedKey(cells[0], link))) {
            return "unexpected assertion " + cells[0] + " " + cells[1];
          }
          return "";
        }
      }
      return "";
    default:
      return "not a query";
  }
}

}  // namespace

uint64_t RowHash(std::initializer_list<std::string_view> cells) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (std::string_view cell : cells) {
    h ^= std::hash<std::string_view>{}(cell) + 0x9e3779b97f4a7c15ull +
         (h << 6) + (h >> 2);
  }
  return h;
}

uint64_t CuratedKey(std::string_view curator_nt, int64_t link_id) {
  return RowHash({curator_nt, std::to_string(link_id)});
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Oracle BuildOracle(const rdfdb::gen::UniProtDataset& dataset,
                   size_t scan_rows) {
  Oracle oracle;
  oracle.scan_rows = scan_rows;

  std::unordered_map<std::string, uint32_t> protein_of;
  for (const NTriple& t : dataset.triples) {
    if (t.predicate.lexical() == rdfdb::gen::kUpMnemonic &&
        !protein_of.count(t.subject.lexical())) {
      protein_of.emplace(t.subject.lexical(),
                         static_cast<uint32_t>(oracle.proteins.size()));
      Protein p;
      p.uri = t.subject.lexical();
      p.mnemonic = t.object.lexical();
      oracle.proteins.push_back(std::move(p));
    }
  }

  std::unordered_set<uint64_t> distinct;
  distinct.reserve(dataset.triples.size());
  std::vector<std::vector<uint64_t>> full_rows(oracle.proteins.size());
  std::unordered_map<std::string, std::unordered_set<uint64_t>> see_also;
  std::unordered_map<std::string, std::unordered_set<uint64_t>> citers;
  std::vector<uint32_t> see_also_statements;
  for (uint32_t i = 0; i < dataset.triples.size(); ++i) {
    const NTriple& t = dataset.triples[i];
    const std::string s = t.subject.ToNTriples();
    const std::string p = t.predicate.ToNTriples();
    const std::string o = t.object.ToNTriples();
    if (!distinct.insert(RowHash({s, p, o})).second) continue;
    auto it = protein_of.find(t.subject.lexical());
    if (it == protein_of.end() || t.subject.kind() != TermKind::kUri) continue;
    Protein& protein = oracle.proteins[it->second];
    protein.lookup_rows.push_back(RowHash({p, IsBlank(o) ? "_:" : o}));
    full_rows[it->second].push_back(RowHash({p, o}));
    const std::string& pred = t.predicate.lexical();
    if (pred == rdfdb::gen::kUpSequenceLength) {
      protein.length_nt = o;
    } else if (pred == rdfdb::gen::kUpCitation) {
      protein.citations.push_back(RowHash({o}));
      citers[t.object.lexical()].insert(RowHash({s}));
    } else if (pred == kSeeAlso) {
      see_also[t.object.lexical()].insert(RowHash({s}));
      see_also_statements.push_back(i);
    }
  }
  oracle.distinct_statements = distinct.size();
  oracle.read_proteins =
      oracle.proteins.size() - std::max<size_t>(1, oracle.proteins.size() / 64);
  for (size_t i = 0; i < oracle.proteins.size(); ++i) {
    Protein& protein = oracle.proteins[i];
    SortUnique(&protein.lookup_rows);
    SortUnique(&protein.citations);
    SortUnique(&full_rows[i]);
    protein.lookup_count = static_cast<uint32_t>(full_rows[i].size());
  }

  std::unordered_set<uint64_t> reified;
  std::unordered_set<uint64_t> assertions;
  for (const rdfdb::gen::ReifiedStatement& r : dataset.reified) {
    const uint64_t h = RowHash({r.base.subject.ToNTriples(),
                                r.base.predicate.ToNTriples(),
                                r.base.object.ToNTriples()});
    reified.insert(h);
    assertions.insert(RowHash({Angle(r.curator_uri)}) ^ h);
  }
  oracle.reified_statements = reified.size();
  oracle.curator_assertions = assertions.size();
  oracle.expected_triples = oracle.distinct_statements +
                            oracle.reified_statements +
                            oracle.curator_assertions;

  // The /reify pool: statements never reified, spread evenly over the
  // proteins. Large enough that no run at the benchmark's write rate
  // exhausts it.
  std::vector<uint32_t> candidates;
  for (uint32_t i : see_also_statements) {
    const NTriple& t = dataset.triples[i];
    if (!reified.count(RowHash({t.subject.ToNTriples(),
                                t.predicate.ToNTriples(),
                                t.object.ToNTriples()}))) {
      candidates.push_back(i);
    }
  }
  const size_t pool = std::min<size_t>(4096, candidates.size());
  for (size_t k = 0; k < pool; ++k) {
    const NTriple& t = dataset.triples[candidates[k * candidates.size() / pool]];
    oracle.unreified.push_back(
        Unreified{t.subject.lexical(), t.object.lexical()});
  }

  oracle.see_also = PopularKeys(&see_also, scan_rows);
  oracle.citations = PopularKeys(&citers, scan_rows);
  oracle.see_also_cdf = SkewedCdf(oracle.see_also.size());
  oracle.citation_cdf = SkewedCdf(oracle.citations.size());
  return oracle;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup: return "lookup";
    case OpKind::kJoin: return "join";
    case OpKind::kScan: return "scan";
    case OpKind::kInsert: return "insert";
    case OpKind::kReify: return "reify";
  }
  return "?";
}

Request NextPointRead(const Oracle& oracle, Rng* rng) {
  const Protein& protein = oracle.proteins[rng->Uniform(oracle.read_proteins)];
  if (rng->Uniform(2) == 0) {
    Request r = MakeQuery(OpKind::kLookup,
                          "(" + Angle(protein.uri) + " ?p ?o)", 0);
    r.protein = &protein;
    r.expected_rows = protein.lookup_count;
    return r;
  }
  // Written selective-pattern-last: the planner has to find the
  // mnemonic probe on its own.
  Request r = MakeQuery(
      OpKind::kJoin,
      "(?p " + Angle(rdfdb::gen::kUpCitation) + " ?c) (?p " +
          Angle(rdfdb::gen::kUpSequenceLength) + " ?len) (?p " +
          Angle(rdfdb::gen::kUpMnemonic) + " \"" + protein.mnemonic + "\")",
      0);
  r.protein = &protein;
  r.expected_rows = protein.citations.size();
  return r;
}

Request NextScan(const Oracle& oracle, Rng* rng) {
  const ScanShape shape = static_cast<ScanShape>(rng->Uniform(3));
  Request r;
  if (shape == ScanShape::kSeeAlso && !oracle.see_also.empty()) {
    const ScanKey& key = oracle.see_also[DrawSkewed(oracle.see_also_cdf, rng)];
    r = MakeQuery(OpKind::kScan,
                  "(?s " + Angle(kSeeAlso) + " " + Angle(key.uri) + ")",
                  oracle.scan_rows);
    r.key = &key;
  } else if (shape == ScanShape::kChain3 && !oracle.citations.empty()) {
    const ScanKey& key =
        oracle.citations[DrawSkewed(oracle.citation_cdf, rng)];
    r = MakeQuery(OpKind::kScan,
                  "(?p " + Angle(rdfdb::gen::kUpCitation) + " " +
                      Angle(key.uri) + ") (?p " +
                      Angle(rdfdb::gen::kUpAnnotation) + " ?a) (?a " +
                      Angle(kComment) + " ?t)",
                  oracle.scan_rows);
    r.key = &key;
  } else {
    r = MakeQuery(OpKind::kScan,
                  "(?c " + Angle(rdfdb::gen::kUpCuratedBy) +
                      " ?stmt) (?stmt " + Angle(kRdfType) + " " +
                      Angle(kRdfStatement) + ")",
                  oracle.scan_rows);
    r.shape = ScanShape::kCurated;
    r.expected_rows = oracle.scan_rows;
    return r;
  }
  r.shape = shape;
  r.expected_rows = oracle.scan_rows;
  return r;
}

Request MakeInsert(const Oracle& oracle, Rng* rng, const std::string& tag) {
  const Protein& protein =
      oracle.proteins[oracle.read_proteins +
                      rng->Uniform(oracle.proteins.size() - oracle.read_proteins)];
  Request r;
  r.kind = OpKind::kInsert;
  r.method = "POST";
  r.target = std::string("/insert?model=") + kModel;
  r.body = Angle(protein.uri) + " " + Angle(kNoteProperty) +
           " \"servebench note " + tag + "\" .\n";
  r.expected_rows = 1;
  return r;
}

Request MakeReify(int64_t link_id) {
  Request r;
  r.kind = OpKind::kReify;
  r.method = "POST";
  r.target = std::string("/reify?model=") + kModel +
             "&id=" + std::to_string(link_id);
  r.link_id = link_id;
  return r;
}

std::string CheckReply(const Oracle& oracle, const Request& request,
                       const std::string& body) {
  if (request.kind == OpKind::kInsert) {
    return body.find("\"inserted\": 1,") != std::string::npos
               ? ""
               : "insert not acknowledged: " + body;
  }
  if (request.kind == OpKind::kReify) {
    return body.find("\"reified\": true") != std::string::npos
               ? ""
               : "reify not acknowledged: " + body;
  }
  ReplyCursor cursor(body);
  if (!cursor.SeekRows()) return "no rows array";
  // Small replies are checked row by row; large ones every 64th row
  // and the last, so the client spends little of the machine on checks.
  const bool check_all = request.expected_rows <= 64;
  std::vector<std::string> cells;
  std::vector<std::string> last;
  while (true) {
    const size_t index = cursor.rows();
    const bool check = check_all || index % 64 == 0 ||
                       index + 1 == request.expected_rows;
    if (!cursor.NextRow(&cells, check)) break;
    if (check) {
      std::string wrong = CheckRow(oracle, request, cells);
      if (!wrong.empty()) return wrong;
    }
  }
  if (!cursor.ok()) return "malformed rows array";
  const long long row_count = cursor.RowCount();
  if (cursor.rows() != request.expected_rows ||
      row_count != static_cast<long long>(request.expected_rows)) {
    return "expected " + std::to_string(request.expected_rows) +
           " rows, got " + std::to_string(cursor.rows()) +
           " (row_count " + std::to_string(row_count) + ")";
  }
  return "";
}

void CorruptExpectations(Oracle* oracle) {
  for (Protein& protein : oracle->proteins) ++protein.lookup_count;
}

}  // namespace servebench
