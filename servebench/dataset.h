// The benchmark's inputs and its answer key.
//
// The generated UniProt statements are handed to the store; the answer
// key is computed from the same statements by this file alone, never by
// asking the store: exact row counts for every lookup, join and scan
// key, and the row contents a reply may hold (kept as 64-bit hashes of
// the N-Triples cells so the key stays small next to the store).
//
// Requests are drawn from a seeded stream per client, so an untraced
// run and a traced run with the same seed replay the same requests.

#ifndef SERVEBENCH_DATASET_H_
#define SERVEBENCH_DATASET_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gen/uniprot_gen.h"

namespace servebench {

inline constexpr const char* kModel = "uniprot";
inline constexpr const char* kNoteProperty =
    "http://purl.uniprot.org/core/note";

/// N-Triples form of a URI.
inline std::string Angle(const std::string& uri) { return "<" + uri + ">"; }

/// Hash of one result row given as its cells' N-Triples texts.
uint64_t RowHash(std::initializer_list<std::string_view> cells);

/// Key of the assertion <curator, up:curatedBy, DBUri(link_id)>.
uint64_t CuratedKey(std::string_view curator_nt, int64_t link_id);

/// Small deterministic generator (splitmix64) for the request streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }

 private:
  uint64_t state_;
};

/// One bulk protein and everything a lookup or join on it must return.
struct Protein {
  std::string uri;
  std::string mnemonic;   ///< up:mnemonic lexical form
  std::string length_nt;  ///< up:sequenceLength object, N-Triples
  /// Distinct (predicate, object) rows of `(<uri> ?p ?o)`. Blank-node
  /// objects hash with the object written as "_:", because the store
  /// relabels blank nodes per model.
  std::vector<uint64_t> lookup_rows;  ///< sorted
  uint32_t lookup_count = 0;
  std::vector<uint64_t> citations;  ///< sorted hashes of citation N-Triples
};

/// A scan key and the hashes of every first-column value it can return.
struct ScanKey {
  std::string uri;
  size_t total = 0;  ///< rows without LIMIT
  std::unordered_set<uint64_t> members;
};

/// A generated statement that exists in the store and is not reified:
/// the pool `/reify` draws from.
struct Unreified {
  std::string subject;
  std::string object;
};

struct Oracle {
  std::vector<Protein> proteins;
  /// Reads draw from proteins [0, read_proteins); inserts add statements
  /// about the rest, so no read's answer depends on a concurrent write.
  size_t read_proteins = 0;
  /// Scan keys with at least `scan_rows` rows, most popular first.
  std::vector<ScanKey> see_also;
  std::vector<ScanKey> citations;
  std::vector<double> see_also_cdf;  ///< skewed draw: weight 1/(rank+1)
  std::vector<double> citation_cdf;
  /// Rows every scan returns (its LIMIT).
  size_t scan_rows = 0;
  /// Triples the model must hold after setup: distinct statements, plus
  /// one streamlined reification row per distinct reified statement,
  /// plus one row per distinct curator assertion.
  size_t expected_triples = 0;
  size_t distinct_statements = 0;
  size_t reified_statements = 0;
  size_t curator_assertions = 0;
  /// Filled during set-up from the link ids the store gave the reified
  /// statements: CuratedKey(curator, LINK_ID) of every assertion.
  std::unordered_set<uint64_t> curated;
  std::vector<Unreified> unreified;
};

/// Build the answer key for `dataset`; `scan_rows` is the scan LIMIT.
Oracle BuildOracle(const rdfdb::gen::UniProtDataset& dataset,
                   size_t scan_rows);

enum class OpKind { kLookup, kJoin, kScan, kInsert, kReify };
const char* OpKindName(OpKind kind);

enum class ScanShape { kSeeAlso, kChain3, kCurated };

/// One request plus what its reply must contain.
struct Request {
  OpKind kind = OpKind::kLookup;
  ScanShape shape = ScanShape::kSeeAlso;
  std::string method;
  std::string target;
  std::string body;
  std::string pattern;  ///< the /query pattern text (reads only)
  size_t limit = 0;     ///< /query limit (0 = none)
  size_t expected_rows = 0;
  const Protein* protein = nullptr;
  const ScanKey* key = nullptr;
  int64_t link_id = -1;  ///< /reify target
};

/// A read request: the lookup/join mix (half each) or one scan shape.
Request NextPointRead(const Oracle& oracle, Rng* rng);
Request NextScan(const Oracle& oracle, Rng* rng);
/// A single-statement insert of a fresh statement about a protein.
Request MakeInsert(const Oracle& oracle, Rng* rng, const std::string& tag);
Request MakeReify(int64_t link_id);

/// Check a 200 reply against the answer key. Returns "" when the reply
/// is right, else what is wrong.
std::string CheckReply(const Oracle& oracle, const Request& request,
                       const std::string& body);

/// Deliberately corrupt the expected row count of every lookup (the
/// benchmark's negative test: the checker must report the mismatch).
void CorruptExpectations(Oracle* oracle);

}  // namespace servebench

#endif  // SERVEBENCH_DATASET_H_
