// ValueStore: binding over the central-schema rdf_value$ table.
//
// "The rdf_value$ table stores the text values (i.e. URIs, blank nodes,
// and literals) for a triple. Each text entry is uniquely stored." This
// class owns lookup-or-insert deduplication, long-literal spill into
// LONG_VALUE, and the model-scoped blank-node mapping (rdf_blank_node$).

#ifndef RDFDB_RDF_VALUE_STORE_H_
#define RDFDB_RDF_VALUE_STORE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdf/term.h"
#include "storage/database.h"

namespace rdfdb::obs {
struct StoreMetrics;
}  // namespace rdfdb::obs

namespace rdfdb::rdf {

/// VALUE_ID type (rdf_value$ primary key).
using ValueId = int64_t;

/// Central deduplicated term dictionary.
class ValueStore {
 public:
  /// Memo of already-resolved terms, carried across LookupOrInsertBatch
  /// calls by the bulk loader so each distinct term pays the rdf_value$
  /// index probe (and its DedupKey construction) only once per load.
  /// Blank-node entries are model-scoped: never share a cache across
  /// models.
  struct TermHash {
    size_t operator()(const Term& term) const {
      return static_cast<size_t>(term.Hash());
    }
  };
  using InternCache = std::unordered_map<Term, ValueId, TermHash>;
  /// Creates (or reattaches to) MDSYS.RDF_VALUE$, MDSYS.RDF_BLANK_NODE$
  /// and their sequences/indexes inside `db`.
  explicit ValueStore(storage::Database* db);

  /// Find the VALUE_ID for `term`, inserting a new row if absent.
  /// Blank nodes must go through LookupOrInsertBlank (they are
  /// model-scoped).
  Result<ValueId> LookupOrInsert(const Term& term);

  /// Find without inserting; nullopt if the term has never been stored.
  std::optional<ValueId> Lookup(const Term& term) const;

  /// Batched two-phase intern for the bulk loader: resolves every term in
  /// `terms` (in order) to its VALUE_ID, consulting and filling `cache`.
  /// New terms hit rdf_value$ in first-occurrence order, so VALUE_ID
  /// assignment is identical to a sequential LookupOrInsert /
  /// LookupOrInsertBlank walk over the same sequence. Blank nodes are
  /// scoped to `model_id`.
  Result<std::vector<ValueId>> LookupOrInsertBatch(
      int64_t model_id, const std::vector<const Term*>& terms,
      InternCache* cache);

  /// Model-scoped blank node: the same label in different models maps to
  /// different VALUE_IDs; within one model the mapping is stable.
  Result<ValueId> LookupOrInsertBlank(int64_t model_id,
                                      const std::string& label);
  std::optional<ValueId> LookupBlank(int64_t model_id,
                                     const std::string& label) const;

  /// Reverse mapping: the (model_id, original label) under which a blank
  /// node VALUE_ID was created (used by logical logging).
  std::optional<std::pair<int64_t, std::string>> LookupBlankLabel(
      ValueId value_id) const;

  /// A stored term as views into its rdf_value$ row: its VALUE_ID and
  /// the parts SpellNTriples takes. PL, PLL and PL@ rows decode to a
  /// plain-literal kind whose language (possibly empty) decides the
  /// "@lang" suffix; TL and TLL rows decode to kTypedLiteral. The views
  /// live as long as the row (rows are never updated or deleted).
  struct RowTerm {
    ValueId id = 0;
    TermKind kind = TermKind::kUri;
    std::string_view lexical;
    std::string_view language;
    std::string_view datatype;
  };

  /// Decode rdf_value$ row `row_id`. Rows are append-only and never
  /// deleted, so 0..table().row_count() are all present.
  Result<RowTerm> DecodeRow(storage::RowId row_id) const;

  /// Reconstruct the Term stored under `value_id`.
  Result<Term> GetTerm(ValueId value_id) const;

  /// Append the N-Triples spelling of the term stored under `value_id`
  /// (== GetTerm(value_id)->ToNTriples()) to `*out`, straight from the
  /// rdf_value$ row with no Term built.
  Status AppendNTriples(ValueId value_id, std::string* out) const;

  /// Full text of the value (reads LONG_VALUE for long literals). This is
  /// the paper's VALUE_NAME.GETURL()-style accessor.
  Result<std::string> GetText(ValueId value_id) const;

  /// VALUE_TYPE code of the stored value ("UR", "BN", "PL", ...).
  Result<std::string> GetTypeCode(ValueId value_id) const;

  /// Number of distinct values stored.
  size_t value_count() const;

  /// Approximate heap bytes held by rdf_value$ + rdf_blank_node$ (row
  /// data plus indexes) and the store's own lookup structures. Feeds
  /// RdfStore::MemoryUsage().
  size_t ApproxBytes() const {
    return values_->ApproxTotalBytes() + blank_nodes_->ApproxTotalBytes() +
           id_to_row_.capacity() * sizeof(int64_t) +
           fp_slots_.capacity() * sizeof(FpSlot);
  }

  /// Underlying table (benchmarks join against it directly, as the
  /// paper's Experiment I does).
  const storage::Table& table() const { return *values_; }
  storage::Table* mutable_table() { return values_; }

  /// Rebuild the VALUE_ID → row vector and the fingerprint dedup map
  /// from the rdf_value$ rows. Maintained in lockstep by the insert
  /// paths; this is for callers that populate the table behind the
  /// store's back (snapshot restore copies raw rows to preserve
  /// VALUE_IDs). The constructor runs it for reattach.
  void RebuildLookups();

  /// Attach the owning store's metric handles. Null (the default, and
  /// the state of standalone test instances) disables instrumentation.
  void set_metrics(obs::StoreMetrics* metrics) { metrics_ = metrics; }

 private:
  /// VALUE_NAME cell for a term — long literals store a fingerprint here
  /// and spill full text into LONG_VALUE.
  static std::string ValueNameFor(const Term& term);

  /// One slot of the fingerprint dedup map: 64-bit hash of the
  /// (VALUE_NAME, VALUE_TYPE, LITERAL_TYPE, LANGUAGE_TYPE) dedup key
  /// plus the row it names. The map replaces the old 4-column hash
  /// index, whose entries each carried a full copy of the lexical form
  /// in a ValueKey; hits are verified against the row, so a fingerprint
  /// collision costs an extra compare, never a wrong answer.
  struct FpSlot {
    uint64_t fp = 0;
    int64_t row = -1;  ///< RowId; -1 = empty slot
  };

  /// Fingerprint of a term's dedup key / of a stored row's key columns.
  /// The two must agree for every term: Lookup hashes the term,
  /// RegisterRow hashes the row it would have written.
  static uint64_t Fingerprint(const std::string& name,
                              const char* type_code,
                              const std::string& datatype,
                              const std::string& language);
  static uint64_t FingerprintRow(const storage::Row& row);

  /// DecodeRow of the row stored under `value_id`; NotFound names the id.
  Result<RowTerm> DecodeValueId(ValueId value_id) const;

  /// Track a newly visible rdf_value$ row in both lookup structures.
  void RegisterRow(storage::RowId row_id, const storage::Row& row);
  void FpInsert(uint64_t fp, storage::RowId row_id);

  /// Table RowId stored under VALUE_ID, or -1.
  int64_t RowForId(ValueId value_id) const {
    if (base_id_ < 0 || value_id < base_id_) return -1;
    const uint64_t off = static_cast<uint64_t>(value_id - base_id_);
    return off < id_to_row_.size() ? id_to_row_[off] : -1;
  }

  storage::Database* db_;
  storage::Table* values_;        // MDSYS.RDF_VALUE$
  storage::Table* blank_nodes_;   // MDSYS.RDF_BLANK_NODE$
  storage::Sequence* value_seq_;
  obs::StoreMetrics* metrics_ = nullptr;

  /// VALUE_ID → RowId, dense (ids come off an ascending sequence).
  int64_t base_id_ = -1;
  std::vector<int64_t> id_to_row_;
  /// Open-addressing fingerprint → RowId map (duplicate fingerprints
  /// occupy separate slots; rdf_value$ rows are never deleted, so no
  /// tombstones).
  std::vector<FpSlot> fp_slots_;
  size_t fp_used_ = 0;
  size_t fp_mask_ = 0;
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_VALUE_STORE_H_
