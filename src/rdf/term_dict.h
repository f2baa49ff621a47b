// TermDict: a lock-free-reader view of the rdf_value$ dictionary.
//
// The snapshot store's readers must resolve constants (Term → VALUE_ID)
// and materialize result terms (VALUE_ID → Term) without touching the
// storage-layer indexes the writer is concurrently mutating. rdf_value$
// is append-only (values are never deleted, even on model drop), so a
// single-writer dictionary that ingests the new rows at each publish
// and exposes open-addressing tables published by release-store gives
// readers exact ValueStore::Lookup/GetTerm semantics with zero locks:
//
//   * entries live in chunked arrays with stable addresses (never
//     moved, never freed before the dict itself);
//   * each hash table is an array of atomic slots holding entry
//     indexes; the writer fills the entry, then release-stores the
//     slot, so a reader's acquire-load of the slot sees a complete
//     entry;
//   * growth builds a fresh table offline and publishes it with a
//     release-store of the table pointer; superseded tables are parked
//     in a writer-owned graveyard (geometric growth bounds the waste)
//     so no reader can ever touch freed memory.
//
// Long literals are deduplicated by fingerprint in rdf_value$, but the
// dict keys entries by the full Term, so Lookup equality matches
// ValueStore::Lookup including its full-text collision check. Blank
// nodes are model-scoped and live in their own (model, label) table.
//
// Lexical forms are not stored per entry: each Ingest batch sorts its
// new strings and packs them into a front-coded block pack (shared
// prefix + suffix, see rdf/codec.h), and entries carry (pack, slot)
// references plus the term's 64-bit hash. Probes reject on the hash
// and materialize a candidate's text only on a hash match, so the
// lazy decode sits entirely behind the existing lookup API. Packs are
// writer-owned, immutable once built, and published before any entry
// referencing them, so readers may decode them freely.

#ifndef RDFDB_RDF_TERM_DICT_H_
#define RDFDB_RDF_TERM_DICT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "rdf/codec.h"
#include "rdf/term.h"
#include "rdf/value_store.h"

namespace rdfdb::rdf {

/// Single-writer, lock-free-reader term dictionary. The writer (the
/// snapshot store's publish path) calls Ingest; readers call the const
/// lookups concurrently with it.
class TermDict {
 public:
  TermDict();
  ~TermDict();
  TermDict(const TermDict&) = delete;
  TermDict& operator=(const TermDict&) = delete;

  /// Writer: absorb every rdf_value$ row appended since the previous
  /// call. Idempotent when nothing changed.
  Status Ingest(const ValueStore& values);

  /// VALUE_ID of a non-blank term; nullopt if never stored. Equality is
  /// full-term (ValueStore::Lookup semantics, including the long-literal
  /// full-text check).
  std::optional<ValueId> Lookup(const Term& term) const;

  /// VALUE_ID of a model-scoped blank node.
  std::optional<ValueId> LookupBlank(int64_t model_id,
                                     const std::string& label) const;

  /// Reconstruct the term stored under `value_id` (ValueStore::GetTerm
  /// semantics, including its NotFound message).
  Result<Term> TermForValueId(ValueId value_id) const;

  /// Append the N-Triples spelling of the term stored under `value_id`
  /// to `*out` (== TermForValueId(value_id)->ToNTriples()): the lexical
  /// form is decoded from its front-coded pack straight onto out's
  /// tail and spelled in place, with no Term built.
  Status AppendNTriples(ValueId value_id, std::string* out) const;

  /// Entries ingested so far.
  size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Approximate heap bytes: entry chunks, per-entry string storage
  /// (accumulated at ingest, so this is O(tables) not O(entries)), the
  /// three live hash tables, and the graveyard of superseded tables.
  /// Writer context only (walks writer-owned bookkeeping).
  size_t ApproxBytes() const;

 private:
  struct Entry {
    ValueId id = 0;
    uint64_t term_hash = 0;  ///< Term::Hash(); probes reject on this
    /// Lexical bytes live front-coded in a shared pack; the entry only
    /// references its slot. Immutable once the entry is published.
    const codec::FrontCodedPack* pack = nullptr;
    uint32_t pack_slot = 0;
    TermKind kind = TermKind::kUri;
    std::string datatype;   ///< typed literals only
    std::string language;   ///< language-tagged literals only
    int64_t bn_model = 0;   ///< blank nodes only
    std::string bn_label;   ///< blank nodes only (original label)
    bool is_blank = false;
  };

  /// Rebuild the full Term from an entry (front-coded text + the
  /// factory the ingest path used).
  Term MaterializeTerm(const Entry& entry) const;

  // Chunked entry spine: stable addresses, lock-free append.
  static constexpr size_t kChunkShift = 12;  // 4096 entries per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kMaxChunks = 1 << 16;  // 256M entries
  using Chunk = std::array<Entry, kChunkSize>;

  /// Open-addressing table of entry indexes (+1; 0 = empty slot).
  struct HashTable {
    explicit HashTable(size_t capacity);
    std::vector<std::atomic<uint64_t>> slots;
    size_t mask;
    size_t count = 0;  ///< writer-side occupancy
  };

  /// The entry of `value_id`, or null when it was never ingested.
  const Entry* FindById(ValueId value_id) const;

  const Entry& EntryAt(size_t index) const {
    return (*chunks_[index >> kChunkShift].load(
        std::memory_order_acquire))[index & (kChunkSize - 1)];
  }

  enum class TableKind { kTerm, kId, kBlank };

  /// Writer: append a fully-built entry; returns its index.
  size_t AppendEntry(Entry entry);

  /// Writer: insert `entry_index` into `table`, growing (build offline,
  /// release-publish, park the old table) when past 70% load.
  void TableInsert(std::atomic<HashTable*>* table, TableKind kind,
                   size_t entry_index);

  /// The probe key an entry carries in a given table.
  uint64_t KeyFor(TableKind kind, const Entry& entry) const;

  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }
  static uint64_t BlankKey(int64_t model_id, const std::string& label);

  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  /// Entries published so far (release-stored after each entry is
  /// complete, so an entry below an acquired count is safe to read).
  std::atomic<size_t> count_{0};
  /// VALUE_ID of entry 0, written before the first count_ publish.
  /// Entries arrive in ascending VALUE_ID order, so while the sequence
  /// has no gaps entry i holds first_id_ + i (FindById's direct probe).
  ValueId first_id_ = 0;

  std::atomic<HashTable*> term_table_;  ///< non-blank terms, key Term::Hash
  std::atomic<HashTable*> id_table_;    ///< all entries, key VALUE_ID
  std::atomic<HashTable*> bn_table_;    ///< blank nodes, key (model, label)

  /// Superseded tables, kept alive until the dict dies so in-flight
  /// readers stay safe without per-table reclamation.
  std::vector<std::unique_ptr<HashTable>> graveyard_;

  /// Front-coded lexical packs, one per Ingest batch with new rows.
  /// Stable addresses (entries hold raw pointers); never freed before
  /// the dict itself.
  std::vector<std::unique_ptr<codec::FrontCodedPack>> packs_;
  size_t pack_bytes_ = 0;  ///< cumulative pack heap bytes

  size_t ingested_rows_ = 0;  ///< rdf_value$ rows absorbed so far
  size_t entry_string_bytes_ = 0;  ///< string payload across all entries
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_TERM_DICT_H_
