// TermDict: a lock-free-reader view of the rdf_value$ dictionary that
// holds every term spelled as it is served.
//
// The snapshot store's readers must resolve constants (Term → VALUE_ID)
// and write result terms (VALUE_ID → text) without touching the
// storage-layer indexes the writer is concurrently mutating. rdf_value$
// is append-only (values are never deleted, even on model drop), so a
// single-writer dictionary that ingests the new rows at each publish
// and exposes open-addressing tables published by release-store gives
// readers exact ValueStore::Lookup/GetTerm semantics with zero locks.
//
// Each term is stored once, as its finished N-Triples spelling (<uri>,
// _:label, "text"@lang, "text"^^<dt>), in an append-only arena:
//
//   * the arena is a list of fixed-size chunks that never move; a
//     spelling too large for a chunk gets a block of its own. Bytes are
//     written before the entry that points at them is published, so a
//     reader that reaches an entry reads complete bytes;
//   * an entry is 24 bytes: the spelling's address and length, a flags
//     word (TermKind, JSON-clean) and the VALUE_ID. Entries live in
//     chunked arrays with stable addresses (never moved, never freed
//     before the dict itself);
//   * each hash table is an array of atomic slots holding entry
//     indexes; the writer fills the entry, then release-stores the
//     slot, so a reader's acquire-load of the slot sees a complete
//     entry. Growth builds a fresh table offline, recomputing each key
//     from the entry, and publishes it with a release-store of the
//     table pointer; superseded tables are parked in a writer-owned
//     graveyard (geometric growth bounds the waste) so no reader can
//     ever touch freed memory.
//
// So AppendNTriples is one append, and the /query renderer copies a
// JSON-clean spelling between two quotes with no decode and no escape
// pass. Lookup hashes the constant's spelling and compares lengths,
// then bytes: a spelling names exactly one term, so this is
// ValueStore::Lookup's equality, its long-literal full-text check
// included. TermForValueId parses the spelling back into the identical
// Term (the cold path). Blank nodes are model-scoped: each keeps its
// (model, label) in the arena right after its spelling and lives in its
// own (model, label) table.

#ifndef RDFDB_RDF_TERM_DICT_H_
#define RDFDB_RDF_TERM_DICT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
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
  /// call, spelling each new term once into the arena. Entries are
  /// published in row (= VALUE_ID) order.
  Status Ingest(const ValueStore& values);

  /// VALUE_ID of a non-blank term (ValueStore::Lookup semantics,
  /// including the long-literal full-text check).
  std::optional<ValueId> Lookup(const Term& term) const;

  /// VALUE_ID of a model-scoped blank node.
  std::optional<ValueId> LookupBlank(int64_t model_id,
                                     std::string_view label) const;

  /// Reconstruct the term stored under `value_id` (ValueStore::GetTerm
  /// semantics, including its NotFound message).
  Result<Term> TermForValueId(ValueId value_id) const;

  /// Append the N-Triples spelling of the term stored under `value_id`
  /// to `*out` (== TermForValueId(value_id)->ToNTriples()): one append
  /// from the arena. NotFound leaves `*out` unchanged.
  Status AppendNTriples(ValueId value_id, std::string* out) const;

  /// A stored spelling, as a renderer reads it.
  struct Spelling {
    std::string_view text;  ///< the N-Triples spelling, in the arena
    /// No byte of `text` is one JSON escapes (a control character, '"'
    /// or '\\'), so the JSON string of `text` is `text` in quotes.
    bool json_clean = false;
  };

  /// The spelling stored under `value_id`, or nullopt when it was never
  /// ingested. The view lives as long as the dict.
  std::optional<Spelling> SpellingOf(ValueId value_id) const;

  /// Entries ingested so far.
  size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Approximate heap bytes: entry chunks, arena blocks, the three live
  /// hash tables and the graveyard of superseded tables. Writer context
  /// only (walks writer-owned bookkeeping).
  size_t ApproxBytes() const;

 private:
  struct Entry {
    const char* text = nullptr;  ///< spelling in the arena
    uint32_t size = 0;           ///< spelling bytes
    uint32_t flags = 0;          ///< TermKind | kJsonClean
    ValueId id = 0;
  };
  static constexpr uint32_t kKindMask = 0xff;
  static constexpr uint32_t kJsonClean = 0x100;

  static TermKind KindOf(const Entry& entry) {
    return static_cast<TermKind>(entry.flags & kKindMask);
  }
  static std::string_view TextOf(const Entry& entry) {
    return std::string_view(entry.text, entry.size);
  }

  /// A blank node's scope, stored in the arena after its spelling.
  struct BlankScope {
    int64_t model_id;
    std::string_view label;
  };
  static BlankScope ScopeOf(const Entry& entry);

  // Chunked entry spine: stable addresses, lock-free append.
  static constexpr size_t kChunkShift = 12;  // 4096 entries per chunk
  static constexpr size_t kChunkSize = size_t{1} << kChunkShift;
  static constexpr size_t kMaxChunks = 1 << 16;  // 256M entries
  using Chunk = std::array<Entry, kChunkSize>;

  /// Spelling arena chunk size; an allocation above a quarter of it
  /// gets a block of its own, so a chunk wastes at most that quarter.
  static constexpr size_t kArenaChunkBytes = size_t{1} << 16;

  /// Open-addressing table of entry indexes (+1; 0 = empty slot).
  struct HashTable {
    explicit HashTable(size_t capacity);
    std::vector<std::atomic<uint32_t>> slots;
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

  /// Writer: `n` bytes of arena that never move.
  char* ArenaAllocate(size_t n);

  /// Writer: append a fully-built entry; returns its index.
  size_t AppendEntry(const Entry& entry);

  /// Writer: insert `entry_index` into `table`, growing (build offline,
  /// release-publish, park the old table) when past 70% load.
  void TableInsert(std::atomic<HashTable*>* table, TableKind kind,
                   size_t entry_index);

  /// The probe key an entry carries in a given table.
  static uint64_t KeyFor(TableKind kind, const Entry& entry);

  static uint64_t Mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
  }
  static uint64_t SpellingKey(std::string_view spelling);
  static uint64_t BlankKey(int64_t model_id, std::string_view label);

  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  /// Entries published so far (release-stored after each entry is
  /// complete, so an entry below an acquired count is safe to read).
  std::atomic<size_t> count_{0};
  /// VALUE_ID of entry 0, written before the first count_ publish.
  /// Entries arrive in ascending VALUE_ID order, so while the sequence
  /// has no gaps entry i holds first_id_ + i (FindById's direct probe).
  ValueId first_id_ = 0;

  std::atomic<HashTable*> term_table_;  ///< non-blank terms, key spelling
  std::atomic<HashTable*> id_table_;    ///< all entries, key VALUE_ID
  std::atomic<HashTable*> bn_table_;    ///< blank nodes, key (model, label)

  /// Superseded tables, kept alive until the dict dies so in-flight
  /// readers stay safe without per-table reclamation.
  std::vector<std::unique_ptr<HashTable>> graveyard_;

  /// Arena blocks: whole chunks and oversized spellings. Writer-owned;
  /// readers reach the bytes only through published entries.
  std::vector<std::unique_ptr<char[]>> arena_blocks_;
  char* arena_next_ = nullptr;  ///< free space in the current chunk
  size_t arena_left_ = 0;
  size_t arena_bytes_ = 0;  ///< bytes of every block allocated

  size_t ingested_rows_ = 0;  ///< rdf_value$ rows absorbed so far
};

}  // namespace rdfdb::rdf

#endif  // RDFDB_RDF_TERM_DICT_H_
