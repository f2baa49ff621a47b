#include "rdf/term_dict.h"

#include <cstring>
#include <limits>

#include "common/hash.h"
#include "common/string_util.h"

namespace rdfdb::rdf {

namespace {

/// The kind the Term factories give a decoded row: long literals by
/// length, a plain literal's tag by whether it has one.
TermKind KindOfRow(const ValueStore::RowTerm& t) {
  const bool is_long = t.lexical.size() > kLongLiteralThreshold;
  switch (t.kind) {
    case TermKind::kUri:
    case TermKind::kBlankNode:
      return t.kind;
    case TermKind::kTypedLiteral:
    case TermKind::kTypedLongLiteral:
      return is_long ? TermKind::kTypedLongLiteral : TermKind::kTypedLiteral;
    case TermKind::kPlainLiteral:
    case TermKind::kPlainLiteralLang:
    case TermKind::kPlainLongLiteral:
      break;
  }
  if (is_long) return TermKind::kPlainLongLiteral;
  return t.language.empty() ? TermKind::kPlainLiteral
                            : TermKind::kPlainLiteralLang;
}

}  // namespace

TermDict::HashTable::HashTable(size_t capacity)
    : slots(capacity), mask(capacity - 1) {}

TermDict::TermDict() {
  static_assert(sizeof(Entry) <= 24);
  term_table_.store(new HashTable(1024), std::memory_order_relaxed);
  id_table_.store(new HashTable(1024), std::memory_order_relaxed);
  bn_table_.store(new HashTable(256), std::memory_order_relaxed);
}

TermDict::~TermDict() {
  delete term_table_.load(std::memory_order_relaxed);
  delete id_table_.load(std::memory_order_relaxed);
  delete bn_table_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxChunks; ++i) {
    Chunk* chunk = chunks_[i].load(std::memory_order_relaxed);
    if (chunk == nullptr) break;
    delete chunk;
  }
}

uint64_t TermDict::SpellingKey(std::string_view spelling) {
  return Mix(Fnv1a64(spelling));
}

uint64_t TermDict::BlankKey(int64_t model_id, std::string_view label) {
  return Mix(HashCombine(static_cast<uint64_t>(model_id), Fnv1a64(label)));
}

TermDict::BlankScope TermDict::ScopeOf(const Entry& entry) {
  // Arena layout after a blank node's spelling: model id, label length,
  // label bytes (unaligned, so copied out).
  const char* p = entry.text + entry.size;
  BlankScope scope{};
  uint32_t label_size = 0;
  std::memcpy(&scope.model_id, p, sizeof(scope.model_id));
  std::memcpy(&label_size, p + sizeof(int64_t), sizeof(label_size));
  scope.label = std::string_view(p + sizeof(int64_t) + sizeof(uint32_t),
                                 label_size);
  return scope;
}

uint64_t TermDict::KeyFor(TableKind kind, const Entry& entry) {
  switch (kind) {
    case TableKind::kId:
      return Mix(static_cast<uint64_t>(entry.id));
    case TableKind::kBlank: {
      const BlankScope scope = ScopeOf(entry);
      return BlankKey(scope.model_id, scope.label);
    }
    case TableKind::kTerm:
      return SpellingKey(TextOf(entry));
  }
  return 0;
}

char* TermDict::ArenaAllocate(size_t n) {
  if (n > kArenaChunkBytes / 4) {
    arena_blocks_.emplace_back(new char[n]);
    arena_bytes_ += n;
    return arena_blocks_.back().get();
  }
  if (n > arena_left_) {
    arena_blocks_.emplace_back(new char[kArenaChunkBytes]);
    arena_bytes_ += kArenaChunkBytes;
    arena_next_ = arena_blocks_.back().get();
    arena_left_ = kArenaChunkBytes;
  }
  char* p = arena_next_;
  arena_next_ += n;
  arena_left_ -= n;
  return p;
}

size_t TermDict::AppendEntry(const Entry& entry) {
  const size_t index = count_.load(std::memory_order_relaxed);
  const size_t chunk_i = index >> kChunkShift;
  Chunk* chunk = chunks_[chunk_i].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_i].store(chunk, std::memory_order_release);
  }
  if (index == 0) first_id_ = entry.id;
  (*chunk)[index & (kChunkSize - 1)] = entry;
  // Readers reach an entry through a table slot, release-stored after
  // this, or through FindById's direct probe below this count.
  count_.store(index + 1, std::memory_order_release);
  return index;
}

void TermDict::TableInsert(std::atomic<HashTable*>* table_ptr,
                           TableKind kind, size_t entry_index) {
  HashTable* table = table_ptr->load(std::memory_order_relaxed);
  if ((table->count + 1) * 10 >= (table->mask + 1) * 7) {
    // Build the doubled table offline (plain stores — the release
    // publish of the pointer orders them), publish it, and park the
    // superseded one so in-flight readers stay valid.
    auto grown = std::make_unique<HashTable>(2 * (table->mask + 1));
    for (size_t i = 0; i <= table->mask; ++i) {
      const uint32_t v = table->slots[i].load(std::memory_order_relaxed);
      if (v == 0) continue;
      const uint64_t key = KeyFor(kind, EntryAt(v - 1));
      size_t j = key & grown->mask;
      while (grown->slots[j].load(std::memory_order_relaxed) != 0) {
        j = (j + 1) & grown->mask;
      }
      grown->slots[j].store(v, std::memory_order_relaxed);
    }
    grown->count = table->count;
    HashTable* published = grown.release();
    table_ptr->store(published, std::memory_order_release);
    graveyard_.emplace_back(table);
    table = published;
  }

  const uint64_t key = KeyFor(kind, EntryAt(entry_index));
  for (size_t i = key & table->mask;; i = (i + 1) & table->mask) {
    if (table->slots[i].load(std::memory_order_relaxed) != 0) continue;
    // Entry contents were written before this release-store; a reader
    // that acquire-loads the slot sees them complete.
    table->slots[i].store(static_cast<uint32_t>(entry_index + 1),
                          std::memory_order_release);
    table->count += 1;
    return;
  }
}

Status TermDict::Ingest(const ValueStore& values) {
  const size_t total = values.table().row_count();  // rows are dense
  std::string spelling;
  for (size_t r = ingested_rows_; r < total; ++r) {
    Result<ValueStore::RowTerm> row =
        values.DecodeRow(static_cast<storage::RowId>(r));
    if (!row.ok()) {
      return Status::Corruption("dictionary ingest: " +
                                row.status().message());
    }
    const ValueStore::RowTerm& t = *row;
    spelling.assign(t.lexical);
    SpellNTriples(t.kind, t.language, t.datatype, 0, &spelling);
    if (spelling.size() > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("VALUE_ID " + std::to_string(t.id) +
                                     " is spelled in more than 4 GiB");
    }
    std::optional<std::pair<int64_t, std::string>> scope;
    size_t bytes = spelling.size();
    if (t.kind == TermKind::kBlankNode) {
      scope = values.LookupBlankLabel(t.id);
      if (!scope.has_value()) {
        return Status::Corruption("blank node VALUE_ID " +
                                  std::to_string(t.id) +
                                  " has no rdf_blank_node$ mapping");
      }
      bytes += sizeof(int64_t) + sizeof(uint32_t) + scope->second.size();
    }

    // The bytes are complete before the entry that points at them is
    // published (AppendEntry's and TableInsert's release-stores).
    char* text = ArenaAllocate(bytes);
    std::memcpy(text, spelling.data(), spelling.size());
    if (scope.has_value()) {
      const uint32_t label_size = static_cast<uint32_t>(scope->second.size());
      char* p = text + spelling.size();
      std::memcpy(p, &scope->first, sizeof(int64_t));
      std::memcpy(p + sizeof(int64_t), &label_size, sizeof(label_size));
      std::memcpy(p + sizeof(int64_t) + sizeof(uint32_t),
                  scope->second.data(), label_size);
    }
    Entry entry;
    entry.text = text;
    entry.size = static_cast<uint32_t>(spelling.size());
    entry.flags = static_cast<uint32_t>(KindOfRow(t));
    if (FindEscapable(spelling) == spelling.size()) entry.flags |= kJsonClean;
    entry.id = t.id;

    const size_t index = AppendEntry(entry);
    TableInsert(&id_table_, TableKind::kId, index);
    if (scope.has_value()) {
      TableInsert(&bn_table_, TableKind::kBlank, index);
    } else {
      TableInsert(&term_table_, TableKind::kTerm, index);
    }
    ingested_rows_ = r + 1;
  }
  return Status::OK();
}

size_t TermDict::ApproxBytes() const {
  const size_t count = count_.load(std::memory_order_acquire);
  const size_t chunks = (count + kChunkSize - 1) >> kChunkShift;
  size_t n = chunks * sizeof(Chunk) + arena_bytes_ +
             arena_blocks_.capacity() * sizeof(arena_blocks_[0]);
  auto table_bytes = [](const HashTable* table) {
    return sizeof(HashTable) +
           table->slots.size() * sizeof(std::atomic<uint32_t>);
  };
  n += table_bytes(term_table_.load(std::memory_order_acquire));
  n += table_bytes(id_table_.load(std::memory_order_acquire));
  n += table_bytes(bn_table_.load(std::memory_order_acquire));
  for (const auto& parked : graveyard_) n += table_bytes(parked.get());
  return n;
}

std::optional<ValueId> TermDict::Lookup(const Term& term) const {
  if (term.is_blank()) return std::nullopt;
  // One spelling names one term, so equal spellings are equal terms.
  const std::string spelling = term.ToNTriples();
  const HashTable* table = term_table_.load(std::memory_order_acquire);
  const uint64_t key = SpellingKey(spelling);
  for (size_t i = key & table->mask;; i = (i + 1) & table->mask) {
    const uint32_t v = table->slots[i].load(std::memory_order_acquire);
    if (v == 0) return std::nullopt;
    const Entry& entry = EntryAt(v - 1);
    if (entry.size == spelling.size() &&
        std::memcmp(entry.text, spelling.data(), spelling.size()) == 0) {
      return entry.id;
    }
  }
}

std::optional<ValueId> TermDict::LookupBlank(int64_t model_id,
                                             std::string_view label) const {
  const HashTable* table = bn_table_.load(std::memory_order_acquire);
  const uint64_t key = BlankKey(model_id, label);
  for (size_t i = key & table->mask;; i = (i + 1) & table->mask) {
    const uint32_t v = table->slots[i].load(std::memory_order_acquire);
    if (v == 0) return std::nullopt;
    const Entry& entry = EntryAt(v - 1);
    const BlankScope scope = ScopeOf(entry);
    if (scope.model_id == model_id && scope.label == label) return entry.id;
  }
}

const TermDict::Entry* TermDict::FindById(ValueId value_id) const {
  // Direct probe: with no gap in the VALUE_ID sequence the entry sits at
  // index value_id - first_id_, one load instead of a table probe.
  const size_t count = count_.load(std::memory_order_acquire);
  if (count > 0 && value_id >= first_id_ &&
      static_cast<uint64_t>(value_id - first_id_) < count) {
    const Entry& entry = EntryAt(static_cast<size_t>(value_id - first_id_));
    if (entry.id == value_id) return &entry;
  }
  const HashTable* table = id_table_.load(std::memory_order_acquire);
  const uint64_t key = Mix(static_cast<uint64_t>(value_id));
  for (size_t i = key & table->mask;; i = (i + 1) & table->mask) {
    const uint32_t v = table->slots[i].load(std::memory_order_acquire);
    if (v == 0) return nullptr;
    const Entry& entry = EntryAt(v - 1);
    if (entry.id == value_id) return &entry;
  }
}

Result<Term> TermDict::TermForValueId(ValueId value_id) const {
  const Entry* entry = FindById(value_id);
  if (entry == nullptr) {
    return Status::NotFound("VALUE_ID " + std::to_string(value_id));
  }
  return TermFromSpelling(KindOf(*entry), TextOf(*entry));
}

Status TermDict::AppendNTriples(ValueId value_id, std::string* out) const {
  const Entry* entry = FindById(value_id);
  if (entry == nullptr) {
    return Status::NotFound("VALUE_ID " + std::to_string(value_id));
  }
  out->append(entry->text, entry->size);
  return Status::OK();
}

std::optional<TermDict::Spelling> TermDict::SpellingOf(
    ValueId value_id) const {
  const Entry* entry = FindById(value_id);
  if (entry == nullptr) return std::nullopt;
  return Spelling{TextOf(*entry), (entry->flags & kJsonClean) != 0};
}

}  // namespace rdfdb::rdf
