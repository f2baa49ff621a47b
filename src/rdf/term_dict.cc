#include "rdf/term_dict.h"

#include <algorithm>

#include "common/hash.h"
#include "storage/table.h"

namespace rdfdb::rdf {

namespace {

// rdf_value$ column positions (mirrors value_store.cc).
constexpr size_t kValueId = 0;
constexpr size_t kValueName = 1;
constexpr size_t kValueType = 2;
constexpr size_t kLiteralType = 3;
constexpr size_t kLanguageType = 4;
constexpr size_t kLongValue = 5;

}  // namespace

TermDict::HashTable::HashTable(size_t capacity)
    : slots(capacity), mask(capacity - 1) {}

TermDict::TermDict() {
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

uint64_t TermDict::BlankKey(int64_t model_id, const std::string& label) {
  return Mix(HashCombine(static_cast<uint64_t>(model_id), Fnv1a64(label)));
}

uint64_t TermDict::KeyFor(TableKind kind, const Entry& entry) const {
  switch (kind) {
    case TableKind::kId:
      return Mix(static_cast<uint64_t>(entry.id));
    case TableKind::kBlank:
      return BlankKey(entry.bn_model, entry.bn_label);
    case TableKind::kTerm:
      return Mix(entry.term_hash);
  }
  return 0;
}

Term TermDict::MaterializeTerm(const Entry& entry) const {
  std::string text = entry.pack->Get(entry.pack_slot);
  switch (entry.kind) {
    case TermKind::kUri:
      return Term::Uri(std::move(text));
    case TermKind::kBlankNode:
      return Term::BlankNode(std::move(text));
    case TermKind::kTypedLiteral:
    case TermKind::kTypedLongLiteral:
      return Term::TypedLiteral(std::move(text), entry.datatype);
    case TermKind::kPlainLiteralLang:
      return Term::PlainLiteralLang(std::move(text), entry.language);
    case TermKind::kPlainLiteral:
    case TermKind::kPlainLongLiteral:
      // Long plain literals may carry a language tag (type code PLL);
      // re-run the factory the ingest path used.
      return entry.language.empty()
                 ? Term::PlainLiteral(std::move(text))
                 : Term::PlainLiteralLang(std::move(text), entry.language);
  }
  return Term();
}

size_t TermDict::AppendEntry(Entry entry) {
  entry_string_bytes_ += entry.language.capacity() +
                         entry.datatype.capacity() +
                         entry.bn_label.capacity();
  const size_t index = count_.load(std::memory_order_relaxed);
  const size_t chunk_i = index >> kChunkShift;
  Chunk* chunk = chunks_[chunk_i].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Chunk();
    chunks_[chunk_i].store(chunk, std::memory_order_release);
  }
  if (index == 0) first_id_ = entry.id;
  (*chunk)[index & (kChunkSize - 1)] = std::move(entry);
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
      const uint64_t v = table->slots[i].load(std::memory_order_relaxed);
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
    table->slots[i].store(static_cast<uint64_t>(entry_index) + 1,
                          std::memory_order_release);
    table->count += 1;
    return;
  }
}

Status TermDict::Ingest(const ValueStore& values) {
  const storage::Table& table = values.table();
  const size_t total = table.row_count();  // append-only: rows are dense
  if (total == ingested_rows_) return Status::OK();

  // Pass 1: build each new row's full Term (hash, factory fields) and
  // collect its lexical text for the batch's front-coded pack.
  const size_t batch = total - ingested_rows_;
  std::vector<Entry> entries;
  std::vector<std::string> texts;
  entries.reserve(batch);
  texts.reserve(batch);
  for (size_t r = ingested_rows_; r < total; ++r) {
    const storage::Row* row = table.Get(static_cast<storage::RowId>(r));
    if (row == nullptr) {
      return Status::Corruption("rdf_value$ row " + std::to_string(r) +
                                " missing during dictionary ingest");
    }
    Entry entry;
    entry.id = row->at(kValueId).as_int64();
    const std::string& type_code = row->at(kValueType).as_string();
    const std::string& name = row->at(kValueName).as_string();
    Term term;
    if (type_code == "UR") {
      term = Term::Uri(name);
    } else if (type_code == "BN") {
      term = Term::BlankNode(name.substr(2));
      entry.is_blank = true;
      auto scope = values.LookupBlankLabel(entry.id);
      if (!scope.has_value()) {
        return Status::Corruption("blank node VALUE_ID " +
                                  std::to_string(entry.id) +
                                  " has no rdf_blank_node$ mapping");
      }
      entry.bn_model = scope->first;
      entry.bn_label = scope->second;
    } else {
      std::string text = row->at(kLongValue).is_null()
                             ? name
                             : row->at(kLongValue).as_clob();
      if (type_code == "PL" || type_code == "PLL") {
        std::string lang = row->at(kLanguageType).is_null()
                               ? ""
                               : row->at(kLanguageType).as_string();
        term = lang.empty()
                   ? Term::PlainLiteral(std::move(text))
                   : Term::PlainLiteralLang(std::move(text),
                                            std::move(lang));
      } else if (type_code == "PL@") {
        term = Term::PlainLiteralLang(std::move(text),
                                      row->at(kLanguageType).as_string());
      } else if (type_code == "TL" || type_code == "TLL") {
        term = Term::TypedLiteral(std::move(text),
                                  row->at(kLiteralType).as_string());
      } else {
        return Status::Corruption("unknown VALUE_TYPE " + type_code);
      }
    }
    entry.term_hash = term.Hash();
    entry.kind = term.kind();
    entry.datatype = term.datatype();
    entry.language = term.language();
    texts.push_back(term.lexical());
    entries.push_back(std::move(entry));
  }

  // Pass 2: pack the batch's lexical forms, sorted so shared prefixes
  // (URI namespaces, id runs) actually neighbor each other. The pack
  // is complete — and its address final — before any entry referencing
  // it is published through a table slot.
  std::vector<uint32_t> order(batch);
  for (uint32_t i = 0; i < batch; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return texts[a] < texts[b];
  });
  codec::FrontCodedPackBuilder builder;
  for (uint32_t i : order) {
    entries[i].pack_slot = builder.Add(texts[i]);
  }
  auto pack = std::make_unique<codec::FrontCodedPack>(builder.Build());
  pack_bytes_ += pack->ApproxBytes();
  const codec::FrontCodedPack* pack_ptr = pack.get();
  packs_.push_back(std::move(pack));

  // Pass 3: publish entries in row order (VALUE_ID order), exactly as
  // the one-at-a-time ingest did.
  for (Entry& entry : entries) {
    entry.pack = pack_ptr;
    const bool is_blank = entry.is_blank;
    const size_t index = AppendEntry(std::move(entry));
    TableInsert(&id_table_, TableKind::kId, index);
    if (is_blank) {
      TableInsert(&bn_table_, TableKind::kBlank, index);
    } else {
      TableInsert(&term_table_, TableKind::kTerm, index);
    }
  }
  ingested_rows_ = total;
  return Status::OK();
}

size_t TermDict::ApproxBytes() const {
  const size_t count = count_.load(std::memory_order_acquire);
  const size_t chunks = (count + kChunkSize - 1) >> kChunkShift;
  size_t n = chunks * sizeof(Chunk) + entry_string_bytes_ + pack_bytes_ +
             packs_.capacity() * sizeof(packs_[0]);
  auto table_bytes = [](const HashTable* table) {
    return table == nullptr
               ? size_t{0}
               : sizeof(HashTable) +
                     table->slots.size() * sizeof(std::atomic<uint64_t>);
  };
  n += table_bytes(term_table_.load(std::memory_order_acquire));
  n += table_bytes(id_table_.load(std::memory_order_acquire));
  n += table_bytes(bn_table_.load(std::memory_order_acquire));
  for (const auto& parked : graveyard_) n += table_bytes(parked.get());
  return n;
}

std::optional<ValueId> TermDict::Lookup(const Term& term) const {
  if (term.is_blank()) return std::nullopt;
  const HashTable* table = term_table_.load(std::memory_order_acquire);
  const uint64_t hash = term.Hash();
  const uint64_t key = Mix(hash);
  for (size_t i = key & table->mask;; i = (i + 1) & table->mask) {
    const uint64_t v = table->slots[i].load(std::memory_order_acquire);
    if (v == 0) return std::nullopt;
    const Entry& entry = EntryAt(v - 1);
    // Hash-reject before touching the pack: only a (rare) full 64-bit
    // collision pays a front-coded decode without a hit.
    if (!entry.is_blank && entry.term_hash == hash &&
        MaterializeTerm(entry) == term) {
      return entry.id;
    }
  }
}

std::optional<ValueId> TermDict::LookupBlank(
    int64_t model_id, const std::string& label) const {
  const HashTable* table = bn_table_.load(std::memory_order_acquire);
  const uint64_t key = BlankKey(model_id, label);
  for (size_t i = key & table->mask;; i = (i + 1) & table->mask) {
    const uint64_t v = table->slots[i].load(std::memory_order_acquire);
    if (v == 0) return std::nullopt;
    const Entry& entry = EntryAt(v - 1);
    if (entry.is_blank && entry.bn_model == model_id &&
        entry.bn_label == label) {
      return entry.id;
    }
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
    const uint64_t v = table->slots[i].load(std::memory_order_acquire);
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
  return MaterializeTerm(*entry);
}

Status TermDict::AppendNTriples(ValueId value_id, std::string* out) const {
  const Entry* entry = FindById(value_id);
  if (entry == nullptr) {
    return Status::NotFound("VALUE_ID " + std::to_string(value_id));
  }
  const size_t start = out->size();
  entry->pack->AppendTo(entry->pack_slot, out);
  SpellNTriples(entry->kind, entry->language, entry->datatype, start, out);
  return Status::OK();
}

}  // namespace rdfdb::rdf
