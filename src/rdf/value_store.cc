#include "rdf/value_store.h"

#include <cinttypes>
#include <cstdio>

#include "common/hash.h"
#include "obs/store_metrics.h"

namespace rdfdb::rdf {

namespace {

using storage::ColumnDef;
using storage::IndexKind;
using storage::KeyExtractor;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueKey;
using storage::ValueType;

// rdf_value$ column positions.
constexpr size_t kValueId = 0;
constexpr size_t kValueName = 1;
constexpr size_t kValueType = 2;
constexpr size_t kLiteralType = 3;
constexpr size_t kLanguageType = 4;
constexpr size_t kLongValue = 5;

// rdf_blank_node$ column positions.
constexpr size_t kBnModelId = 0;
constexpr size_t kBnLabel = 1;
constexpr size_t kBnValueId = 2;

Schema ValueSchema() {
  return Schema({
      ColumnDef{"VALUE_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"VALUE_NAME", ValueType::kString, /*nullable=*/false},
      ColumnDef{"VALUE_TYPE", ValueType::kString, /*nullable=*/false},
      ColumnDef{"LITERAL_TYPE", ValueType::kString, /*nullable=*/true},
      ColumnDef{"LANGUAGE_TYPE", ValueType::kString, /*nullable=*/true},
      ColumnDef{"LONG_VALUE", ValueType::kClob, /*nullable=*/true},
  });
}

Schema BlankNodeSchema() {
  return Schema({
      ColumnDef{"MODEL_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"NODE_LABEL", ValueType::kString, /*nullable=*/false},
      ColumnDef{"VALUE_ID", ValueType::kInt64, /*nullable=*/false},
  });
}

}  // namespace

ValueStore::ValueStore(storage::Database* db) : db_(db) {
  values_ = db_->GetTable("MDSYS", "RDF_VALUE$");
  if (values_ == nullptr) {
    values_ = *db_->CreateTable("MDSYS", "RDF_VALUE$", ValueSchema());
  }
  blank_nodes_ = db_->GetTable("MDSYS", "RDF_BLANK_NODE$");
  if (blank_nodes_ == nullptr) {
    blank_nodes_ =
        *db_->CreateTable("MDSYS", "RDF_BLANK_NODE$", BlankNodeSchema());
  }
  value_seq_ = db_->GetSequence("MDSYS", "RDF_VALUE_SEQ");
  if (value_seq_ == nullptr) {
    value_seq_ = *db_->CreateSequence("MDSYS", "RDF_VALUE_SEQ", 1000);
  }
  // No storage-layer indexes on rdf_value$: the id → row vector and the
  // fingerprint map below answer both lookups at a fraction of the
  // memory (the old 4-column hash index copied every lexical form into
  // its ValueKey entries).
  if (blank_nodes_->GetIndex("rdf_bn_idx") == nullptr) {
    (void)blank_nodes_->CreateIndex("rdf_bn_idx", IndexKind::kHash,
                                    KeyExtractor::Columns({kBnModelId,
                                                           kBnLabel}),
                                    /*unique=*/true);
  }
  if (blank_nodes_->GetIndex("rdf_bn_value_idx") == nullptr) {
    (void)blank_nodes_->CreateIndex("rdf_bn_value_idx", IndexKind::kHash,
                                    KeyExtractor::Columns({kBnValueId}),
                                    /*unique=*/true);
  }

  // Reattach: rebuild the lookup structures from existing rows.
  RebuildLookups();
}

uint64_t ValueStore::Fingerprint(const std::string& name,
                                 const char* type_code,
                                 const std::string& datatype,
                                 const std::string& language) {
  uint64_t h = Fnv1a64(name);
  h = HashCombine(h, Fnv1a64(type_code));
  h = HashCombine(h, Fnv1a64(datatype));
  h = HashCombine(h, Fnv1a64(language));
  // Full-avalanche finalizer: linear probing clusters badly otherwise.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t ValueStore::FingerprintRow(const storage::Row& row) {
  static const std::string kEmpty;
  return Fingerprint(
      row[kValueName].as_string(), row[kValueType].as_string().c_str(),
      row[kLiteralType].is_null() ? kEmpty : row[kLiteralType].as_string(),
      row[kLanguageType].is_null() ? kEmpty
                                   : row[kLanguageType].as_string());
}

void ValueStore::FpInsert(uint64_t fp, storage::RowId row_id) {
  if (fp_slots_.empty() || (fp_used_ + 1) * 10 >= fp_slots_.size() * 7) {
    std::vector<FpSlot> old = std::move(fp_slots_);
    size_t capacity = 1024;
    while (capacity < 2 * (fp_used_ + 8)) capacity <<= 1;
    fp_slots_.assign(capacity, FpSlot{});
    fp_mask_ = capacity - 1;
    for (const FpSlot& slot : old) {
      if (slot.row < 0) continue;
      size_t i = static_cast<size_t>(slot.fp) & fp_mask_;
      while (fp_slots_[i].row >= 0) i = (i + 1) & fp_mask_;
      fp_slots_[i] = slot;
    }
  }
  size_t i = static_cast<size_t>(fp) & fp_mask_;
  while (fp_slots_[i].row >= 0) i = (i + 1) & fp_mask_;
  fp_slots_[i] = FpSlot{fp, row_id};
  ++fp_used_;
}

void ValueStore::RegisterRow(storage::RowId row_id,
                             const storage::Row& row) {
  const ValueId id = row[kValueId].as_int64();
  if (base_id_ < 0) base_id_ = id;
  if (id < base_id_) {
    // Out-of-order id below the current base (only possible when rows
    // are replayed behind our back in unusual order): re-base.
    const int64_t shift = base_id_ - id;
    id_to_row_.insert(id_to_row_.begin(), static_cast<size_t>(shift), -1);
    base_id_ = id;
  }
  const uint64_t off = static_cast<uint64_t>(id - base_id_);
  if (off >= id_to_row_.size()) id_to_row_.resize(off + 1, -1);
  id_to_row_[off] = row_id;
  FpInsert(FingerprintRow(row), row_id);
}

void ValueStore::RebuildLookups() {
  base_id_ = -1;
  id_to_row_.clear();
  fp_slots_.clear();
  fp_used_ = 0;
  fp_mask_ = 0;
  values_->Scan([&](storage::RowId row_id, const Row& row) {
    RegisterRow(row_id, row);
    return true;
  });
}

std::string ValueStore::ValueNameFor(const Term& term) {
  if (term.is_long_literal()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "longlit:%016" PRIx64,
                  Fnv1a64(term.lexical()));
    return buf;
  }
  return term.lexical();
}

namespace {

/// Exact dedup-key comparison against a stored row (fingerprint hits
/// are verified here, so collisions cannot alias two terms).
bool RowMatchesKey(const Row& row, const std::string& name,
                   const char* type_code, const std::string& datatype,
                   const std::string& language) {
  if (row[kValueName].as_string() != name) return false;
  if (row[kValueType].as_string() != type_code) return false;
  if (datatype.empty()) {
    if (!row[kLiteralType].is_null()) return false;
  } else if (row[kLiteralType].is_null() ||
             row[kLiteralType].as_string() != datatype) {
    return false;
  }
  if (language.empty()) {
    if (!row[kLanguageType].is_null()) return false;
  } else if (row[kLanguageType].is_null() ||
             row[kLanguageType].as_string() != language) {
    return false;
  }
  return true;
}

}  // namespace

Result<ValueId> ValueStore::LookupOrInsert(const Term& term) {
  if (term.is_blank()) {
    return Status::InvalidArgument(
        "blank nodes are model-scoped; use LookupOrInsertBlank");
  }
  std::optional<ValueId> existing = Lookup(term);
  if (existing.has_value()) return *existing;

  if (metrics_ != nullptr) metrics_->value_inserts->Inc();
  ValueId id = value_seq_->Next();
  Row row(6);
  row[kValueId] = Value::Int64(id);
  row[kValueName] = Value::String(ValueNameFor(term));
  row[kValueType] = Value::String(term.TypeCode());
  row[kLiteralType] = term.datatype().empty()
                          ? Value::Null()
                          : Value::String(term.datatype());
  row[kLanguageType] = term.language().empty()
                           ? Value::Null()
                           : Value::String(term.language());
  row[kLongValue] = term.is_long_literal() ? Value::Clob(term.lexical())
                                           : Value::Null();
  auto insert = values_->Insert(std::move(row));
  if (!insert.ok()) return insert.status();
  RegisterRow(*insert, *values_->Get(*insert));
  return id;
}

Result<std::vector<ValueId>> ValueStore::LookupOrInsertBatch(
    int64_t model_id, const std::vector<const Term*>& terms,
    InternCache* cache) {
  std::vector<ValueId> out;
  out.reserve(terms.size());
  if (metrics_ != nullptr) metrics_->value_batch_terms->Inc(terms.size());
  for (const Term* term : terms) {
    auto it = cache->find(*term);
    if (it != cache->end()) {
      if (metrics_ != nullptr) metrics_->value_intern_cache_hits->Inc();
      out.push_back(it->second);
      continue;
    }
    Result<ValueId> id = term->is_blank()
                             ? LookupOrInsertBlank(model_id, term->lexical())
                             : LookupOrInsert(*term);
    RDFDB_RETURN_NOT_OK(id.status());
    cache->emplace(*term, *id);
    out.push_back(*id);
  }
  return out;
}

std::optional<ValueId> ValueStore::Lookup(const Term& term) const {
  if (metrics_ != nullptr) metrics_->value_lookups->Inc();
  if (fp_slots_.empty()) return std::nullopt;
  const std::string name = ValueNameFor(term);
  const uint64_t fp =
      Fingerprint(name, term.TypeCode(), term.datatype(), term.language());
  for (size_t i = static_cast<size_t>(fp) & fp_mask_;;
       i = (i + 1) & fp_mask_) {
    const FpSlot& slot = fp_slots_[i];
    if (slot.row < 0) return std::nullopt;
    if (slot.fp != fp) continue;
    const Row* row = values_->Get(slot.row);
    if (!RowMatchesKey(*row, name, term.TypeCode(), term.datatype(),
                       term.language())) {
      continue;
    }
    if (term.is_long_literal()) {
      // Long literals are keyed by a 64-bit name fingerprint; verify
      // the full text so a (vanishingly unlikely) collision cannot
      // alias two different literals.
      if (row->at(kLongValue).is_null() ||
          row->at(kLongValue).as_clob() != term.lexical()) {
        return std::nullopt;
      }
    }
    if (metrics_ != nullptr) metrics_->value_lookup_hits->Inc();
    return row->at(kValueId).as_int64();
  }
}

Result<ValueId> ValueStore::LookupOrInsertBlank(int64_t model_id,
                                                const std::string& label) {
  std::optional<ValueId> existing = LookupBlank(model_id, label);
  if (existing.has_value()) return *existing;

  if (metrics_ != nullptr) metrics_->value_inserts->Inc();
  // Allocate the VALUE_ID first and derive a globally-unique internal
  // name from it so blank nodes from different models never unify in
  // rdf_value$.
  ValueId id = value_seq_->Next();
  std::string internal = "_:m" + std::to_string(model_id) + "x" + label;
  Row row(6);
  row[kValueId] = Value::Int64(id);
  row[kValueName] = Value::String(internal);
  row[kValueType] = Value::String("BN");
  row[kLiteralType] = Value::Null();
  row[kLanguageType] = Value::Null();
  row[kLongValue] = Value::Null();
  auto insert = values_->Insert(std::move(row));
  if (!insert.ok()) return insert.status();
  RegisterRow(*insert, *values_->Get(*insert));

  Row mapping(3);
  mapping[kBnModelId] = Value::Int64(model_id);
  mapping[kBnLabel] = Value::String(label);
  mapping[kBnValueId] = Value::Int64(id);
  auto bn_insert = blank_nodes_->Insert(std::move(mapping));
  if (!bn_insert.ok()) return bn_insert.status();
  return id;
}

std::optional<ValueId> ValueStore::LookupBlank(
    int64_t model_id, const std::string& label) const {
  if (metrics_ != nullptr) metrics_->value_lookups->Inc();
  const storage::Index* index = blank_nodes_->GetIndex("rdf_bn_idx");
  std::vector<storage::RowId> ids = index->Find(
      ValueKey{Value::Int64(model_id), Value::String(label)});
  if (ids.empty()) return std::nullopt;
  if (metrics_ != nullptr) metrics_->value_lookup_hits->Inc();
  const Row* row = blank_nodes_->Get(ids.front());
  return row->at(kBnValueId).as_int64();
}

std::optional<std::pair<int64_t, std::string>> ValueStore::LookupBlankLabel(
    ValueId value_id) const {
  const storage::Index* index = blank_nodes_->GetIndex("rdf_bn_value_idx");
  std::vector<storage::RowId> ids =
      index->Find(ValueKey{Value::Int64(value_id)});
  if (ids.empty()) return std::nullopt;
  const Row* row = blank_nodes_->Get(ids.front());
  return std::make_pair(row->at(kBnModelId).as_int64(),
                        row->at(kBnLabel).as_string());
}

namespace {

Result<ValueStore::RowTerm> DecodeValueRow(const Row& row) {
  const std::string& type_code = row.at(kValueType).as_string();
  const std::string& name = row.at(kValueName).as_string();
  ValueStore::RowTerm t;
  t.id = row.at(kValueId).as_int64();
  if (type_code == "UR") {
    t.lexical = name;
    return t;
  }
  if (type_code == "BN") {
    // Internal names begin "_:"; strip it for the label.
    t.kind = TermKind::kBlankNode;
    t.lexical = std::string_view(name).substr(2);
    return t;
  }
  t.lexical = row.at(kLongValue).is_null()
                  ? std::string_view(name)
                  : std::string_view(row.at(kLongValue).as_clob());
  if (type_code == "PL" || type_code == "PLL" || type_code == "PL@") {
    t.kind = type_code == "PL@" ? TermKind::kPlainLiteralLang
                                : TermKind::kPlainLiteral;
    if (!row.at(kLanguageType).is_null()) {
      t.language = row.at(kLanguageType).as_string();
    }
    return t;
  }
  if (type_code == "TL" || type_code == "TLL") {
    t.kind = TermKind::kTypedLiteral;
    t.datatype = row.at(kLiteralType).as_string();
    return t;
  }
  return Status::Corruption("unknown VALUE_TYPE " + type_code);
}

}  // namespace

Result<ValueStore::RowTerm> ValueStore::DecodeRow(
    storage::RowId row_id) const {
  const Row* row = values_->Get(row_id);
  if (row == nullptr) {
    return Status::NotFound("rdf_value$ row " + std::to_string(row_id));
  }
  return DecodeValueRow(*row);
}

Result<ValueStore::RowTerm> ValueStore::DecodeValueId(
    ValueId value_id) const {
  const int64_t rid = RowForId(value_id);
  const Row* row = rid < 0 ? nullptr : values_->Get(rid);
  if (row == nullptr) {
    return Status::NotFound("VALUE_ID " + std::to_string(value_id));
  }
  return DecodeValueRow(*row);
}

Result<Term> ValueStore::GetTerm(ValueId value_id) const {
  RDFDB_ASSIGN_OR_RETURN(RowTerm t, DecodeValueId(value_id));
  std::string lexical(t.lexical);
  switch (t.kind) {
    case TermKind::kUri:
      return Term::Uri(std::move(lexical));
    case TermKind::kBlankNode:
      return Term::BlankNode(std::move(lexical));
    case TermKind::kTypedLiteral:
      return Term::TypedLiteral(std::move(lexical), std::string(t.datatype));
    default:
      // An empty language makes this a plain literal.
      return Term::PlainLiteralLang(std::move(lexical),
                                    std::string(t.language));
  }
}

Status ValueStore::AppendNTriples(ValueId value_id, std::string* out) const {
  RDFDB_ASSIGN_OR_RETURN(RowTerm t, DecodeValueId(value_id));
  const size_t start = out->size();
  out->append(t.lexical);
  SpellNTriples(t.kind, t.language, t.datatype, start, out);
  return Status::OK();
}

Result<std::string> ValueStore::GetText(ValueId value_id) const {
  RDFDB_ASSIGN_OR_RETURN(Term term, GetTerm(value_id));
  return term.ToDisplayString();
}

Result<std::string> ValueStore::GetTypeCode(ValueId value_id) const {
  const int64_t rid = RowForId(value_id);
  if (rid < 0) {
    return Status::NotFound("VALUE_ID " + std::to_string(value_id));
  }
  return values_->Get(rid)->at(kValueType).as_string();
}

size_t ValueStore::value_count() const { return values_->row_count(); }

}  // namespace rdfdb::rdf
