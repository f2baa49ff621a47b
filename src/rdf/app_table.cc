#include "rdf/app_table.h"

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

constexpr size_t kId = 0;
constexpr size_t kTId = 1;
constexpr size_t kMId = 2;
constexpr size_t kSId = 3;
constexpr size_t kPId = 4;
constexpr size_t kOId = 5;

constexpr const char* kSubjectIndexName = "app_sub_fbidx";
constexpr const char* kPropertyIndexName = "app_prop_fbidx";
constexpr const char* kObjectIndexName = "app_obj_fbidx";

Schema AppSchema() {
  return Schema({
      ColumnDef{"ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"RDF_T_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"RDF_M_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"RDF_S_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"RDF_P_ID", ValueType::kInt64, /*nullable=*/false},
      ColumnDef{"RDF_O_ID", ValueType::kInt64, /*nullable=*/false},
  });
}

}  // namespace

ApplicationTable::ApplicationTable(RdfStore* store, storage::Table* table,
                                   std::string schema, std::string table_name)
    : store_(store),
      table_(table),
      schema_(std::move(schema)),
      table_name_(std::move(table_name)) {}

Result<ApplicationTable> ApplicationTable::Create(
    RdfStore* store, const std::string& schema,
    const std::string& table_name) {
  store->MarkUnloggedWrite();
  auto table =
      store->database().CreateTable(schema, table_name, AppSchema());
  if (!table.ok()) return table.status();
  return ApplicationTable(store, *table, schema, table_name);
}

Result<ApplicationTable> ApplicationTable::Attach(
    RdfStore* store, const std::string& schema,
    const std::string& table_name) {
  storage::Table* table = store->database().GetTable(schema, table_name);
  if (table == nullptr) {
    return Status::NotFound("table " + schema + "." + table_name);
  }
  return ApplicationTable(store, table, schema, table_name);
}

Status ApplicationTable::Insert(int64_t id, const SdoRdfTripleS& triple) {
  Row row(6);
  row[kId] = Value::Int64(id);
  row[kTId] = Value::Int64(triple.rdf_t_id());
  row[kMId] = Value::Int64(triple.rdf_m_id());
  row[kSId] = Value::Int64(triple.rdf_s_id());
  row[kPId] = Value::Int64(triple.rdf_p_id());
  row[kOId] = Value::Int64(triple.rdf_o_id());
  store_->MarkUnloggedWrite();
  auto insert = table_->Insert(std::move(row));
  if (!insert.ok()) return insert.status();
  return Status::OK();
}

size_t ApplicationTable::row_count() const { return table_->row_count(); }

SdoRdfTripleS ApplicationTable::RowToTriple(const Row& row) const {
  return SdoRdfTripleS(store_, row[kTId].as_int64(), row[kMId].as_int64(),
                       row[kSId].as_int64(), row[kPId].as_int64(),
                       row[kOId].as_int64());
}

storage::KeyExtractor ApplicationTable::TextExtractor(
    size_t id_column, std::string description) const {
  const RdfStore* store = store_;
  return KeyExtractor::Function(
      [store, id_column](const Row& row) -> ValueKey {
        auto text = store->TextForValueId(row[id_column].as_int64());
        if (!text.ok()) return ValueKey{Value::Null()};
        return ValueKey{Value::String(std::move(text).value())};
      },
      std::move(description));
}

Status ApplicationTable::CreateSubjectIndex() {
  return table_->CreateIndex(kSubjectIndexName, IndexKind::kHash,
                             TextExtractor(kSId, "triple.GET_SUBJECT()"),
                             /*unique=*/false);
}

Status ApplicationTable::CreatePropertyIndex() {
  return table_->CreateIndex(kPropertyIndexName, IndexKind::kHash,
                             TextExtractor(kPId, "triple.GET_PROPERTY()"),
                             /*unique=*/false);
}

Status ApplicationTable::CreateObjectIndex() {
  return table_->CreateIndex(
      kObjectIndexName, IndexKind::kHash,
      TextExtractor(kOId, "TO_CHAR(triple.GET_OBJECT())"),
      /*unique=*/false);
}

Status ApplicationTable::DropSubjectIndex() {
  return table_->DropIndex(kSubjectIndexName);
}

Status ApplicationTable::DropPropertyIndex() {
  return table_->DropIndex(kPropertyIndexName);
}

Status ApplicationTable::DropObjectIndex() {
  return table_->DropIndex(kObjectIndexName);
}

bool ApplicationTable::HasSubjectIndex() const {
  return table_->GetIndex(kSubjectIndexName) != nullptr;
}

std::vector<SdoRdfTripleS> ApplicationTable::FindByText(
    const std::string& index_name, size_t id_column,
    const std::string& text) const {
  std::vector<SdoRdfTripleS> out;
  const storage::Index* index = table_->GetIndex(index_name);
  if (index != nullptr) {
    for (storage::RowId rid : index->Find(ValueKey{Value::String(text)})) {
      out.push_back(RowToTriple(*table_->Get(rid)));
    }
    return out;
  }
  // Un-indexed plan: evaluate the member function per row (full scan).
  table_->Scan([&](storage::RowId, const Row& row) {
    auto resolved = store_->TextForValueId(row[id_column].as_int64());
    if (resolved.ok() && *resolved == text) {
      out.push_back(RowToTriple(row));
    }
    return true;
  });
  return out;
}

std::vector<SdoRdfTripleS> ApplicationTable::FindBySubject(
    const std::string& text) const {
  return FindByText(kSubjectIndexName, kSId, text);
}

std::vector<SdoRdfTripleS> ApplicationTable::FindByProperty(
    const std::string& text) const {
  return FindByText(kPropertyIndexName, kPId, text);
}

std::vector<SdoRdfTripleS> ApplicationTable::FindByObject(
    const std::string& text) const {
  return FindByText(kObjectIndexName, kOId, text);
}

void ApplicationTable::Scan(
    const std::function<bool(int64_t, const SdoRdfTripleS&)>& fn) const {
  table_->Scan([&](storage::RowId, const Row& row) {
    return fn(row[kId].as_int64(), RowToTriple(row));
  });
}

}  // namespace rdfdb::rdf
