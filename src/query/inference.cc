#include "query/inference.h"

#include "common/string_util.h"

namespace rdfdb::query {

namespace {

/// Serialize aliases into one cell ("prefix=uri prefix=uri ...").
std::string SerializeAliases(const AliasList& aliases) {
  std::string out;
  for (const SdoRdfAlias& alias : aliases) {
    if (!out.empty()) out += " ";
    out += alias.prefix + "=" + alias.namespace_uri;
  }
  return out;
}

storage::Schema RuleTableSchema() {
  return storage::Schema({
      {"RULE_NAME", storage::ValueType::kString, false},
      {"ANTECEDENT", storage::ValueType::kString, false},
      {"FILTER", storage::ValueType::kString, true},
      {"CONSEQUENT", storage::ValueType::kString, false},
      {"ALIASES", storage::ValueType::kString, true},
  });
}

}  // namespace

std::string InferenceEngine::NormalizeName(const std::string& name) {
  return ToUpper(name);
}

Status InferenceEngine::CreateRulebase(const std::string& name) {
  std::string key = NormalizeName(name);
  if (key == NormalizeName(kRdfsRulebaseName)) {
    return Status::AlreadyExists("RDFS is the built-in rulebase");
  }
  if (rulebases_.count(key) > 0) {
    return Status::AlreadyExists("rulebase " + name);
  }
  store_->MarkUnloggedWrite();
  auto table = store_->database().CreateTable("MDSYS", "RDFR_" + key,
                                              RuleTableSchema());
  if (!table.ok()) return table.status();
  rulebases_.emplace(key, Rulebase(name));
  return Status::OK();
}

Status InferenceEngine::InsertRule(const std::string& rulebase_name,
                                   Rule rule) {
  std::string key = NormalizeName(rulebase_name);
  auto it = rulebases_.find(key);
  if (it == rulebases_.end()) {
    return Status::NotFound("rulebase " + rulebase_name);
  }
  RDFDB_RETURN_NOT_OK(it->second.AddRule(rule));

  store_->MarkUnloggedWrite();
  storage::Table* table =
      store_->database().GetTable("MDSYS", "RDFR_" + key);
  auto insert = table->Insert({
      storage::Value::String(rule.name),
      storage::Value::String(rule.antecedent),
      rule.filter.empty() ? storage::Value::Null()
                          : storage::Value::String(rule.filter),
      storage::Value::String(rule.consequent),
      rule.aliases.empty()
          ? storage::Value::Null()
          : storage::Value::String(SerializeAliases(rule.aliases)),
  });
  if (!insert.ok()) return insert.status();
  return Status::OK();
}

Result<const Rulebase*> InferenceEngine::GetRulebase(
    const std::string& name) const {
  std::string key = NormalizeName(name);
  if (key == NormalizeName(kRdfsRulebaseName)) {
    return &BuiltinRdfsRulebase();
  }
  auto it = rulebases_.find(key);
  if (it == rulebases_.end()) {
    return Status::NotFound("rulebase " + name);
  }
  return &it->second;
}

Status InferenceEngine::DropRulebase(const std::string& name) {
  std::string key = NormalizeName(name);
  if (rulebases_.erase(key) == 0) {
    return Status::NotFound("rulebase " + name);
  }
  store_->MarkUnloggedWrite();
  return store_->database().DropTable("MDSYS", "RDFR_" + key);
}

std::vector<std::string> InferenceEngine::RulebaseNames() const {
  std::vector<std::string> names;
  names.reserve(rulebases_.size());
  for (const auto& [key, rb] : rulebases_) names.push_back(rb.name());
  return names;
}

Result<std::vector<const Rulebase*>> InferenceEngine::ResolveRulebases(
    const std::vector<std::string>& names) const {
  std::vector<const Rulebase*> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    RDFDB_ASSIGN_OR_RETURN(const Rulebase* rb, GetRulebase(name));
    out.push_back(rb);
  }
  return out;
}

Result<const RulesIndex*> InferenceEngine::CreateRulesIndex(
    const std::string& index_name,
    const std::vector<std::string>& model_names,
    const std::vector<std::string>& rulebase_names) {
  std::string key = NormalizeName(index_name);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("rules index " + index_name);
  }
  RDFDB_ASSIGN_OR_RETURN(std::vector<const Rulebase*> rulebases,
                         ResolveRulebases(rulebase_names));
  RDFDB_ASSIGN_OR_RETURN(
      std::unique_ptr<RulesIndex> index,
      RulesIndex::Build(store_, index_name, model_names, rulebases));
  const RulesIndex* raw = index.get();
  indexes_.emplace(key, std::move(index));
  return raw;
}

Status InferenceEngine::DropRulesIndex(const std::string& index_name) {
  std::string key = NormalizeName(index_name);
  if (indexes_.erase(key) == 0) {
    return Status::NotFound("rules index " + index_name);
  }
  store_->MarkUnloggedWrite();
  (void)store_->database().DropTable("MDSYS", "RDFI_" + key);
  return Status::OK();
}

const RulesIndex* InferenceEngine::FindCoveringIndex(
    const std::vector<std::string>& model_names,
    const std::vector<std::string>& rulebase_names) const {
  for (const auto& [key, index] : indexes_) {
    if (index->Covers(model_names, rulebase_names)) return index.get();
  }
  return nullptr;
}

}  // namespace rdfdb::query
