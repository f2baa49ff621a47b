#include "gen/ic_dataset.h"

namespace rdfdb::gen {

namespace {

using rdf::ApplicationTable;
using rdf::RdfStore;
using rdf::SdoRdfTripleS;

std::string Gov(const std::string& local) { return kGovNs + local; }
std::string Id(const std::string& local) { return kIdNs + local; }

}  // namespace

Result<IcScenario> BuildIcScenario(RdfStore* store) {
  IcScenario scenario;
  scenario.model_names = {"cia", "dhs", "fbi"};
  scenario.aliases = {{"gov", kGovNs}, {"id", kIdNs}};

  struct Spec {
    const char* model;
    const char* table;
  };
  const Spec specs[] = {{"cia", "ciadata"},
                        {"dhs", "dhsdata"},
                        {"fbi", "fbidata"}};
  for (const Spec& spec : specs) {
    RDFDB_ASSIGN_OR_RETURN(
        ApplicationTable table,
        ApplicationTable::Create(store, "IC", spec.table));
    (void)table;
    RDFDB_ASSIGN_OR_RETURN(
        rdf::ModelInfo model,
        store->CreateRdfModel(spec.model, spec.table, "triple", "IC"));
    (void)model;
  }

  auto insert = [&](const char* model, const char* table, int64_t id,
                    const std::string& s, const std::string& p,
                    const std::string& o) -> Result<SdoRdfTripleS> {
    RDFDB_ASSIGN_OR_RETURN(SdoRdfTripleS triple,
                           store->InsertTriple(model, s, p, o));
    RDFDB_ASSIGN_OR_RETURN(ApplicationTable app,
                           ApplicationTable::Attach(store, "IC", table));
    RDFDB_RETURN_NOT_OK(app.Insert(id, triple));
    return triple;
  };

  // Figure 2's data.
  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS john,
      insert("cia", "ciadata", 1, Gov("files"), Gov("terrorSuspect"),
             Id("JohnDoe")));
  scenario.john_doe_link_id = john.rdf_t_id();
  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS jane,
      insert("cia", "ciadata", 2, Gov("files"), Gov("terrorSuspect"),
             Id("JaneDoe")));
  (void)jane;

  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS jim,
      insert("dhs", "dhsdata", 1, Id("JimDoe"), Gov("terrorAction"),
             "bombing"));
  (void)jim;
  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS dhs_john,
      insert("dhs", "dhsdata", 2, Gov("files"), Gov("terrorSuspect"),
             Id("JohnDoe")));
  (void)dhs_john;

  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS entered,
      insert("fbi", "fbidata", 1, Id("JohnDoe"), Gov("enteredCountry"),
             "June-20-2000"));
  (void)entered;
  RDFDB_ASSIGN_OR_RETURN(
      SdoRdfTripleS fbi_john,
      insert("fbi", "fbidata", 2, Gov("files"), Gov("terrorSuspect"),
             Id("JohnDoe")));
  (void)fbi_john;

  // IC.ADDRESS: the relational table Figure 8 joins against.
  store->MarkUnloggedWrite();
  auto address = store->database().CreateTable(
      "IC", "ADDRESS",
      storage::Schema({
          {"NAME", storage::ValueType::kString, false},
          {"ADDRESS", storage::ValueType::kString, false},
      }));
  if (!address.ok()) return address.status();
  scenario.address_table = *address;
  RDFDB_RETURN_NOT_OK((*address)
                          ->CreateIndex("addr_name_idx",
                                        storage::IndexKind::kHash,
                                        storage::KeyExtractor::Columns({0}),
                                        /*unique=*/true)
                          );
  const std::pair<const char*, const char*> rows[] = {
      {"JohnDoe", "Brooklyn, NY"},
      {"JaneDoe", "Brooklyn, NY"},
      {"JimDoe", "Trenton, NJ"},
  };
  for (const auto& [name, addr] : rows) {
    auto ins = (*address)
                   ->Insert({storage::Value::String(Id(name)),
                             storage::Value::String(addr)});
    if (!ins.ok()) return ins.status();
  }
  return scenario;
}

}  // namespace rdfdb::gen
