// Quickstart: the paper's three-step application recipe (§4.3).
//
//   1. CREATE TABLE ciadata (id NUMBER, triple SDO_RDF_TRIPLE_S);
//   2. EXECUTE SDO_RDF.CREATE_RDF_MODEL('cia', 'ciadata', 'triple');
//   3. INSERT INTO ciadata VALUES (1, SDO_RDF_TRIPLE_S('cia',
//        'gov:files', 'gov:terrorSuspect', 'id:JohnDoe'));
//
// ...followed by the member-function queries of §6.

#include <cstdio>

#include "rdf/app_table.h"
#include "rdf/rdf_store.h"

using rdfdb::rdf::ApplicationTable;
using rdfdb::rdf::RdfStore;
using rdfdb::rdf::SdoRdfTripleS;

int main() {
  RdfStore store;

  // Step 1: create the application table with the RDF object column.
  auto table = ApplicationTable::Create(&store, "APP", "ciadata");
  if (!table.ok()) {
    std::fprintf(stderr, "create table: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }

  // Step 2: create the model (this also creates the rdfm_cia view).
  auto model = store.CreateRdfModel("cia", "ciadata", "triple");
  if (!model.ok()) {
    std::fprintf(stderr, "create model: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("created model '%s' with MODEL_ID %lld\n",
              model->model_name.c_str(),
              static_cast<long long>(model->model_id));

  // Step 3: insert triples through the SDO_RDF_TRIPLE_S constructor.
  // (The paper abbreviates gov:/id: — full namespaces belong in real
  // data; the parser accepts both.)
  struct Row {
    int64_t id;
    const char *s, *p, *o;
  };
  const Row rows[] = {
      {1, "http://www.us.gov#files", "http://www.us.gov#terrorSuspect",
       "http://www.us.id#JohnDoe"},
      {2, "http://www.us.gov#files", "http://www.us.gov#terrorSuspect",
       "http://www.us.id#JaneDoe"},
      {3, "http://www.us.id#JohnDoe", "http://www.us.gov#knows",
       "http://www.us.id#JaneDoe"},
  };
  for (const Row& row : rows) {
    auto triple = store.InsertTriple("cia", row.s, row.p, row.o);
    if (!triple.ok()) {
      std::fprintf(stderr, "insert: %s\n",
                   triple.status().ToString().c_str());
      return 1;
    }
    rdfdb::Status inserted = table->Insert(row.id, *triple);
    if (!inserted.ok()) {
      std::fprintf(stderr, "app insert: %s\n", inserted.ToString().c_str());
      return 1;
    }
    std::printf("row %lld -> SDO_RDF_TRIPLE_S(%lld, %lld, %lld, %lld, %lld)\n",
                static_cast<long long>(row.id),
                static_cast<long long>(triple->rdf_t_id()),
                static_cast<long long>(triple->rdf_m_id()),
                static_cast<long long>(triple->rdf_s_id()),
                static_cast<long long>(triple->rdf_p_id()),
                static_cast<long long>(triple->rdf_o_id()));
  }

  // Query with the member functions (§6) through a function-based
  // index (§7.2).
  rdfdb::Status indexed = table->CreateSubjectIndex();
  if (!indexed.ok()) {
    std::fprintf(stderr, "subject index: %s\n", indexed.ToString().c_str());
    return 1;
  }
  std::printf("\nSELECT triple.GET_TRIPLE() WHERE GET_SUBJECT() = "
              "gov:files\n");
  for (const SdoRdfTripleS& triple :
       table->FindBySubject("http://www.us.gov#files")) {
    auto full = triple.GetTriple();
    if (!full.ok()) {
      std::fprintf(stderr, "GET_TRIPLE: %s\n",
                   full.status().ToString().c_str());
      return 1;
    }
    std::printf("  %s\n", full->ToString().c_str());
  }

  // IS_TRIPLE / IS_REIFIED round out the SDO_RDF package surface.
  auto is_triple =
      store.IsTriple("cia", "http://www.us.gov#files",
                     "http://www.us.gov#terrorSuspect",
                     "http://www.us.id#JohnDoe");
  if (!is_triple.ok()) {
    std::fprintf(stderr, "IS_TRIPLE: %s\n",
                 is_triple.status().ToString().c_str());
    return 1;
  }
  std::printf("\nIS_TRIPLE(files, terrorSuspect, JohnDoe) = %s\n",
              *is_triple ? "TRUE" : "FALSE");

  std::printf("central schema now holds %zu triples over %zu values\n",
              store.links().TotalTripleCount(),
              store.values().value_count());
  return 0;
}
