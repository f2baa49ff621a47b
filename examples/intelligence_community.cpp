// The Intelligence Community scenario (Figures 2, 6 and 8).
//
// Three agencies (CIA, DHS, FBI) keep separate RDF models in one central
// schema; a rulebase (intel_rb: anyone who performs 'bombing' is a
// terror suspect) plus the RDFS rulebase are pre-computed into a rules
// index; SDO_RDF_MATCH reasons over all three models at once and the
// result is joined to the relational ic.address table — reproducing the
// paper's terror-watch-list query output.

#include <cstdio>
#include <set>

#include "gen/ic_dataset.h"
#include "query/match.h"

using rdfdb::gen::BuildIcScenario;
using rdfdb::gen::IcScenario;
using rdfdb::query::InferenceEngine;
using rdfdb::query::Rule;
using rdfdb::query::SdoRdfMatch;

int main() {
  rdfdb::rdf::RdfStore store;

  auto scenario = BuildIcScenario(&store);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded models:");
  for (const std::string& name : store.ModelNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("  (central schema: %zu triples, %zu values)\n\n",
              store.links().TotalTripleCount(),
              store.values().value_count());

  // -- create rulebase ---------------------------------------------------
  InferenceEngine engine(&store);
  rdfdb::Status created = engine.CreateRulebase("intel_rb");
  if (!created.ok()) {
    std::fprintf(stderr, "rulebase: %s\n", created.ToString().c_str());
    return 1;
  }

  // -- insert rule into rulebase ------------------------------------------
  Rule rule;
  rule.name = "intel_rule";
  rule.antecedent = "(?x gov:terrorAction \"bombing\")";
  rule.consequent = "(gov:files gov:terrorSuspect ?x)";
  rule.aliases = scenario->aliases;
  rdfdb::Status inserted = engine.InsertRule("intel_rb", rule);
  if (!inserted.ok()) {
    std::fprintf(stderr, "rule: %s\n", inserted.ToString().c_str());
    return 1;
  }
  std::printf("rulebase intel_rb: anyone who performs 'bombing' is a "
              "terror suspect\n");

  // -- create rules index ---------------------------------------------------
  auto index = engine.CreateRulesIndex("rdfs_rix_intel",
                                       {"cia", "dhs", "fbi"},
                                       {"RDFS", "intel_rb"});
  if (!index.ok()) {
    std::fprintf(stderr, "rules index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  std::printf("rules index rdfs_rix_intel pre-computed %zu triples in %zu "
              "rounds\n\n",
              (*index)->inferred_count(), (*index)->rounds());

  // -- query IC databases ---------------------------------------------------
  auto result = SdoRdfMatch(&store, &engine,
                            "(gov:files gov:terrorSuspect ?name)",
                            {"cia", "dhs", "fbi"}, {"RDFS", "intel_rb"},
                            scenario->aliases, "");
  if (!result.ok()) {
    std::fprintf(stderr, "match: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // Join to ic.address and print the paper's output table.
  std::printf("TERROR_WATCH_LIST      LOCATION\n");
  std::printf("------------------     --------------------\n");
  const rdfdb::storage::Index* addr_index =
      scenario->address_table->GetIndex("addr_name_idx");
  if (addr_index == nullptr) {
    std::fprintf(stderr, "ic.address has no addr_name_idx\n");
    return 1;
  }
  std::set<std::string> printed;
  for (size_t i = 0; i < result->row_count(); ++i) {
    std::string name = result->Get(i, "name");
    if (!printed.insert(name).second) continue;  // SELECT DISTINCT
    for (rdfdb::storage::RowId rid :
         addr_index->Find({rdfdb::storage::Value::String(name)})) {
      const rdfdb::storage::Row& row = *scenario->address_table->Get(rid);
      // Shorten the namespace back to the paper's id: prefix for output.
      std::string display = name;
      const std::string kIdNs = rdfdb::gen::kIdNs;
      if (display.rfind(kIdNs, 0) == 0) {
        display = "id:" + display.substr(kIdNs.size());
      }
      std::printf("%-22s %s\n", display.c_str(),
                  row[1].as_string().c_str());
    }
  }
  return 0;
}
