// Streamlined reification walkthrough (§5, Figure 7).
//
// Demonstrates the three reification/assertion constructors:
//   SDO_RDF_TRIPLE_S(model, rdf_t_id)                      — reify
//   SDO_RDF_TRIPLE_S(model, s, p, rdf_t_id)                — assert about
//   SDO_RDF_TRIPLE_S(model, rs, rp, s, p, o)               — assert implied
// plus IS_REIFIED, direct (D) vs implied (I) contexts, and dereferencing
// the DBUri back to the reified row.

#include <cstdio>
#include <string>

#include "rdf/reification.h"
#include "rdf/rdf_store.h"

using rdfdb::rdf::RdfStore;
using rdfdb::rdf::SdoRdfTripleS;

namespace {

/// Report a failed step; main returns this as its exit status.
int Fail(const char* step, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", step, why.c_str());
  return 1;
}

/// Print one rdf_link$ row's flags; false if the row is missing.
bool ShowContext(const RdfStore& store, rdfdb::rdf::LinkId link_id,
                 const char* label) {
  auto row = store.links().Get(link_id);
  if (!row.ok()) {
    Fail(label, row.status().ToString());
    return false;
  }
  std::printf("  %s: LINK_ID=%lld CONTEXT=%c REIF_LINK=%c COST=%lld\n",
              label, static_cast<long long>(link_id),
              static_cast<char>(row->context), row->reif_link ? 'Y' : 'N',
              static_cast<long long>(row->cost));
  return true;
}

}  // namespace

int main() {
  RdfStore store;
  auto model = store.CreateRdfModel("cia", "ciadata", "triple");
  if (!model.ok()) return Fail("create model", model.status().ToString());

  // A direct triple — a fact.
  auto base = store.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoe");
  if (!base.ok()) return Fail("insert", base.status().ToString());
  std::printf("inserted fact <gov:files, gov:terrorSuspect, id:JohnDoe>\n");
  if (!ShowContext(store, base->rdf_t_id(), "base triple")) return 1;

  // Constructor 2: reify by RDF_T_ID. One new triple is stored:
  // <DBUri, rdf:type, rdf:Statement>.
  auto reif = store.ReifyTriple("cia", base->rdf_t_id());
  if (!reif.ok()) return Fail("reify", reif.status().ToString());
  std::printf("\nreified via %s\n",
              rdfdb::rdf::DBUriForLink(base->rdf_t_id()).c_str());
  if (!ShowContext(store, reif->rdf_t_id(), "reification triple")) return 1;

  auto is_reified = store.IsReified("cia", "gov:files",
                                    "gov:terrorSuspect", "id:JohnDoe");
  if (!is_reified.ok()) {
    return Fail("IS_REIFIED", is_reified.status().ToString());
  }
  std::printf("IS_REIFIED -> %s\n", *is_reified ? "true" : "false");

  // Constructor 3: assertion about the reified triple — Figure 7's
  // "MI5 said <gov:files, gov:terrorSuspect, id:JohnDoe>".
  auto mi5 = store.AssertAboutTriple("cia", "gov:MI5", "gov:source",
                                     base->rdf_t_id());
  if (!mi5.ok()) return Fail("assert", mi5.status().ToString());
  auto mi5_triple = mi5->GetTriple();
  if (!mi5_triple.ok()) {
    return Fail("GET_TRIPLE", mi5_triple.status().ToString());
  }
  std::printf("\nassertion: %s\n", mi5_triple->ToString().c_str());

  // Constructor with six arguments: assert an *implied* statement —
  // §5.2's "Interpol said that JohnDoeJr is a terrorSuspect".
  auto interpol = store.AssertImplied("cia", "gov:Interpol", "gov:source",
                                      "gov:files", "gov:terrorSuspect",
                                      "id:JohnDoeJr");
  if (!interpol.ok()) {
    return Fail("assert implied", interpol.status().ToString());
  }
  auto object = interpol->GetObject();
  if (!object.ok()) return Fail("GET_OBJECT", object.status().ToString());
  auto implied_link = rdfdb::rdf::LinkIdFromDBUri(*object);
  if (!implied_link.has_value()) return Fail("DBUri", *object);
  std::printf("\nimplied statement asserted by Interpol:\n");
  if (!ShowContext(store, *implied_link, "implied base")) return 1;

  // Entering the implied triple as a fact upgrades CONTEXT I -> D.
  auto fact = store.InsertTriple("cia", "gov:files", "gov:terrorSuspect",
                                 "id:JohnDoeJr");
  if (!fact.ok()) return Fail("insert", fact.status().ToString());
  std::printf("\nafter inserting the same triple as a fact:\n");
  if (!ShowContext(store, *implied_link, "upgraded base")) return 1;

  // Dereference the DBUri through the XML DB resolver.
  auto uri = rdfdb::dburi::Parse(
      rdfdb::rdf::DBUriForLink(base->rdf_t_id()));
  if (!uri.ok()) return Fail("DBUri parse", uri.status().ToString());
  auto row = store.resolver().FetchRow(*uri);
  if (!row.ok()) return Fail("DBUri fetch", row.status().ToString());
  std::printf("\nDBUri dereferences to rdf_link$ row: LINK_ID=%lld "
              "MODEL_ID=%lld\n",
              static_cast<long long>((*row)[0].as_int64()),
              static_cast<long long>((*row)[9].as_int64()));

  // Storage accounting: the streamlined scheme stored one triple per
  // reification; the classic quad would have stored four.
  std::printf("\ncentral schema: %zu triples total (fact + implied-"
              "upgraded base + 2 reifications + 2 assertions)\n",
              store.links().TotalTripleCount());
  return 0;
}
