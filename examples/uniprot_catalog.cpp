// UniProt-style catalogue (§7.1): generate a synthetic protein dataset,
// load it through the SDO_RDF_TRIPLE_S constructor path with the §7.2
// function-based indexes, run the paper's probe queries, and then
// analyze the RDF data *as a network* with the NDM functions —
// the capability the paper gets for free by storing triples as NDM
// links.

#include <cstdio>
#include <string>

#include "common/timer.h"
#include "gen/uniprot_gen.h"
#include "gen/workload.h"
#include "ndm/analysis.h"
#include "rdf/app_table.h"
#include "rdf/rdf_store.h"
#include "rdf/vocab.h"

using rdfdb::gen::GenerateUniProt;
using rdfdb::gen::UniProtOptions;
using rdfdb::rdf::RdfStore;

namespace {

/// Report a failed step; main returns this as its exit status.
int Fail(const char* step, const std::string& why) {
  std::fprintf(stderr, "%s: %s\n", step, why.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  UniProtOptions options;
  options.target_triples = argc > 1 ? std::strtoul(argv[1], nullptr, 10)
                                    : 20000;
  std::printf("generating ~%zu UniProt-like triples...\n",
              options.target_triples);
  auto dataset = GenerateUniProt(options);
  std::printf("  %zu triples, %zu reified statements (%.2f%%)\n",
              dataset.triple_count(), dataset.reified_count(),
              100.0 * static_cast<double>(dataset.reified_count()) /
                  static_cast<double>(dataset.triple_count()));

  RdfStore store;
  rdfdb::Timer timer;
  auto load = rdfdb::gen::LoadUniProtIntoOracle(&store, "uniprot",
                                                "uniprot_app", dataset);
  if (!load.ok()) return Fail("load", load.status().ToString());
  std::printf("loaded model '%s' in %.2fs: %zu app rows, %zu distinct "
              "values, %zu links\n",
              load->model.model_name.c_str(),
              static_cast<double>(timer.ElapsedNanos()) * 1e-9,
              load->app_rows, store.values().value_count(),
              store.links().TotalTripleCount());

  // The store's own instruments saw the same load.
  const rdfdb::obs::StoreMetrics* metrics = store.metrics();
  std::printf("store metrics: %llu value lookups, %llu value inserts, "
              "%llu link inserts, %llu duplicates folded\n\n",
              static_cast<unsigned long long>(
                  metrics->value_lookups->Value()),
              static_cast<unsigned long long>(
                  metrics->value_inserts->Value()),
              static_cast<unsigned long long>(
                  metrics->link_inserts->Value()),
              static_cast<unsigned long long>(
                  metrics->link_duplicates->Value()));

  // --- the paper's subject query (Figure 10) -----------------------------
  auto table = rdfdb::rdf::ApplicationTable::Attach(&store, "UP",
                                                    "uniprot_app");
  if (!table.ok()) return Fail("attach", table.status().ToString());
  auto hits = table->FindBySubject(rdfdb::gen::kProbeSubject);
  std::printf("SELECT ... WHERE GET_SUBJECT() = '%s' -> %zu rows\n",
              rdfdb::gen::kProbeSubject, hits.size());
  for (size_t i = 0; i < hits.size() && i < 5; ++i) {
    auto full = hits[i].GetTriple();
    if (!full.ok()) return Fail("GET_TRIPLE", full.status().ToString());
    std::printf("  %s\n", full->ToString().c_str());
  }
  if (hits.size() > 5) std::printf("  ... (%zu more)\n", hits.size() - 5);

  // --- the paper's IS_REIFIED probes (Figure 11) -------------------------
  auto reified_true = store.IsReified(
      "uniprot", rdfdb::gen::kProbeSubject,
      std::string(rdfdb::rdf::kRdfsSeeAlso), rdfdb::gen::kProbeReifiedTarget);
  auto reified_false = store.IsReified(
      "uniprot", rdfdb::gen::kProbeSubject,
      std::string(rdfdb::rdf::kRdfsSeeAlso),
      rdfdb::gen::kProbeUnreifiedTarget);
  if (!reified_true.ok() || !reified_false.ok()) {
    return Fail("IS_REIFIED", !reified_true.ok()
                                  ? reified_true.status().ToString()
                                  : reified_false.status().ToString());
  }
  std::printf("\nIS_REIFIED(P93259, seeAlso, SM00101) = %s\n",
              *reified_true ? "true" : "false");
  std::printf("IS_REIFIED(P93259, seeAlso, PF99999) = %s\n",
              *reified_false ? "true" : "false");

  // --- NDM network analysis over the RDF graph ---------------------------
  const rdfdb::ndm::Network& net = store.network();
  std::printf("\nNDM logical network: %zu nodes, %zu links, %zu weak "
              "components\n",
              net.node_count(), net.link_count(),
              rdfdb::ndm::ConnectedComponentCount(net));

  auto probe_id = store.values().Lookup(
      rdfdb::rdf::Term::Uri(rdfdb::gen::kProbeSubject));
  if (!probe_id.has_value()) return Fail("NDM", "probe protein not stored");
  auto within =
      rdfdb::ndm::WithinCost(net, *probe_id, 2.0,
                             rdfdb::ndm::Direction::kBoth);
  std::printf("nodes within 2 hops of the probe protein: %zu\n",
              within.size());
  auto nn = rdfdb::ndm::NearestNeighbors(net, *probe_id, 5,
                                         rdfdb::ndm::Direction::kBoth);
  std::printf("5 nearest neighbours:\n");
  for (const auto& [node, cost] : nn) {
    auto text = store.TextForValueId(node);
    if (!text.ok()) return Fail("NDM", text.status().ToString());
    std::printf("  cost %.0f  %s\n", cost, text->c_str());
  }
  // Two proteins citing the same domain are 2 hops apart undirected.
  auto other = store.values().Lookup(rdfdb::rdf::Term::Uri(
      "urn:lsid:uniprot.org:uniprot:P00001"));
  if (!other.has_value()) return Fail("NDM", "P00001 not stored");
  auto path = rdfdb::ndm::ShortestPathByHops(net, *probe_id, *other,
                                             rdfdb::ndm::Direction::kBoth);
  if (!path.found) return Fail("NDM", "no path probe -> P00001");
  std::printf("path probe -> P00001: %zu hops through shared resources\n",
              path.links.size());
  return 0;
}
