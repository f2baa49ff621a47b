// Memory-footprint benchmark: bytes/triple for the store's in-memory
// representation (ROADMAP item 2, ISSUE 8 headline).
//
// Loads the synthetic UniProt dataset at one or more sizes through the
// pipelined bulk loader, then reports the store's MemoryUsage()
// breakdown, with the term dictionary a served store builds from it,
// normalized to bytes per loaded triple, plus load throughput. An A/B
// section rebuilds the PRE-compression containers (raw std::string
// dictionary copies, vector<uint32_t> posting lists inside
// unordered_maps, and the six generic rdf_link$ hash indexes keyed by
// ValueKey copies) from the loaded store and measures their true heap
// cost through the allocator hooks, so the "uncompressed" column is
// the real legacy layout, not an estimate.
//
// Usage:
//   bench_memory_footprint [--triples=N[,N...]] [--json=PATH] [--smoke]
//
//   --triples   comma-separated sizes (default: 100000, plus 1000000
//               when RDFDB_BENCH_LARGE=1 is set)
//   --json      write a BENCH_memory_footprint.json artifact
//   --smoke     CI gate: exit non-zero unless compressed bytes/triple
//               (quad cache + term dictionary) < uncompressed
//               bytes/triple at every size
//
// Not a google-benchmark binary on purpose: each measurement is one
// full load (seconds at 1M), and the interesting output is a table of
// byte counters, not a latency distribution.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/timer.h"
#include "gen/uniprot_gen.h"
#include "obs/resource_tracker.h"
#include "rdf/bulk_load.h"
#include "rdf/legacy_layout.h"
#include "rdf/rdf_store.h"
#include "rdf/term_dict.h"

namespace {

using rdfdb::gen::GenerateUniProt;
using rdfdb::gen::UniProtOptions;
using rdfdb::rdf::BulkLoad;
using rdfdb::rdf::BulkLoadStats;
using rdfdb::rdf::RdfStore;

struct SizeResult {
  size_t target = 0;          // requested triple count
  size_t triples = 0;         // rdf_link$ rows actually created
  RdfStore::MemoryBreakdown mem;
  uint64_t legacy_bytes = 0;  // heap cost of the pre-compression layout
  uint64_t legacy_dict_bytes = 0;
  uint64_t legacy_postings_bytes = 0;
  uint64_t legacy_index_bytes = 0;
  double load_seconds = 0.0;
  double triples_per_sec = 0.0;

  double BytesPerTriple() const {
    return triples == 0 ? 0.0
                        : static_cast<double>(mem.StoreTotal()) /
                              static_cast<double>(triples);
  }
  // The compressed layout replaces exactly what the legacy replica
  // rebuilds: dictionary strings + postings + link indexes. Compare
  // those components, not the whole store, so table rows / Value
  // variants common to both layouts don't dilute the ratio.
  uint64_t CompressedComparableBytes() const {
    return mem.quad_cache_bytes + mem.term_dict_bytes;
  }
};

std::vector<size_t> ParseSizes(const char* arg) {
  std::vector<size_t> sizes;
  const char* p = arg;
  while (*p != '\0') {
    char* end = nullptr;
    unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p) break;
    sizes.push_back(static_cast<size_t>(v));
    p = (*end == ',') ? end + 1 : end;
  }
  return sizes;
}

bool RunSize(size_t target, SizeResult* out) {
  out->target = target;
  UniProtOptions options;
  options.target_triples = target;
  auto dataset = GenerateUniProt(options);

  auto store = std::make_unique<RdfStore>();
  auto model = store->CreateRdfModel("uniprot", "uniprot_app", "triple");
  if (!model.ok()) {
    std::fprintf(stderr, "CreateRdfModel failed: %s\n",
                 model.status().ToString().c_str());
    return false;
  }

  auto model_id = store->GetModelId("uniprot");
  if (!model_id.ok()) {
    std::fprintf(stderr, "GetModelId failed: %s\n",
                 model_id.status().ToString().c_str());
    return false;
  }

  rdfdb::Timer timer;
  auto stats = BulkLoad(store.get(), "uniprot", dataset.triples);
  if (!stats.ok()) {
    std::fprintf(stderr, "BulkLoad failed: %s\n",
                 stats.status().ToString().c_str());
    return false;
  }
  // Reify the dataset's reified fraction so the footprint includes the
  // streamlined reification rows the paper's workload carries (~5%).
  for (const auto& reified : dataset.reified) {
    auto base = store->InsertParsedTriple(*model_id, reified.base.subject,
                                          reified.base.predicate,
                                          reified.base.object);
    if (!base.ok()) continue;
    auto reif = store->ReifyTriple("uniprot", base->rdf_t_id());
    if (!reif.ok()) {
      std::fprintf(stderr, "ReifyTriple failed: %s\n",
                   reif.status().ToString().c_str());
      return false;
    }
  }
  out->load_seconds =
      static_cast<double>(timer.ElapsedNanos()) / 1e9;

  auto model_stats = store->GetModelStats("uniprot");
  out->triples = model_stats.ok() ? model_stats->triples : stats->new_links;
  out->triples_per_sec =
      out->load_seconds > 0.0
          ? static_cast<double>(out->triples) / out->load_seconds
          : 0.0;
  out->mem = store->MemoryUsage();
  // A plain RdfStore holds no term dictionary; price the one a
  // SnapshotRdfStore (and so rdfdb_serve) builds from these rdf_value$
  // rows, so the dictionary counts in the totals and in the gate.
  rdfdb::rdf::TermDict dict;
  const rdfdb::Status ingested = dict.Ingest(store->values());
  if (!ingested.ok()) {
    std::fprintf(stderr, "TermDict::Ingest failed: %s\n",
                 ingested.ToString().c_str());
    return false;
  }
  out->mem.term_dict_bytes = dict.ApproxBytes();

  // Rebuild the pre-compression containers from the live store and
  // price them with the allocator hooks.
  rdfdb::rdf::LegacyLayoutCost legacy =
      rdfdb::rdf::MeasureLegacyLayout(*store);
  out->legacy_bytes = legacy.total_bytes;
  out->legacy_dict_bytes = legacy.dict_bytes;
  out->legacy_postings_bytes = legacy.postings_bytes;
  out->legacy_index_bytes = legacy.index_bytes;
  return true;
}

void PrintResult(const SizeResult& r) {
  std::printf("== %zu triples (requested %zu) ==\n", r.triples, r.target);
  std::printf("  load: %.2fs  (%.0f triples/s)\n", r.load_seconds,
              r.triples_per_sec);
  std::printf("  value_store_bytes:      %12zu\n", r.mem.value_store_bytes);
  std::printf("  link_table_bytes:       %12zu\n", r.mem.link_table_bytes);
  std::printf("  quad_cache_bytes:       %12zu\n", r.mem.quad_cache_bytes);
  std::printf("  term_dict_bytes:        %12zu\n", r.mem.term_dict_bytes);
  std::printf("  store_total:            %12zu  (%.1f bytes/triple)\n",
              r.mem.StoreTotal(), r.BytesPerTriple());
  std::printf("  tracked_heap_bytes:     %12zu\n", r.mem.tracked_heap_bytes);
  double triples = r.triples == 0 ? 1.0 : static_cast<double>(r.triples);
  std::printf(
      "  legacy (uncompressed) layout, rebuilt + heap-measured:\n"
      "    dict strings:         %12" PRIu64 "  (%.1f B/triple)\n"
      "    postings:             %12" PRIu64 "  (%.1f B/triple)\n"
      "    link hash indexes:    %12" PRIu64 "  (%.1f B/triple)\n"
      "    total:                %12" PRIu64 "  (%.1f B/triple)\n",
      r.legacy_dict_bytes, r.legacy_dict_bytes / triples,
      r.legacy_postings_bytes, r.legacy_postings_bytes / triples,
      r.legacy_index_bytes, r.legacy_index_bytes / triples,
      r.legacy_bytes, r.legacy_bytes / triples);
  std::printf(
      "  compressed comparable (quad cache + term dict): %" PRIu64
      "  (%.1f B/triple)  ratio %.2fx\n",
      r.CompressedComparableBytes(),
      r.CompressedComparableBytes() / triples,
      r.CompressedComparableBytes() > 0
          ? static_cast<double>(r.legacy_bytes) /
                static_cast<double>(r.CompressedComparableBytes())
          : 0.0);
}

bool WriteJson(const std::string& path, const std::vector<SizeResult>& all) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"memory_footprint\",\n");
  std::fprintf(f, "  \"env\": {\"nproc\": %ld, \"build_type\": \"%s\"},\n",
               std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)),
               RDFDB_BUILD_TYPE);
  std::fprintf(f, "  \"sizes\": [\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const SizeResult& r = all[i];
    std::fprintf(
        f,
        "    {\"triples\": %zu, \"bytes_per_triple\": %.2f,\n"
        "     \"store_total_bytes\": %zu,\n"
        "     \"value_store_bytes\": %zu, \"link_table_bytes\": %zu,\n"
        "     \"quad_cache_bytes\": %zu, \"term_dict_bytes\": %zu,\n"
        "     \"compressed_comparable_bytes\": %" PRIu64 ",\n"
        "     \"legacy_total_bytes\": %" PRIu64 ",\n"
        "     \"legacy_dict_bytes\": %" PRIu64 ",\n"
        "     \"legacy_postings_bytes\": %" PRIu64 ",\n"
        "     \"legacy_index_bytes\": %" PRIu64 ",\n"
        "     \"load_seconds\": %.3f, \"triples_per_sec\": %.0f}%s\n",
        r.triples, r.BytesPerTriple(), r.mem.StoreTotal(),
        r.mem.value_store_bytes, r.mem.link_table_bytes,
        r.mem.quad_cache_bytes, r.mem.term_dict_bytes,
        r.CompressedComparableBytes(), r.legacy_bytes, r.legacy_dict_bytes,
        r.legacy_postings_bytes, r.legacy_index_bytes, r.load_seconds,
        r.triples_per_sec, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> sizes;
  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--triples=", 10) == 0) {
      sizes = ParseSizes(arg + 10);
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--triples=N[,N...]] [--json=PATH] [--smoke]\n",
                   argv[0]);
      return 2;
    }
  }
  if (sizes.empty()) {
    if (smoke) {
      sizes = {100000};
    } else {
      sizes = {100000};
      if (std::getenv("RDFDB_BENCH_LARGE") != nullptr)
        sizes.push_back(1000000);
    }
  }

  std::vector<SizeResult> all;
  for (size_t target : sizes) {
    SizeResult r;
    if (!RunSize(target, &r)) return 1;
    PrintResult(r);
    all.push_back(r);
  }

  if (!json_path.empty() && !WriteJson(json_path, all)) return 1;

  if (smoke) {
    for (const SizeResult& r : all) {
      if (r.CompressedComparableBytes() >= r.legacy_bytes) {
        std::fprintf(stderr,
                     "SMOKE FAIL at %zu triples: compressed comparable "
                     "bytes (%" PRIu64 ") >= legacy layout bytes (%" PRIu64
                     ")\n",
                     r.triples, r.CompressedComparableBytes(),
                     r.legacy_bytes);
        return 1;
      }
    }
    std::printf("SMOKE OK: compressed layout smaller than legacy layout "
                "at every size\n");
  }
  return 0;
}
