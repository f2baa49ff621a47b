// Pre-registered instrument handles for one RdfStore.
//
// RdfStore owns a MetricsRegistry and one StoreMetrics; the storage
// layers (ValueStore, LinkStore, bulk load, redo log, match) hold a
// raw StoreMetrics pointer so the steady-state write path is a relaxed
// atomic increment — no name lookup, no registry mutex. Components
// constructed standalone (unit tests) leave the pointer null and all
// instrumentation sites degrade to a single predictable branch.

#ifndef RDFDB_OBS_STORE_METRICS_H_
#define RDFDB_OBS_STORE_METRICS_H_

#include "obs/metrics.h"

namespace rdfdb::obs {

struct StoreMetrics {
  /// Registers every instrument in `registry` (idempotent per registry,
  /// since re-registration returns the existing instrument).
  explicit StoreMetrics(MetricsRegistry* registry);

  MetricsRegistry* registry = nullptr;

  // rdf_value$ interning.
  Counter* value_lookups;        ///< dictionary probes (incl. blank nodes)
  Counter* value_lookup_hits;    ///< probes that found an existing id
  Counter* value_inserts;        ///< new rdf_value$/rdf_blank_node$ rows
  Counter* value_batch_terms;    ///< terms presented to LookupOrInsertBatch
  Counter* value_intern_cache_hits;  ///< batch terms resolved by InternCache

  // rdf_link$ triples.
  Counter* link_inserts;       ///< new rdf_link$ rows
  Counter* link_duplicates;    ///< inserts folded into an existing row
  Counter* link_deletes;       ///< rows removed (or cost-decremented)
  /// Quad-cache rows visited by LinkStore::Scan, plus rdf_link$ rows
  /// visited by LinkStore::ScanModel.
  Counter* link_rows_scanned;

  // Reification (DBUri-driven).
  Counter* reif_checks;  ///< IsLinkReified probes

  // SDO_RDF_MATCH.
  Counter* queries;        ///< SdoRdfMatch calls that reached execution
  Counter* query_rows;     ///< result rows returned across all queries
  Histogram* query_ns;     ///< end-to-end SdoRdfMatch latency
  Counter* query_cpu_ns;      ///< CPU ns attributed to queries (all threads)
  Counter* query_alloc_bytes; ///< heap bytes allocated inside queries

  // Inference.
  Counter* inference_rounds;   ///< fixpoint rounds across all entailments
  Counter* inference_derived;  ///< distinct inferred triples retained

  // Bulk load pipeline.
  Counter* bulkload_statements;  ///< statements consumed (incl. rejects)
  Counter* bulkload_chunks;      ///< chunks through the ordered pipeline
  Gauge* bulkload_queue_depth;   ///< high-water produced-minus-consumed
  Histogram* bulkload_parse_ns;   ///< per-chunk parse/prepare time
  Histogram* bulkload_intern_ns;  ///< per-chunk batched intern time
  Histogram* bulkload_insert_ns;  ///< per-chunk link-insert time

  // Persistence.
  Counter* snapshot_saves;
  Counter* snapshot_loads;
  Histogram* snapshot_save_ns;
  Histogram* snapshot_load_ns;
  Counter* replay_records;   ///< redo-log records applied
  Histogram* replay_ns;      ///< whole-log replay time
  Counter* replay_torn_tails;    ///< torn final records dropped on replay
  Counter* replay_stale_skipped; ///< pre-checkpoint records skipped by seq
  Counter* recovery_opens;       ///< SnapshotRdfStore::Open recoveries

  // Snapshot-store version publishing (epoch-based read path).
  Counter* versions_published;   ///< StoreVersions swapped in
  Histogram* publish_ns;         ///< build + swap + sweep latency
  Gauge* retired_versions;       ///< retired-but-not-yet-freed versions
  Gauge* epoch_lag;              ///< current epoch minus oldest pinned
  Gauge* retention_age_seconds;  ///< age of the oldest retired version

  // Store-wide memory accounting: RdfStore::UpdateMemoryGauges sets all
  // of these from one MemoryBreakdown, on demand
  // (SnapshotRdfStore::UpdateMemoryGauges passes one that includes its
  // dictionary and retired versions). Gauges of approximate heap
  // footprint, not hot-path counters.
  Gauge* mem_value_store_bytes;     ///< rdf_value$/rdf_blank_node$ + indexes
  Gauge* mem_link_table_bytes;      ///< rdf_link$/rdf_node$ + indexes
  Gauge* mem_quad_cache_bytes;      ///< per-model id-native quad caches
  Gauge* mem_term_dict_bytes;       ///< lock-free term dictionary spine
  Gauge* mem_retired_version_bytes; ///< exclusive bytes held by retired versions
  Gauge* mem_tracked_heap_bytes;    ///< process-wide live heap (allocator hooks)

  // Active-operation registry (obs/active_ops.h). Refreshed by
  // UpdateMemoryGauges so the flight recorder's registry snapshots and
  // /metrics scrapes both carry the in-flight count.
  Gauge* active_operations;  ///< currently registered operations
};

}  // namespace rdfdb::obs

#endif  // RDFDB_OBS_STORE_METRICS_H_
