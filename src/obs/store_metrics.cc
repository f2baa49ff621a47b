#include "obs/store_metrics.h"

namespace rdfdb::obs {

StoreMetrics::StoreMetrics(MetricsRegistry* reg) : registry(reg) {
  value_lookups = reg->RegisterCounter(
      "rdfdb_value_lookups_total", "rdf_value$ dictionary probes");
  value_lookup_hits = reg->RegisterCounter(
      "rdfdb_value_lookup_hits_total", "dictionary probes that hit");
  value_inserts = reg->RegisterCounter(
      "rdfdb_value_inserts_total", "new rdf_value$/rdf_blank_node$ rows");
  value_batch_terms = reg->RegisterCounter(
      "rdfdb_value_batch_terms_total",
      "terms presented to LookupOrInsertBatch");
  value_intern_cache_hits = reg->RegisterCounter(
      "rdfdb_value_intern_cache_hits_total",
      "batch terms resolved from the loader intern cache");

  link_inserts = reg->RegisterCounter(
      "rdfdb_link_inserts_total", "new rdf_link$ rows");
  link_duplicates = reg->RegisterCounter(
      "rdfdb_link_duplicates_total",
      "triple inserts folded into an existing rdf_link$ row");
  link_deletes = reg->RegisterCounter(
      "rdfdb_link_deletes_total", "rdf_link$ delete operations");
  link_rows_scanned = reg->RegisterCounter(
      "rdfdb_link_rows_scanned_total",
      "quad-cache rows visited by the scan kernel, plus rdf_link$ rows "
      "visited by ScanModel");

  reif_checks = reg->RegisterCounter(
      "rdfdb_reif_checks_total", "IsLinkReified probes");

  queries = reg->RegisterCounter(
      "rdfdb_query_total", "SDO_RDF_MATCH executions");
  query_rows = reg->RegisterCounter(
      "rdfdb_query_rows_total", "result rows returned by SDO_RDF_MATCH");
  query_ns = reg->RegisterHistogram(
      "rdfdb_query_ns", "end-to-end SDO_RDF_MATCH latency (ns)",
      DefaultLatencyBucketsNs());
  query_cpu_ns = reg->RegisterCounter(
      "rdfdb_query_cpu_ns_total",
      "CPU nanoseconds attributed to queries across all threads");
  query_alloc_bytes = reg->RegisterCounter(
      "rdfdb_query_alloc_bytes_total",
      "heap bytes allocated while executing queries");

  inference_rounds = reg->RegisterCounter(
      "rdfdb_inference_rounds_total", "entailment fixpoint rounds");
  inference_derived = reg->RegisterCounter(
      "rdfdb_inference_derived_total",
      "distinct inferred triples retained by entailment");

  bulkload_statements = reg->RegisterCounter(
      "rdfdb_bulkload_statements_total", "statements consumed by bulk load");
  bulkload_chunks = reg->RegisterCounter(
      "rdfdb_bulkload_chunks_total", "chunks through the load pipeline");
  bulkload_queue_depth = reg->RegisterGauge(
      "rdfdb_bulkload_queue_depth",
      "pipeline high-water mark of produced-but-unconsumed chunks");
  bulkload_parse_ns = reg->RegisterHistogram(
      "rdfdb_bulkload_parse_ns", "per-chunk parse/prepare time (ns)",
      DefaultLatencyBucketsNs());
  bulkload_intern_ns = reg->RegisterHistogram(
      "rdfdb_bulkload_intern_ns", "per-chunk batched intern time (ns)",
      DefaultLatencyBucketsNs());
  bulkload_insert_ns = reg->RegisterHistogram(
      "rdfdb_bulkload_insert_ns", "per-chunk rdf_link$ insert time (ns)",
      DefaultLatencyBucketsNs());

  snapshot_saves = reg->RegisterCounter(
      "rdfdb_snapshot_saves_total", "snapshot save operations");
  snapshot_loads = reg->RegisterCounter(
      "rdfdb_snapshot_loads_total", "snapshot load (RdfStore::Open) calls");
  snapshot_save_ns = reg->RegisterHistogram(
      "rdfdb_snapshot_save_ns", "snapshot save latency (ns)",
      DefaultLatencyBucketsNs());
  snapshot_load_ns = reg->RegisterHistogram(
      "rdfdb_snapshot_load_ns", "snapshot open latency (ns)",
      DefaultLatencyBucketsNs());
  replay_records = reg->RegisterCounter(
      "rdfdb_replay_records_total", "redo-log records applied");
  replay_ns = reg->RegisterHistogram(
      "rdfdb_replay_ns", "redo-log replay latency (ns)",
      DefaultLatencyBucketsNs());
  replay_torn_tails = reg->RegisterCounter(
      "rdfdb_replay_torn_tails_total",
      "torn final redo-log records dropped during replay");
  replay_stale_skipped = reg->RegisterCounter(
      "rdfdb_replay_stale_skipped_total",
      "pre-checkpoint redo-log records skipped by seq during replay");
  recovery_opens = reg->RegisterCounter(
      "rdfdb_recovery_opens_total",
      "SnapshotRdfStore::Open crash-recovery cycles");

  versions_published = reg->RegisterCounter(
      "rdfdb_versions_published_total",
      "immutable store versions published by the snapshot store");
  publish_ns = reg->RegisterHistogram(
      "rdfdb_publish_ns",
      "store-version publish latency: build + swap + sweep (ns)",
      DefaultLatencyBucketsNs());
  retired_versions = reg->RegisterGauge(
      "rdfdb_retired_versions_outstanding",
      "store versions retired but still pinned by a reader epoch");
  epoch_lag = reg->RegisterGauge(
      "rdfdb_oldest_pinned_epoch_lag",
      "current epoch minus the oldest pinned reader epoch (0 = idle)");
  retention_age_seconds = reg->RegisterGauge(
      "rdfdb_version_retention_age_seconds",
      "seconds the oldest retired store version has been blocked from "
      "reclamation by a pinned reader epoch (0 = nothing retained)");

  mem_value_store_bytes = reg->RegisterGauge(
      "rdfdb_mem_value_store_bytes",
      "approx heap bytes: rdf_value$/rdf_blank_node$ rows + indexes");
  mem_link_table_bytes = reg->RegisterGauge(
      "rdfdb_mem_link_table_bytes",
      "approx heap bytes: rdf_link$/rdf_node$ rows + indexes");
  mem_quad_cache_bytes = reg->RegisterGauge(
      "rdfdb_mem_quad_cache_bytes",
      "approx heap bytes: per-model id-native quad caches");
  mem_term_dict_bytes = reg->RegisterGauge(
      "rdfdb_mem_term_dict_bytes",
      "approx heap bytes: lock-free term dictionary spine + tables");
  mem_retired_version_bytes = reg->RegisterGauge(
      "rdfdb_mem_retired_version_bytes",
      "approx exclusive heap bytes held by retired store versions");
  mem_tracked_heap_bytes = reg->RegisterGauge(
      "rdfdb_mem_tracked_heap_bytes",
      "process-wide live heap bytes tracked by the allocator hooks");

  active_operations = reg->RegisterGauge(
      "rdfdb_active_operations",
      "operations currently registered in the active-op table");
}

}  // namespace rdfdb::obs
