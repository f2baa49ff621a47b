#!/usr/bin/env bash
# ThreadSanitizer job for the concurrency-sensitive targets: the
# pipelined bulk loader, the snapshot store (epoch-pinned lock-free
# readers vs the publishing writer, hammered at several reader counts,
# with and without a redo log),
# the metrics instruments (relaxed-atomic counters hammered from many
# threads while the registry renders), the parallel join executor's
# differential tests (which exercise the chunked worker/consumer
# pipeline — and the compressed posting-cursor / galloping leaf scans —
# at several thread counts), the codec round-trip/fuzz tests
# (snapshot readers decode posting blocks concurrently with the writer,
# so the decoders themselves belong in this job too), and the term
# dictionary (a reader resolves ids and probes its tables while the
# writer ingests into the arena and grows them). Builds a dedicated
# build-tsan tree (so a normal build/ is left untouched) and runs the
# test binaries directly; any TSan report fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-tsan}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRDFDB_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target test_bulk_load test_snapshot_store \
  test_metrics test_codec test_term_dict \
  test_exec_diff test_event_log test_span_timeline test_slow_query_log \
  test_resource_tracker test_profiler test_memory_accounting \
  test_flight_recorder test_cancel test_server test_serve_crash

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR"/tests/test_bulk_load
"$BUILD_DIR"/tests/test_snapshot_store
"$BUILD_DIR"/tests/test_metrics
"$BUILD_DIR"/tests/test_codec
"$BUILD_DIR"/tests/test_term_dict
"$BUILD_DIR"/tests/test_exec_diff
"$BUILD_DIR"/tests/test_event_log
"$BUILD_DIR"/tests/test_span_timeline
"$BUILD_DIR"/tests/test_slow_query_log
"$BUILD_DIR"/tests/test_resource_tracker
"$BUILD_DIR"/tests/test_memory_accounting
# The seqlock'd active-op table and the sampler-vs-guard interplay are
# exactly TSan territory (relaxed field loads behind the seq protocol
# are intentional; the suppressions-free run must still be clean).
"$BUILD_DIR"/tests/test_flight_recorder
# backtrace(3) inside the SIGPROF handler is flagged by TSan's
# signal-unsafe-call check; it is async-signal-safe on glibc once primed
# (see obs/profiler.cc), so suppress only that check for this binary.
TSAN_OPTIONS="report_signal_unsafe=0 $TSAN_OPTIONS" \
  "$BUILD_DIR"/tests/test_profiler
# The serving path end to end: cooperative cancellation racing the
# parallel executor's worker/consumer pipeline (test_cancel) and the
# acceptor/admission-queue/worker-pool/watcher threads of the network
# front-end, including mid-flight SIGTERM drain (test_server), and a
# durable rdfdb_serve --data (built with TSan too) whose workers append
# to the redo log and checkpoint under the store's writer lock
# (test_serve_crash).
"$BUILD_DIR"/tests/test_cancel
"$BUILD_DIR"/tests/test_server
"$BUILD_DIR"/tests/test_serve_crash

echo "TSan run clean."
