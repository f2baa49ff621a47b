#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer job (the memory-safety
# twin of run_tsan.sh). Builds a dedicated build-asan tree and runs the
# full test suite under ASan+UBSan; any report fails the run. The suite
# includes the corrupt-input corpus (test_corrupt_recovery: truncated /
# bit-flipped / length-attacked snapshots, logs and manifests), the
# crash-recovery torture harness, and the compression codec fuzz tests
# (test_codec varint/posting-list round-trips plus the
# test_exec_diff compressed-vs-table-scan differentials), so
# hostile-byte parsing and block-decode paths get sanitizer coverage
# here.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DRDFDB_SANITIZE=address
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "ASan+UBSan run clean."
