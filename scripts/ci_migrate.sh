#!/bin/sh
# CI job: zero-copy migration fast path — correctness gate, byte-rate
# bench, regression diff.
#
# Phase 1 runs the tests carrying the `migrate-perf` CTest label: the
# golden wire vectors (image wire, re-gather of its in-place decode,
# checkpoint frame), the pack()/gather/span-list byte-for-byte equivalence
# suite (all three techniques, NaN/inf payloads, zero-heap-run images), the
# image decoder fuzz (every truncation and single-byte flip), the CRC-32C
# implementation agreement corpus (reference vs slice-by-8 vs hardware over
# every truncation and single-byte flip).
#
# Phase 2 reruns the migrate bench suite (manifest codec bytes/s, checkpoint
# encode, the end-to-end migrate_storm shape) and diffs the fresh rows
# against the checked-in BENCH_migrate.json with bench_compare.py: a >10%
# drop in an iovec codec row's byte rate fails the job, and so does a >25%
# rise in the storm_migrate row's CPU time per thread migration (CPU, not
# wall: the storm runs in this process, and CPU time ignores the host's
# scheduling waits).
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset migrate

cp BENCH_migrate.json build-release/BENCH_migrate.baseline.json
(cd build-release && MFC_BENCH_SUITE=migrate ./bench/bench_micro)
python3 scripts/bench_compare.py \
  build-release/BENCH_migrate.baseline.json \
  build-release/BENCH_migrate.json \
  --metric msgs_per_sec --tolerance 10 --filter iso_codec
python3 scripts/bench_compare.py \
  build-release/BENCH_migrate.baseline.json \
  build-release/BENCH_migrate.json \
  --metric cpu_ns_per_msg --tolerance 25 --filter storm_migrate

# ThreadSanitizer pass over the same label: the codec suite races-free.
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-migrate

echo "migrate CI: PASS"
