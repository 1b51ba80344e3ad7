#!/bin/sh
# CI job: multi-process machine layer — transport conformance, ring codec
# tests, shm-vs-in-process bench gate.
#
# Phase 1 runs the tests carrying the `transport` CTest label under the
# release preset: the shm ring codec tests (frames straddling the wrap at
# every offset, multi-span pushes, delayed publish, all-or-nothing pushes)
# and the conformance battery that drives an identical checklist against
# both backends — in-process queues and shm SPSC rings — the rings in both
# loopback and true multi-process (forked) mode: per-pair ordering,
# exactly-once under seeded chaos, 1 MiB chunked round trips, the
# migration storm (chaos::run_storm, all three techniques) across 2 and 4
# processes with the same report as its in-process run (including the
# 64-PE / 4-process acceptance shape, run twice), a handler registered
# after the fork failing its check, an FT kill storm over the shm wire in
# loopback mode, and the liveness legs of the PE-drained
# shm wire: parked ping-pongs that hang on a lost wake-up, two processes
# flooding each other through full 4 KiB rings, and a respawned process
# whose dead PEs must drain their own revive frames.
#
# Phase 2 reruns the transport bench suite (64-byte flood per backend,
# 64-byte ping-pong in-process and across two processes over shm, chunked
# scatter-gather image ships over shm at 64 KiB–1 MiB, and an idle
# wait_quiescence() and a broadcast-then-wait round at 4/1, 4/2, 16/4 and
# 64/4 PEs/processes) and gates with bench_compare.py: the fresh stream64,
# pingpong64, qd_idle and qd_round rows must be within tolerance of the
# checked-in BENCH_transport.json, and two absolute bars hold. The shm
# ring must cost no more than 3x the in-process path per streamed 64-byte
# message (stream64 keeps the receiving PE awake). And a shm ping-pong
# hop across two processes must cost no more than 4x an in-process one:
# pingpong64 lets the receiver park before every hop, so that row prices
# the cross-process wake-up.
# On the 4-CPU VM the in-process hop reads ~0.5 us and the shm hop
# ~0.8 us (1.5-2.7x) now that the producer wakes the destination PE
# directly; with a comm thread relaying every frame the shm hop read
# 11-62 us (27-103x, failing this bar in every run).
#
# Phase 3 repeats the conformance label under ThreadSanitizer: the
# fork-based legs are compiled out (tsan does not follow children), but
# loopback mode keeps the full ring path under the race detector.
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset transport

cp BENCH_transport.json build-release/BENCH_transport.baseline.json
(cd build-release && MFC_BENCH_SUITE=transport ./bench/bench_micro)
# Relative gate: don't regress the checked-in rows (generous tolerance —
# these are whole-machine wall-clock runs on a shared, often 1-core host).
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --tolerance 50 --filter stream64
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --tolerance 50 --filter pingpong64
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --tolerance 50 --filter qd_idle
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --tolerance 50 --filter qd_round
# Absolute gate: shm ring <= 3x in-process ns/msg at 64 bytes.
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --filter stream64 --tolerance 50 \
  --max-ratio stream64:shm/stream64:inproc=3.0
# Absolute gate: a cross-process shm hop <= 4x an in-process hop.
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --filter pingpong64 --tolerance 50 \
  --max-ratio pingpong64:shm/pingpong64:inproc=4.0

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-transport

echo "transport CI: PASS"
