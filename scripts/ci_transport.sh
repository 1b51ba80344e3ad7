#!/bin/sh
# CI job: multi-process machine layer — transport conformance, wire-codec
# torture, cross-backend bench gate.
#
# Phase 1 runs the tests carrying the `transport` CTest label under the
# release preset: the wire codec short-read/short-write torture (1-byte
# reads, partial writev mid-iovec, seeded fuzz over split points) and the
# conformance battery that drives an identical checklist against all three
# backends — in-process queues, shm SPSC rings, AF_UNIX sockets — in both
# loopback and true multi-process (forked) mode: per-pair ordering,
# exactly-once under seeded chaos, 1 MiB chunk/eager round trips,
# migration mini-storms with all three techniques and bit-identical
# same-seed replay (including the 64-PE / 4-process acceptance shape), and
# an FT kill storm over the shm wire.
#
# Phase 2 reruns the transport bench suite (64-byte flood per backend,
# 64-byte two-process ping-pong per wire backend, eager scatter-gather
# image ships over sockets at 64 KiB–1 MiB) and gates two ways with
# bench_compare.py: the fresh stream64 and pingpong64 rows must be within
# tolerance of the checked-in BENCH_transport.json, and — the absolute
# acceptance bar — the shm ring must cost no more than 3x the in-process
# path per 64-byte message. stream64 keeps the receiving comm thread
# awake; pingpong64 makes it sleep before every hop, so its row prices
# the wake-up path.
#
# Phase 3 repeats the conformance label under ThreadSanitizer: the
# fork-based legs are compiled out (tsan does not follow children), but
# loopback mode keeps the full ring/socket codec under the race detector.
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
# Absolute gate: shm ring <= 3x in-process ns/msg at 64 bytes.
python3 scripts/bench_compare.py \
  build-release/BENCH_transport.baseline.json \
  build-release/BENCH_transport.json \
  --metric ns_per_msg --filter stream64 --tolerance 50 \
  --max-ratio stream64:shm/stream64:inproc=3.0

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-transport

echo "transport CI: PASS"
