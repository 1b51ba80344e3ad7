#!/bin/sh
# CI job: storm stress suite under ThreadSanitizer.
#
# Runs only the tests carrying the `stress` CTest label (the chaos storm
# suite). The suite pins a fixed seed matrix (101 / 202 / 303, one seed per
# machine wire: sockets, shm rings, in-process queues) plus a 101-round
# full-chaos acceptance storm on shm, so interleaving regressions fail
# deterministically rather than flaking. To replay a seed a failing log
# printed, prefix with MFC_CHAOS_SEED=<n> (see EXPERIMENTS.md).
set -eu
cd "$(dirname "$0")/.."
cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-stress
