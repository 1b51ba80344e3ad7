#!/bin/sh
# CI job: fault-tolerance suite — release, then ThreadSanitizer.
#
# Runs only the tests carrying the `ft` CTest label: the checkpoint codec
# fuzz (every truncation length, every single-byte flip), the seeded
# PE-kill storms over src/ft (detection from control lines, buddy rollback, replay
# to a digest bit-identical with a failure-free run), and the cross-process
# storms of tests/ftx_test.cc (whole-process SIGKILL, zygote respawn,
# remote-buddy refill over the shm wire, and no process outliving a
# SIGKILLed process 0). The release pass includes the fork-based legs;
# under tsan those are compiled out and the same drivers run wire-loopback
# with PE-tier kills under full race checking. To replay a failing seed,
# prefix with MFC_CHAOS_SEED=<n>.
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset ft

# Cross-process leg, standalone and verbose: the proc-kill storm plus the
# repeated re-kill of a respawned process. Run with a
# flight-recorder base name so the detection leaves per-process dumps,
# then validate them: a process-tier detection must have dumped at least
# process 0's box with reason "ft-proc-down".
rm -f build-release/ftx_flight.proc*.json
(cd build-release && MFC_FLIGHT_FILE=ftx_flight ./tests/ftx_test \
  --gtest_filter='Ftx.ShmProcKillStormDigestMatchesCalm:Ftx.RespawnedProcessSurvivesRepeatedKills')
test -s build-release/ftx_flight.proc0.json || {
  echo "FAIL: proc-kill storm left no flight dump for process 0"; exit 1; }
grep -q '"reason":"ft-proc-down"' build-release/ftx_flight.proc0.json || {
  echo "FAIL: flight dump reason is not ft-proc-down"; exit 1; }

# Checkpoint-overhead gate: the 4-process shm storm with checkpoint-every-10
# must stay within 15% of the FT-off run (wall time — the workers are
# forked children, invisible to process CPU clocks). Also hold the fresh
# rows near the checked-in baseline, generously (shared 1-core CI hosts).
cp BENCH_ftx.json build-release/BENCH_ftx.baseline.json
(cd build-release && MFC_BENCH_SUITE=ftx ./bench/bench_micro)
python3 scripts/bench_compare.py \
  build-release/BENCH_ftx.baseline.json \
  build-release/BENCH_ftx.json \
  --metric seconds --tolerance 60 \
  --max-ratio ftx_storm:ckpt_every_10/ftx_storm:ckpt_off=1.15

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-ft

# The full-mode kill storms once more, standalone and verbose: a data race
# in the capture, buddy-store, commit or rollback path would surface here
# with full output even if the label run's scheduling happened to hide it.
(cd build-tsan && ./tests/ft_storm_test \
  --gtest_filter='FtStorm.SameSeedKillRunsAreBitIdentical:FtStorm.KillRunMatchesFailureFreeRun')

# The loopback wire legs once more under tsan: PE-tier kills and a calm
# checkpointing storm with every cross-PE message — span-shipped buddy
# stores included — on the shm rings, under the race detector.
(cd build-tsan && ./tests/ftx_test \
  --gtest_filter='Ftx.Loopback*')
