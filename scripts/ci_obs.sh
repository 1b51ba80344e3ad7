#!/bin/sh
# CI job: observability plane — histograms, flight recorder, clock-aligned
# trace merge.
#
# Phase 1 runs the tests carrying the `obs` CTest label under the release
# preset: histogram bucket geometry and quantiles, snapshot merge algebra,
# metrics snapshot provenance, flight recorder note/freeze/dump semantics,
# trace-part round trips with byte-identical re-merges, the fork-based
# multi-process merge legs (the migration storm, chaos::run_storm, across
# 2 and 4 processes: Machine::run's shutdown must leave one aligned
# Perfetto JSON with cross-process flow arrows, including the 64-PE /
# 4-process migrate pack→unpack arrow), and the black-box contract: an FT
# kill storm with MFC_TRACE off still dumps the flight recorder.
#
# Phase 2 drives the acceptance paths end to end. MFC_STATS=1 on the
# 4-process / 64-PE migration storm leaves one stats dump per process,
# each carrying its own provenance and populated latency histograms with
# ordered quantiles. A traced run_storm test whose last run spans two
# processes (its in-process reference run exports to the same file first)
# then leaves the machine's merged timeline plus the surviving .part
# files, and the offline tool (tools/trace_merge) must reproduce the
# machine's merge byte for byte.
#
# Phase 3 reruns the histogram-overhead bench suite (paired obs off/on
# reps, median cpu-time ratio — BENCH_trace.json's methodology) and gates
# two ways with bench_compare.py: the fresh rows must be within tolerance
# of the checked-in BENCH_obs.json, and — the absolute acceptance bar —
# the histogram-instrumented pingpong must cost no more than 1.10x the
# histograms-off pingpong in cpu time.
#
# Phase 4 repeats the obs label under ThreadSanitizer: the fork-based
# merge legs are compiled out (tsan does not follow children), but the
# histogram/flight/part units and the single-process FT-kill leg keep the
# observability hot paths under the race detector.
set -eu
cd "$(dirname "$0")/.."

cmake --preset release
cmake --build --preset release -j"$(nproc)"
ctest --preset obs

# Acceptance storm with stats armed: one provenance-stamped dump per proc.
stats="ci_obs_stats.json"
(cd build-release && rm -f "$stats".proc*)
(cd build-release && MFC_STATS=1 MFC_STATS_FILE="$stats" ./tests/obs_test \
  --gtest_filter='ObsMachine.Acceptance64Pe4ProcStormHasCrossProcessMigrateFlow' \
  >/dev/null)
for p in 0 1 2 3; do
  f="build-release/$stats.proc$p"
  test -s "$f" || { echo "FAIL: no stats dump for proc $p"; exit 1; }
  grep -q "\"proc\":$p" "$f" \
    || { echo "FAIL: stats dump $p lacks provenance"; exit 1; }
done
if command -v python3 >/dev/null 2>&1; then
  python3 - "build-release/$stats.proc0" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
hists = doc["histograms"]
for name in ("queue-wait", "handler-service"):
    h = hists[name]
    assert h["count"] > 0, f"{name} recorded no samples"
    assert h["p50_ns"] <= h["p99_ns"] <= h["p999_ns"], f"{name} quantiles"
print(f"ok: {len(hists)} histograms populated on proc 0")
EOF
fi

# Offline merge agreement: a two-process traced run_storm leaves the
# machine's merged timeline plus its parts; tools/trace_merge must reproduce the
# machine's output byte for byte from the parts alone.
tool_out="ci_tool.json"
(cd build-release && rm -f "$tool_out" "$tool_out".part* "$tool_out".remerge)
(cd build-release && MFC_TRACE=1 MFC_TRACE_FILE="$tool_out" \
  ./tests/transport_conformance_test \
  --gtest_filter='TransportConformance.MiniStormMultiProcessBothWires' \
  >/dev/null)
test -s "build-release/$tool_out" \
  || { echo "FAIL: traced storm wrote no merged timeline"; exit 1; }
./build-release/tools/trace_merge "build-release/$tool_out.remerge" \
  "build-release/$tool_out.part0" "build-release/$tool_out.part1"
cmp "build-release/$tool_out" "build-release/$tool_out.remerge" \
  || { echo "FAIL: trace_merge disagrees with the machine's merge"; exit 1; }
if ./build-release/tools/trace_merge >/dev/null 2>&1; then
  echo "FAIL: trace_merge accepted an empty command line"; exit 1
fi

cp BENCH_obs.json build-release/BENCH_obs.baseline.json
(cd build-release && MFC_BENCH_SUITE=obs ./bench/bench_micro)
# Relative gate: don't regress the checked-in rows (generous tolerance —
# whole-machine cpu-time runs on a shared, often 1-core host).
python3 scripts/bench_compare.py \
  build-release/BENCH_obs.baseline.json \
  build-release/BENCH_obs.json \
  --metric cpu_ns_per_msg --tolerance 60
# Absolute gate (the acceptance bar): histograms-on pingpong <= 1.10x
# histograms-off pingpong in cpu time per message.
python3 scripts/bench_compare.py \
  build-release/BENCH_obs.baseline.json \
  build-release/BENCH_obs.json \
  --metric cpu_ns_per_msg --tolerance 60 \
  --max-ratio pingpong:obs_on/pingpong:obs_off=1.10

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)"
ctest --preset tsan-obs

echo "obs CI: PASS"
