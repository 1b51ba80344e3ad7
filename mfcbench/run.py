#!/usr/bin/env python3
"""The mfc benchmark.

    python3 mfcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the runtime and the instance runner (mfcbench_workload) from source
into .bench_build/, then runs instances of one workload for --seconds and
prints one JSON result as the last line of stdout. Each instance is its own
process group under a wall-clock deadline; its CPU time and peak RSS cover
every process it forked. --trace 0 prints the end-to-end metrics; --trace 1
arms the runtime's histograms (MFC_STATS) and the benchmark's own call timers
and prints the per-layer metrics. Exits non-zero if any instance failed
verification or its deadline. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import benchlib as bl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_build" / "work"
BINARY = BUILD_DIR / "mfcbench_workload"

INSTANCE_DEADLINE_S = 30.0
MIN_MAIN_INSTANCES = 3
# Every run also verifies (untimed) one seed outside any range a caller
# passes, so correctness is never checked only on the seeds used for tuning.
HELD_OUT_SEED = 2**40 + 1
# Rank 0's timed calls must account for its solve time within this share.
ACCOUNTING_TOLERANCE = 0.05

END_TO_END = {"setup_s": "s", "solve_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = {
    "ampi.wait_s": "s", "ampi.send_s": "s", "ampi.coll_s": "s",
    "ampi.msgs": "count", "ampi.bytes": "B",
    "lb.migrate_s": "s", "lb.ranks_moved": "count",
    "lb.imbalance_pre": "ratio", "lb.imbalance_post": "ratio",
    "nasmz.sweep_s": "s",
    "modeled_s": "s", "iter_p50_ms": "ms", "iter_p90_ms": "ms",
    "iter_samples": "count", "accounted_frac": "ratio",
    "converse.msgs": "count", "converse.qd_msgs": "count",
    "converse.pool_hit_ratio": "ratio",
    "converse.queue_wait_p50_us": "us", "converse.queue_wait_p99_us": "us",
    "converse.handler_p50_us": "us", "converse.handler_p99_us": "us",
    "migrate.migrations": "count", "migrate.packs_stackcopy": "count",
    "migrate.packs_iso": "count", "migrate.packs_memalias": "count",
    "migrate.bytes_per_migration": "B",
    "migrate.pack_p50_us": "us", "migrate.pack_p99_us": "us",
    "migrate.unpack_p50_us": "us", "migrate.unpack_p99_us": "us",
    "migrate.e2e_p50_us": "us", "migrate.e2e_p99_us": "us",
    "charm.pings": "count", "charm.elem_migrations": "count",
    "wire.frames": "count/round", "wire.bytes": "B/round",
    "wire.chunks": "count/round", "wire.rendezvous": "count/round",
    "wire.retries": "count/round", "wire.span_sends": "count/round",
    "ft.epochs": "count", "ft.ckpt_bytes": "B", "ft.ship_bytes": "B",
    "ft.ship_ratio": "ratio", "ft.async_chunks": "count",
    "ft.epoch_s": "s", "ft.kills": "count", "ft.recoveries": "count",
    "ft.respawns": "count", "ft.recovery_s": "s",
    "trace.overhead": "ratio", "fail_frac": "ratio",
}


class Workload:
    def __init__(self, setup_probe, ft):
        self.setup_probe = setup_probe  # set-up timed by a one-round run
        self.ft = ft                    # kill storm with reference/ckpt runs


WORKLOADS = {
    "btmz_lb": Workload(setup_probe=False, ft=False),
    "migrate_storm": Workload(setup_probe=True, ft=False),
    "ftx_shm_full": Workload(setup_probe=True, ft=True),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- Build --------------------------------------------------------------------

def build():
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n" \
            not in cache.read_text(errors="replace"):
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "mfcbench_workload"])
    for argv in steps:
        if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log("mfcbench: build failed: " + " ".join(argv))
            return False
    return True


# ---- One benchmark run --------------------------------------------------------

class Run:
    """Runs and verifies the instances of one workload for one seed."""

    def __init__(self, name, seed):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.stopped = False  # a deadline expired: launch nothing more
        self.digest = {}      # (seed, part) -> first digest seen
        self.count = 0

    def instance(self, part, traced=False, seed=None):
        """Runs one instance; returns its record if it verified, else None."""
        seed = self.seed if seed is None else seed
        self.count += 1
        wdir = WORK_DIR / f"{os.getpid()}-{self.count}"
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("MFC_")}
        argv = [str(BINARY), "--workload", self.name, "--seed", str(seed),
                "--part", part]
        if traced:
            env["MFC_STATS"] = "1"
            env["MFC_STATS_FILE"] = str(wdir / "stats.json")
            argv.append("--trace")
        inst = bl.run_instance(argv, wdir, env, INSTANCE_DEADLINE_S,
                               wdir / "stdout", wdir / "stderr")
        rec = {"inst": inst, "data": inst.last_json(), "stats": None}
        why = self.verify(part, traced, rec, wdir, seed)
        if why:
            err = (wdir / "stderr").read_text(errors="replace")[-2000:]
            log(f"mfcbench: {self.name} {part} seed {seed} instance failed: "
                f"{why}\n{err}")
        shutil.rmtree(wdir, ignore_errors=True)
        self.attempted += 1
        if why:
            self.failed += 1
            self.stopped = self.stopped or inst.timed_out
            return None
        return rec

    def verify(self, part, traced, rec, wdir, seed):
        """Returns why the instance failed, or '' if it verified."""
        inst, d = rec["inst"], rec["data"]
        if inst.timed_out:
            return f"missed its {INSTANCE_DEADLINE_S:g} s deadline"
        if inst.returncode != 0 or d is None:
            return f"exit code {inst.returncode}, no result"
        if d.get("ok") is not True:
            return "runtime checks failed: " + json.dumps(d)[:400]
        if traced:
            stats = read_stats(wdir)
            if stats is None:
                return "no MFC_STATS dump"
            rec["stats"] = stats
        if "digest" in d:
            # Same seed, same digest: every main run of a storm must agree,
            # and an ftx kill run must match the failure-free reference.
            key = "reference" if self.wl.ft and part in (
                "main", "ckpt", "reference") else part
            want = self.digest.setdefault((seed, key), d["digest"])
            if d["digest"] != want:
                return f"digest {d['digest']} != {want} for seed {seed}"
        if traced and self.name == "btmz_lb":
            frac = accounted_frac(d)
            if abs(frac - 1.0) > ACCOUNTING_TOLERANCE:
                return f"rank 0 calls account for {frac:.3f} of solve_s"
        return ""

    def keep_going(self, t0, seconds, mains):
        if self.stopped:
            return False
        return mains < MIN_MAIN_INSTANCES or time.monotonic() - t0 < seconds

    def check_held_out(self):
        """Verifies the held-out seed: a kill storm against its own
        failure-free reference, any other workload on its own checks."""
        if self.stopped:
            return
        if self.wl.ft:
            self.instance("reference", seed=HELD_OUT_SEED)
        if not self.stopped:
            self.instance("main", seed=HELD_OUT_SEED)


def read_stats(wdir):
    """Process 0's MFC_STATS dump (the only dump of a one-process run).
    Process 0 is never killed, so its books cover the whole run."""
    for name in ("stats.json.proc0", "stats.json"):
        path = wdir / name
        if path.exists():
            try:
                return json.loads(path.read_text())
            except ValueError:
                return None
    return None


def accounted_frac(d):
    parts = ("rank0_wait_s", "rank0_send_s", "rank0_coll_s",
             "rank0_migrate_s", "rank0_sweep_s")
    return bl.ratio(sum(d[k] for k in parts), d["solve_s"])


def solve_times(recs):
    return [r["data"]["solve_s"] for r in recs]


def measure_end_to_end(run, seconds):
    t0 = time.monotonic()
    if run.wl.ft:
        run.instance("reference")
    mains, setups = [], []
    while run.keep_going(t0, seconds, len(mains)):
        rec = run.instance("main")
        if rec:
            mains.append(rec)
        if run.wl.setup_probe and not run.stopped:
            rec = run.instance("setup")
            if rec:
                setups.append(rec)
    if not mains or (run.wl.setup_probe and not setups):
        return {}
    if run.wl.setup_probe:
        setup = bl.median(solve_times(setups))
    else:
        setup = bl.median([r["data"]["setup_s"] for r in mains])
    return {
        "setup_s": setup,
        "solve_s": bl.median(solve_times(mains)),
        "cpu_s": bl.median([r["inst"].cpu_s for r in mains]),
        "peak_rss_mb": bl.median([r["inst"].peak_rss_mb for r in mains]),
    }


def layer_values(d, st):
    """Per-layer values of one traced instance (zero for a layer the
    workload bypasses)."""
    c, h = st["counters"], st["histograms"]

    def us(hist, q):
        return h[hist][q] / 1000.0

    def per_round(x):
        return bl.ratio(x, d.get("rounds", 0))

    migrations = c["pack-stackcopy"] + c["pack-iso"] + c["pack-memalias"]
    v = {
        "ampi.wait_s": d.get("rank0_wait_s", 0.0),
        "ampi.send_s": d.get("rank0_send_s", 0.0),
        "ampi.coll_s": d.get("rank0_coll_s", 0.0),
        "ampi.msgs": d.get("ampi_msgs", 0),
        "ampi.bytes": d.get("ampi_bytes", 0),
        "lb.migrate_s": d.get("rank0_migrate_s", 0.0),
        "lb.ranks_moved": d.get("ranks_moved", 0),
        "lb.imbalance_pre": d.get("imbalance_pre", 0.0),
        "lb.imbalance_post": d.get("imbalance_post", 0.0),
        "nasmz.sweep_s": d.get("rank0_sweep_s", 0.0),
        "modeled_s": d.get("modeled_s", 0.0),
        "accounted_frac": accounted_frac(d) if "rank0_wait_s" in d else 0.0,
        "converse.msgs": c["msgs-sent"],
        "converse.qd_msgs": c["qd-sent"],
        "converse.pool_hit_ratio": bl.ratio(
            c["msgs-recycled"], c["msgs-recycled"] + c["msgs-allocated"]),
        "converse.queue_wait_p50_us": us("queue-wait", "p50_ns"),
        "converse.queue_wait_p99_us": us("queue-wait", "p99_ns"),
        "converse.handler_p50_us": us("handler-service", "p50_ns"),
        "converse.handler_p99_us": us("handler-service", "p99_ns"),
        "migrate.migrations": migrations,
        "migrate.packs_stackcopy": c["pack-stackcopy"],
        "migrate.packs_iso": c["pack-iso"],
        "migrate.packs_memalias": c["pack-memalias"],
        "migrate.bytes_per_migration": bl.ratio(d.get("image_bytes", 0),
                                                migrations),
        "migrate.pack_p50_us": us("migrate-pack", "p50_ns"),
        "migrate.pack_p99_us": us("migrate-pack", "p99_ns"),
        "migrate.unpack_p50_us": us("migrate-unpack", "p50_ns"),
        "migrate.unpack_p99_us": us("migrate-unpack", "p99_ns"),
        "migrate.e2e_p50_us": us("migrate-e2e", "p50_ns"),
        "migrate.e2e_p99_us": us("migrate-e2e", "p99_ns"),
        "charm.pings": d.get("pings_delivered", 0),
        "charm.elem_migrations": c["elem-migrations"],
        "wire.frames": per_round(c["wire-sent-frames"]),
        "wire.bytes": per_round(c["wire-sent-bytes"]),
        "wire.chunks": per_round(c["wire-chunks"]),
        "wire.rendezvous": per_round(c["wire-rendezvous"]),
        "wire.retries": per_round(c["wire-retries"]),
        "wire.span_sends": per_round(c["span-sends"]),
        "ft.epochs": d.get("epochs", 0),
        "ft.ckpt_bytes": c["ft-checkpoint-bytes"],
        "ft.ship_bytes": c["ft-ship-bytes"],
        # Process 0 hosts 1/nprocs of the PEs and ships their blobs.
        "ft.ship_ratio": bl.ratio(c["ft-ship-bytes"] * st["nprocs"],
                                  c["ft-checkpoint-bytes"]),
        "ft.async_chunks": c["ft-async-chunks"],
        "ft.kills": d.get("kills", 0),
        "ft.recoveries": d.get("recoveries", 0),
        "ft.respawns": d.get("respawns", 0),
    }
    return v


def measure_per_layer(run, seconds):
    """Alternates untraced and traced main instances (their solve times give
    trace.overhead); ftx workloads add failure-free reference and
    checkpoint-only runs, whose solve-time differences price an epoch and a
    recovery."""
    t0 = time.monotonic()
    plain, traced, refs, ckpts = [], [], [], []
    while run.keep_going(t0, seconds, len(traced)):
        for part, is_traced, sink in (
                ("main", False, plain), ("main", True, traced),
                ("reference", False, refs), ("ckpt", False, ckpts)):
            if run.stopped or (part in ("reference", "ckpt")
                               and not run.wl.ft):
                continue
            rec = run.instance(part, is_traced)
            if rec:
                sink.append(rec)
    if not plain or not traced or (run.wl.ft and not (refs and ckpts)):
        return {}
    per = [layer_values(r["data"], r["stats"]) for r in traced]
    out = {name: bl.median([v[name] for v in per]) for name in per[0]}
    iters = [x for r in traced for x in r["data"].get("iter_s", [])]
    if iters:
        out["iter_p50_ms"] = bl.percentile(iters, 50) * 1e3
        out["iter_p90_ms"] = bl.percentile(iters, 90) * 1e3
    else:
        out["iter_p50_ms"] = out["iter_p90_ms"] = 0.0
    out["iter_samples"] = len(iters)
    out["ft.epoch_s"] = out["ft.recovery_s"] = 0.0
    if run.wl.ft:
        ref = bl.median(solve_times(refs))
        ckpt = bl.median(solve_times(ckpts))
        main = bl.median(solve_times(plain))
        out["ft.epoch_s"] = bl.ratio(ckpt - ref, out["ft.epochs"])
        out["ft.recovery_s"] = bl.ratio(main - ckpt, out["ft.kills"])
    out["trace.overhead"] = bl.ratio(bl.median(solve_times(traced)),
                                     bl.median(solve_times(plain)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 2
    bl.become_subreaper()
    print("host: " + json.dumps(bl.host_fingerprint()), flush=True)

    run = Run(args.workload, args.seed)
    wanted = PER_LAYER if args.trace else END_TO_END
    if args.trace:
        values = measure_per_layer(run, args.seconds)
    else:
        values = measure_end_to_end(run, args.seconds)
    run.check_held_out()
    if args.trace:
        values["fail_frac"] = bl.ratio(run.failed, run.attempted)
    correct = run.failed == 0 and set(wanted) <= set(values)
    metrics = {k: (values[k], u) for k, u in wanted.items() if k in values}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"instances={run.attempted} failed={run.failed}", flush=True)
    print(bl.result_line(correct, max(run.attempted, 1), run.failed, metrics),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
