#!/usr/bin/env python3
"""Paired runs of the mfc benchmark on two git revisions.

    scripts/bench_pairs.py PARENT CHANGE --workload migrate_storm --pairs 10

Checks each revision out as a detached git worktree under a temporary
directory, then runs `mfcbench/run.py --trace 0` on the two alternately;
run.py builds its checkout before every run, so a build failure shows as a
failed run. Pair i uses seed `--seed0 + i` on both sides, and which side
runs first flips every pair. Run length, the end-to-end metrics and their
direction come from BENCHMARK.json. Worktrees and the temporary directory
are removed on exit.

For each end-to-end metric the report gives each side's median and
quartiles and how many pairs the change won (ties count for neither side).
It then says whether the gain rule holds for that metric: the change wins
at least nine tenths of all pairs run (a pair with a failed run counts as
lost), and the medians differ by more than the parent's interquartile range.

Exit status: 0 when every run was correct, 1 when any run was not correct
(or printed no result), 2 on a usage or git error.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "mfcbench"))
import benchlib as bl  # noqa: E402

SIDES = ("parent", "change")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def load_spec():
    """Returns (run_seconds, {end-to-end metric: True if lower is better})."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return spec["run_seconds"], {m["name"]: m["better"] == "lower"
                                 for m in spec["end_to_end"]}


def run_once(tree, workload, seed, seconds, metrics):
    """One `run.py --trace 0`; returns its metrics, or None if the run was
    not correct."""
    argv = [sys.executable, "mfcbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        res = bl.parse_result(lines[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or not res["correct"]:
        return None
    return {k: res["metrics"][k]["value"] for k in metrics}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def report(results, metrics, pairs_run):
    """Prints the per-metric summary from {side: [metrics per pair]}."""

    def spread(xs):
        q1, q3 = quartiles(xs)
        return f"{bl.median(xs):.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"\n{'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'delta':>8s} {'wins':>6s}  gain rule")
    for name, lower in metrics.items():
        par = [m[name] for m in results["parent"]]
        chg = [m[name] for m in results["change"]]
        pm, cm = bl.median(par), bl.median(chg)
        q1, q3 = quartiles(par)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        gap = pm - cm if lower else cm - pm
        holds = wins * 10 >= 9 * pairs_run and gap > q3 - q1
        delta = bl.ratio(cm - pm, pm) * 100
        print(f"{name:12s} {spread(par):34s} {spread(chg):34s} "
              f"{delta:+7.1f}% {wins:3d}/{pairs_run:<3d} "
              f"{'holds' if holds else 'does not hold'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="baseline git revision")
    ap.add_argument("change", help="git revision to judge")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1,
                    help="seed of the first pair (default: 1)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    # SIGTERM unwinds like Ctrl-C, so the worktrees are still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))

    try:
        repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
        revs = {side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}")
                for side, rev in zip(SIDES, (args.parent, args.change))}
    except subprocess.CalledProcessError as e:
        log(f"bench_pairs: {e.stderr.strip()}")
        return 2

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {}
        try:
            for side in SIDES:
                trees[side] = Path(tmp) / side
                git(repo, "worktree", "add", "--detach", str(trees[side]),
                    revs[side])
                log(f"bench_pairs: {side} {revs[side][:12]} at {trees[side]}")
            return run_pairs(args, trees)
        finally:
            for tree in trees.values():
                subprocess.run(["git", "-C", str(repo), "worktree", "remove",
                                "--force", str(tree)], check=False,
                               capture_output=True)
            subprocess.run(["git", "-C", str(repo), "worktree", "prune"],
                           check=False, capture_output=True)


def run_pairs(args, trees):
    seconds, metrics = load_spec()
    print(f"# {args.workload}: {args.pairs} pairs, --seconds {seconds:g}, "
          f"seeds {args.seed0}..{args.seed0 + args.pairs - 1}, "
          f"host {json.dumps(bl.host_fingerprint())}", flush=True)
    results = {side: [] for side in SIDES}
    failed = 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {side: run_once(trees[side], args.workload, seed, seconds,
                              metrics)
               for side in order}
        bad = [side for side in SIDES if got[side] is None]
        if bad:
            failed += 1
            print(f"pair {i + 1:2d} seed {seed}: not correct: "
                  f"{', '.join(bad)}", flush=True)
            continue
        for side in SIDES:
            results[side].append(got[side])
        print(f"pair {i + 1:2d} seed {seed} first={order[0]:6s} " +
              "  ".join(f"{k} {got['parent'][k]:.4g} -> {got['change'][k]:.4g}"
                        for k in metrics), flush=True)
    if results["parent"]:
        report(results, metrics, args.pairs)
    if failed:
        print(f"\nFAIL: {failed} of {args.pairs} pairs had a run that was "
              "not correct")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
