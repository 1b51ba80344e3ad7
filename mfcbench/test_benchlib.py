#!/usr/bin/env python3
"""Tests for the benchmark's own code; they need no build of the runtime.

    python3 mfcbench/test_benchlib.py
"""

import json
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

import benchlib as bl
import run

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class PercentileTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(bl.median([3, 1, 2]), 2)
        self.assertEqual(bl.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            bl.median([])

    def test_nearest_rank(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(bl.percentile(xs, 50), 50)
        self.assertEqual(bl.percentile(xs, 90), 90)
        self.assertEqual(bl.percentile(list(reversed(xs)), 90), 90)

    def test_tail_rule(self):
        # p90 of 100 samples leaves exactly 10 beyond it; of 99, only 9.
        self.assertEqual(bl.tail_count(100, 90), 10)
        self.assertEqual(bl.tail_count(99, 90), 9)
        bl.percentile(range(100), 90)
        with self.assertRaises(ValueError):
            bl.percentile(range(99), 90)
        # p99 needs 1000 samples.
        bl.percentile(range(1000), 99)
        with self.assertRaises(ValueError):
            bl.percentile(range(999), 99)
        # The median needs no tail.
        self.assertEqual(bl.percentile([7], 50), 7)


class NamesTest(unittest.TestCase):
    def test_metric_names_and_units(self):
        for table in (run.END_TO_END, run.PER_LAYER):
            for name, unit in table.items():
                self.assertRegex(name, bl.NAME_RE)
                self.assertRegex(name, r"^[A-Za-z0-9_.-]+$")
                self.assertRegex(unit, bl.UNIT_RE)
        for name in run.WORKLOADS:
            self.assertRegex(name, bl.NAME_RE)

    def test_benchmark_json_matches_runner(self):
        spec = json.loads(BENCH_JSON.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)


class ResultLineTest(unittest.TestCase):
    def test_round_trip(self):
        line = bl.result_line(True, 5, 0, {"solve_s": (1.25, "s"),
                                           "ampi.msgs": (32000, "count")})
        obj = bl.parse_result(line)
        self.assertEqual(obj["attempted"], 5)
        self.assertEqual(obj["metrics"]["solve_s"],
                         {"value": 1.25, "unit": "s"})
        self.assertIsInstance(obj["metrics"]["ampi.msgs"]["value"], float)

    def test_rejects_malformed(self):
        good = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        bl.parse_result(json.dumps(good))
        for bad in (
                dict(good, extra=1),
                dict(good, attempted=0),
                dict(good, failed=2),
                dict(good, correct="yes"),
                dict(good, metrics={"bad name": {"value": 1, "unit": "s"}}),
                dict(good, metrics={"x": {"value": 1}}),
                dict(good, metrics={"x": {"value": "1", "unit": "s"}}),
        ):
            with self.assertRaises(ValueError):
                bl.parse_result(json.dumps(bad))
        with self.assertRaises(ValueError):
            bl.result_line(True, 1, 0, {"x y": (1.0, "s")})

    def test_last_json(self):
        inst = bl.Instance(0, 0.0, 0.0, False, 'log\n{"ok": true}\n\n')
        self.assertEqual(inst.last_json(), {"ok": True})
        self.assertIsNone(bl.Instance(0, 0.0, 0.0, False, "x\n").last_json())


# A parent that forks a child burning ~0.6 s of CPU, waits for it, and exits.
BUSY_CHILD = """
import os, time
pid = os.fork()
if pid == 0:
    end = time.process_time() + 0.6
    while time.process_time() < end:
        pass
    os._exit(0)
os.waitpid(pid, 0)
"""

# A hung parent with a hung forked child; the child prints its pid.
HANGING_TREE = """
import os, sys, time
if os.fork() == 0:
    print(os.getpid(), flush=True)
    time.sleep(600)
    os._exit(0)
time.sleep(600)
"""


def alive(pid):
    """True if pid runs and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class InstanceTest(unittest.TestCase):
    def run_py(self, code, deadline_s):
        with tempfile.TemporaryDirectory() as d:
            return bl.run_instance([sys.executable, "-c", code], d,
                                   dict(os.environ), deadline_s,
                                   os.path.join(d, "out"),
                                   os.path.join(d, "err"))

    def test_forked_child_cpu_is_counted(self):
        inst = self.run_py(BUSY_CHILD, 30)
        self.assertEqual(inst.returncode, 0)
        self.assertFalse(inst.timed_out)
        self.assertGreaterEqual(inst.cpu_s, 0.5)

    def test_deadline_kills_the_whole_group(self):
        t0 = time.monotonic()
        inst = self.run_py(HANGING_TREE, 1.0)
        self.assertTrue(inst.timed_out)
        self.assertNotEqual(inst.returncode, 0)
        self.assertLess(time.monotonic() - t0, 20)
        self.assertFalse(alive(int(inst.stdout.split()[0])))


if __name__ == "__main__":
    bl.become_subreaper()
    unittest.main()
