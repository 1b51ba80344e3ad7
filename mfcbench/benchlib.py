"""Helpers for the mfc benchmark: statistics, process control, output.

Kept apart from run.py so test_benchlib.py can exercise them without
building the runtime.
"""

import ctypes
import json
import math
import os
import platform
import re
import signal
import subprocess
import threading
import time

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

# A percentile is reported only when at least this many samples lie beyond
# it, so p90 needs 100 samples and p99 needs 1000.
MIN_TAIL_SAMPLES = 10


# ---- Statistics ---------------------------------------------------------------

def median(values):
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def tail_count(n, pct):
    """Samples strictly beyond the pct-th percentile of n samples."""
    return n - math.ceil(n * pct / 100.0)


def percentile(values, pct):
    """Nearest-rank percentile; refuses a percentile with too thin a tail."""
    xs = sorted(values)
    n = len(xs)
    if n == 0 or not 0 < pct < 100:
        raise ValueError("percentile needs samples and 0 < pct < 100")
    if pct > 50 and tail_count(n, pct) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} of {n} samples has fewer than {MIN_TAIL_SAMPLES} "
            "samples beyond it")
    return xs[max(0, math.ceil(n * pct / 100.0) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


# ---- Host fingerprint ---------------------------------------------------------

def host_fingerprint():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 0
    return {"ncpus": os.cpu_count() or 0, "nproc": nproc,
            "kernel": platform.release(), "cpu_model": model}


# ---- Process control ----------------------------------------------------------

def become_subreaper():
    """Makes orphaned descendants re-parent to this process, so a killed
    instance's children (machine processes, the respawn zygote) can be
    reaped here. Best effort: returns False where prctl is unavailable."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def _stop_group(pgid, grace_s=10.0):
    """SIGKILLs every process left in the group and reaps them."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + grace_s
    while _group_alive(pgid) and time.monotonic() < end:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        time.sleep(0.01)


class Instance:
    """Outcome of one child run: exit code, CPU and peak RSS of its whole
    process tree (every descendant it reaped), and whether the deadline
    killed it."""

    def __init__(self, returncode, cpu_s, peak_rss_mb, timed_out, stdout):
        self.returncode = returncode
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.timed_out = timed_out
        self.stdout = stdout

    def last_json(self):
        """The last stdout line parsed as a JSON object, or None."""
        lines = [ln for ln in self.stdout.splitlines() if ln.strip()]
        if not lines:
            return None
        try:
            obj = json.loads(lines[-1])
        except ValueError:
            return None
        return obj if isinstance(obj, dict) else None


def run_instance(argv, cwd, env, deadline_s, stdout_path, stderr_path):
    """Runs argv in its own process group under a wall-clock deadline.

    On expiry the whole group is SIGKILLed. Either way every process left
    in the group is killed and reaped before returning. CPU time and peak
    RSS come from wait4, which folds in every descendant the child reaped
    (forked machine processes, the zygote and its respawned incarnations).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err, start_new_session=True)
    fired = threading.Event()

    def expire():
        fired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(deadline_s, expire)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _stop_group(proc.pid)
    with open(stdout_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    return Instance(proc.returncode, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0, fired.is_set(), stdout)


# ---- Result line --------------------------------------------------------------

def result_line(correct, attempted, failed, metrics):
    """metrics: {name: (value, unit)} -> the benchmark's final JSON line."""
    out = {}
    for name, (value, unit) in metrics.items():
        if not NAME_RE.match(name) or not UNIT_RE.match(unit):
            raise ValueError(f"bad metric name or unit: {name!r} {unit!r}")
        out[name] = {"value": float(value), "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def parse_result(line):
    """Parses and validates a final result line; raises ValueError."""
    obj = json.loads(line)
    if not isinstance(obj, dict) or sorted(obj) != sorted(RESULT_KEYS):
        raise ValueError("result keys must be exactly " + ", ".join(
            RESULT_KEYS))
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(f"{key} must be an integer")
    if obj["attempted"] < 1 or not 0 <= obj["failed"] <= obj["attempted"]:
        raise ValueError("need attempted >= 1 and 0 <= failed <= attempted")
    for name, m in obj["metrics"].items():
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if sorted(m) != ["unit", "value"] or not UNIT_RE.match(m["unit"]):
            raise ValueError(f"bad metric entry for {name!r}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            raise ValueError(f"metric {name!r} is not a finite number")
    return obj
