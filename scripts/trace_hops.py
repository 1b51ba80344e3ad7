#!/usr/bin/env python3
"""Handler-to-handler hop latency from a merged mfc trace.

    scripts/trace_hops.py TRACE.json [--json]

Reads the Chrome trace-event file the machine writes under MFC_TRACE=1 (a
multi-process run merges its per-process parts into one) and reports the
hop latency of messages sent from inside a handler, split into
same-process and cross-process hops. A hop runs from the end of the
sending handler's span to the end of the receiving handler's span. Only
span-closing events read the clock fresh (src/trace/trace.h); an opening
stamp may be a cached one.

Stamps from different processes are aligned by each process's monotonic
anchor (forked processes share CLOCK_MONOTONIC), so cross-process hops
carry the anchors' residue of about ten microseconds, in either direction;
nothing here corrects it.

Prints a table, or with --json one JSON object. Exit status 2 if the trace
holds no handler-to-handler hop.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict


def walk(events):
    """Returns (spans, flow_src, flow_dst). A span is a dict with its
    process, handler id (None for non-handler slices) and end stamp in us;
    flow_src/flow_dst map a flow id to the span enclosing its start/finish."""
    stacks = defaultdict(list)
    spans, flow_src, flow_dst = [], {}, {}
    for e in events:
        ph = e.get("ph")
        track = (e.get("pid", 0), e.get("tid", 0))
        stack = stacks[track]
        if ph == "B":
            handler = e.get("args", {}).get("handler") if e["name"].startswith(
                "handler#") else None
            spans.append({"pid": track[0], "handler": handler, "e": None})
            stack.append(len(spans) - 1)
        elif ph == "E":
            if stack:
                spans[stack.pop()]["e"] = e["ts"]
        elif not stack:
            continue
        elif ph == "s":
            flow_src[e["id"]] = stack[-1]
        elif ph == "f":
            flow_dst[e["id"]] = stack[-1]
    return spans, flow_src, flow_dst


def dist(values):
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=10) if len(values) > 1 else [values[0]] * 9
    return {"n": len(values), "p50_us": round(statistics.median(values), 2),
            "p90_us": round(q[8], 2), "mean_us": round(statistics.mean(values), 2)}


def analyse(doc):
    spans, flow_src, flow_dst = walk(doc.get("traceEvents", []))
    hops = {"same": [], "cross": []}
    for fid, si in flow_src.items():
        di = flow_dst.get(fid)
        if di is None:
            continue
        s, d = spans[si], spans[di]
        if None in (s["handler"], d["handler"], s["e"], d["e"]):
            continue
        hops["cross" if s["pid"] != d["pid"] else "same"].append(d["e"] - s["e"])
    if not hops["same"] and not hops["cross"]:
        return None
    return {name: dist(vals) for name, vals in hops.items()}


def fmt(d):
    if d.get("n", 0) == 0:
        return "n=0"
    return (f"n={d['n']:<7} p50 {d['p50_us']:>9.2f} us   p90 {d['p90_us']:>9.2f} us"
            f"   mean {d['mean_us']:>9.2f} us")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--json", action="store_true",
                    help="print one JSON object instead of a table")
    args = ap.parse_args()
    with open(args.trace) as f:
        doc = json.load(f)
    out = analyse(doc)
    if out is None:
        print("trace_hops: no handler-to-handler hop in the trace",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(out, sort_keys=True))
        return 0
    print(f"{'handler hop, same-process':<28} {fmt(out['same'])}")
    print(f"{'handler hop, cross-process':<28} {fmt(out['cross'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
