#!/usr/bin/env python3
"""Hop latency and quiescence tails from a merged mfc trace.

    scripts/trace_hops.py TRACE.json [--json]

Reads the Chrome trace-event file the machine writes under MFC_TRACE=1 (a
multi-process run merges its per-process parts into one) and reports:

  - hop latency of messages sent from inside a handler, split into
    same-process and cross-process hops, for the quiescence (QD) token and
    for every handler-to-handler message. A hop runs from the end of the
    sending handler's span to the end of the receiving handler's span. Only
    span-closing events read the clock fresh (src/trace/trace.h); an opening
    stamp may be a cached one.
  - per QD detection: the tail from the end of the last application handler
    to the end of the verdict, and the token dispatches the detection took.
    The verdict is the token dispatch on PE 0 that sends the releases.

Stamps from different processes are aligned by the merge's clock-skew
estimate, which a noisy handshake can leave off by a few hundred
microseconds. The script removes that residue per process from the data:
it takes a QD token hop to cost the same in both directions between two
processes (the token ring crosses each boundary once each way) and shifts
every process's stamps by half the difference of the two directions'
medians against process 0. The offsets applied are printed.

The machine records the handler ids of its QD protocol
(qd_handlers = start,token,release) and of its barrier (barrier_handlers =
arrive,release) in otherData. Every other handler counts as application
traffic.

Prints a table, or with --json one JSON object. Traces from before the
machine recorded the ids take them as --qd-handlers / --barrier-handlers.
Exit status 2 if the ids are missing or the trace holds no handler spans.
"""

import argparse
import bisect
import json
import statistics
import sys
from collections import defaultdict


def ids(other, key):
    return [int(x) for x in other.get(key, "").split(",") if x]


def walk(events):
    """Returns (spans, flow_src, flow_dst). A span is a dict with track,
    handler id (None for non-handler slices), begin/end stamps in us and the
    handler ids it sent to; flow_src/flow_dst map a flow id to the span
    enclosing its start/finish."""
    stacks = defaultdict(list)
    spans, flow_src, flow_dst = [], {}, {}
    for e in events:
        ph = e.get("ph")
        track = (e.get("pid", 0), e.get("tid", 0))
        stack = stacks[track]
        if ph == "B":
            args = e.get("args", {})
            handler = args.get("handler") if e["name"].startswith(
                "handler#") else None
            spans.append({"pid": track[0], "handler": handler,
                          "b": e["ts"], "e": None, "sends": []})
            stack.append(len(spans) - 1)
        elif ph == "E":
            if stack:
                spans[stack.pop()]["e"] = e["ts"]
        elif not stack:
            continue
        elif ph == "i" and e.get("name") == "send":
            spans[stack[-1]]["sends"].append(e.get("args", {}).get("handler"))
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


def clock_offsets(pairs, qd_token):
    """Per-process stamp offset against process 0 (see the module notes):
    half the difference of the median QD token hop 0->p and p->0."""
    by_dir = defaultdict(list)
    for s, d in pairs:
        if s["handler"] == qd_token and d["handler"] == qd_token:
            by_dir[(s["pid"], d["pid"])].append(d["e"] - s["e"])
    offsets = {0: 0.0}
    for (a, b), there in by_dir.items():
        back = by_dir.get((b, a))
        if a == 0 and b != 0 and back:
            offsets[b] = (statistics.median(there) - statistics.median(back)) / 2
    return offsets


def analyse(doc, overrides):
    other = dict(doc.get("otherData", {}))
    other.update({k: v for k, v in overrides.items() if v})
    qd = ids(other, "qd_handlers")
    barrier = ids(other, "barrier_handlers")
    if len(qd) != 3:
        return None
    qd_token, qd_release = qd[1], qd[2]
    protocol = set(qd) | set(barrier)
    spans, flow_src, flow_dst = walk(doc.get("traceEvents", []))
    pairs = []  # (sender span, receiver span) of handler-to-handler messages
    for fid, si in flow_src.items():
        di = flow_dst.get(fid)
        if di is None:
            continue
        s, d = spans[si], spans[di]
        if None in (s["handler"], d["handler"], s["e"], d["e"]):
            continue
        pairs.append((s, d))

    offsets = clock_offsets(pairs, qd_token)
    for sp in spans:
        if sp["e"] is not None:
            sp["e"] -= offsets.get(sp["pid"], 0.0)

    hops = {"qd_same": [], "qd_cross": [], "all_same": [], "all_cross": []}
    for s, d in pairs:
        side = "cross" if s["pid"] != d["pid"] else "same"
        lat = d["e"] - s["e"]
        hops["all_" + side].append(lat)
        if s["handler"] == qd_token and d["handler"] == qd_token:
            hops["qd_" + side].append(lat)

    closed = [sp for sp in spans if sp["handler"] is not None and sp["e"] is not None]
    if not closed:
        return None
    app_ends = sorted(sp["e"] for sp in closed if sp["handler"] not in protocol)
    token_ends = sorted(sp["e"] for sp in closed if sp["handler"] == qd_token)
    verdicts = sorted(sp["e"] for sp in closed
                      if sp["handler"] == qd_token and qd_release in sp["sends"])
    tails, tokens = [], []
    prev = float("-inf")
    for v in verdicts:
        tokens.append(bisect.bisect_right(token_ends, v) -
                      bisect.bisect_right(token_ends, prev))
        i = bisect.bisect_right(app_ends, v)
        if i > 0 and app_ends[i - 1] > prev:
            tails.append(v - app_ends[i - 1])
        prev = v

    out = {name: dist(vals) for name, vals in hops.items()}
    out["clock_offsets_us"] = {str(p): round(o, 2) for p, o in offsets.items()}
    out["qd"] = {"detections": len(verdicts),
                 "with_app_work": len(tails),
                 "tail": dist(tails),
                 "token_dispatches_mean": round(statistics.mean(tokens), 2)
                 if tokens else 0}
    return out


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
    ap.add_argument("--qd-handlers", default="", metavar="START,TOKEN,RELEASE")
    ap.add_argument("--barrier-handlers", default="", metavar="ARRIVE,RELEASE")
    args = ap.parse_args()
    with open(args.trace) as f:
        doc = json.load(f)
    out = analyse(doc, {"qd_handlers": args.qd_handlers,
                        "barrier_handlers": args.barrier_handlers})
    if out is None:
        print("trace_hops: no QD handler ids in otherData or no handler "
              "spans", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(out, sort_keys=True))
        return 0
    print(f"{'qd token hop, same-process':<32} {fmt(out['qd_same'])}")
    print(f"{'qd token hop, cross-process':<32} {fmt(out['qd_cross'])}")
    print(f"{'any handler hop, same-process':<32} {fmt(out['all_same'])}")
    print(f"{'any handler hop, cross-process':<32} {fmt(out['all_cross'])}")
    qd = out["qd"]
    print(f"{'qd tail after last app handler':<32} {fmt(qd['tail'])}")
    print("clock offsets applied (us): " + ", ".join(
        f"proc {p} {o:+.2f}" for p, o in sorted(out["clock_offsets_us"].items())))
    print(f"qd detections {qd['detections']} ({qd['with_app_work']} after "
          f"application work), token dispatches per detection "
          f"{qd['token_dispatches_mean']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
