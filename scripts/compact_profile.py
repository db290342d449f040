#!/usr/bin/env python3
"""Compact a Chrome span profile to one complete event per span name.

  compact_profile.py IN_profile.json OUT_profile.json

A perf-suite --profile-out trace carries hundreds of thousands of span
events (~50 MB) — far too heavy to commit as a baseline. But the only
consumer of a profile *pair* in this repo, `mntp-inspect diff`,
aggregates by span name first: count, summed wall time, summed self
time. This script performs that exact
aggregation ahead of time, emitting a valid (tiny) Chrome trace with a
single ph:"X" event per span name whose `dur` is the summed wall time
and `args.self_us` the summed self time; the original event count is
preserved in `args.agg_count` and the event count collapses to 1.

Diff a compacted profile against another COMPACTED profile of a run
with the same shape (same suite, same reps): the summed totals line up
and the span attribution is identical to diffing the full traces. This
is what CI's bench-gate does against the committed
BENCH_baseline_profile.json. Do not diff a compacted profile against a
full one — the totals agree but the per-name event counts will not.

Exit 0 on success, 2 on bad inputs.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(f"usage: {sys.argv[0]} IN_profile.json OUT_profile.json",
              file=sys.stderr)
        return 2
    src, dst = sys.argv[1], sys.argv[2]
    try:
        with open(src, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"compact_profile: cannot load {src}: {e}", file=sys.stderr)
        return 2
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"compact_profile: {src} has no traceEvents array",
              file=sys.stderr)
        return 2

    spans = {}
    metas = []
    for e in events:
        if not isinstance(e, dict):
            continue
        if e.get("ph") == "M":
            metas.append(e)
            continue
        if e.get("ph") != "X":
            continue
        agg = spans.setdefault(e.get("name", ""),
                               {"count": 0, "total_us": 0.0, "self_us": 0.0})
        agg["count"] += 1
        agg["total_us"] += float(e.get("dur", 0.0))
        agg["self_us"] += float(e.get("args", {}).get("self_us", 0.0))

    out_events = list(metas)
    ts = 0
    for name in sorted(spans):
        agg = spans[name]
        out_events.append({
            "name": name,
            "cat": "aggregate",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": ts,
            "dur": round(agg["total_us"], 3),
            "args": {
                "self_us": round(min(agg["self_us"], agg["total_us"]), 3),
                "depth": 0,
                "agg_count": agg["count"],
            },
        })
        # Non-overlapping synthetic timestamps keep trace viewers happy.
        ts += int(agg["total_us"]) + 1

    compact = {k: v for k, v in doc.items() if k != "traceEvents"}
    compact["traceEvents"] = out_events
    try:
        with open(dst, "w", encoding="utf-8") as f:
            json.dump(compact, f, indent=1)
            f.write("\n")
    except OSError as e:
        print(f"compact_profile: cannot write {dst}: {e}", file=sys.stderr)
        return 2
    print(f"compact_profile: {dst} — {len(spans)} span aggregate(s) from "
          f"{sum(a['count'] for a in spans.values())} events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
