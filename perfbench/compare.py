#!/usr/bin/env python3
"""Summarize or compare result files written by run.py.

    python3 perfbench/compare.py --summary .bench_out/result-*-t0.json
    python3 perfbench/compare.py --base base/result-*-t0.json --new .bench_out/result-*-t0.json

A summary gives, per workload and end-to-end metric, the median and the
quartiles over the files, with the spread (Q3 - Q1) / median.  A
comparison puts the two sides' medians next to each other, with the
change as a share of the base median and the metric's bound from
BENCHMARK.json, and each side's failed/attempted queries and whether all
its answers were correct.  A comparison whose sides ran on different
kernel backends or Python versions, or where a side gave a wrong answer,
is marked INVALID; one where the new side's share of failed queries is
higher than the base's is marked WORSE.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """{workload: [record, ...]} of the untraced result files given."""
    out = {}
    for p in paths:
        with open(p, encoding="utf-8") as fh:
            rec = json.load(fh)
        if not rec["stamp"]["trace"]:
            out.setdefault(rec["stamp"]["workload"], []).append(rec)
    return out


def summarize(records):
    runs = {}
    for wl, recs in sorted(records.items()):
        metrics = {}
        for name in recs[0]["end_to_end"]:
            vals = [r["end_to_end"][name] for r in recs]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (med, med, med))
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
        runs[wl] = {"runs": len(recs),
                    "seeds": sorted(r["stamp"]["seed"] for r in recs),
                    "failed": [r["result"]["failed"] for r in recs],
                    "attempted": [r["result"]["attempted"] for r in recs],
                    "metrics": metrics}
    return runs


def stamps(records):
    return {(r["stamp"]["backend"], r["stamp"]["python"])
            for recs in records.values() for r in recs}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--summary", nargs="+", metavar="FILE")
    ap.add_argument("--base", nargs="+", metavar="FILE")
    ap.add_argument("--new", nargs="+", metavar="FILE")
    args = ap.parse_args(argv)
    if args.summary:
        recs = load(args.summary)
        print(json.dumps({"stamps": sorted(stamps(recs)),
                          "workloads": summarize(recs)}, indent=1))
        return 0
    if not (args.base and args.new):
        ap.error("give --summary, or both --base and --new")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: (m["bound"], m["better"])
                  for m in json.load(fh)["end_to_end"]}
    base, new = load(args.base), load(args.new)
    sides = (stamps(base), stamps(new))
    valid = len(sides[0]) == 1 and sides[0] == sides[1]
    if not valid:
        print(f"INVALID: backend/python differ between sides: {sides}")
    sb, sn = summarize(base), summarize(new)
    worse = False
    for wl in sorted(set(sb) & set(sn)):
        share = {}
        for side, recs in (("base", base[wl]), ("new", new[wl])):
            failed = sum(r["result"]["failed"] for r in recs)
            attempted = sum(r["result"]["attempted"] for r in recs)
            correct = all(r["result"]["correct"] for r in recs)
            share[side] = failed / attempted
            valid &= correct
            print(f"{wl:18s} {side:4s} failed {failed}/{attempted} "
                  f"({100 * share[side]:.3f}%) correct {str(correct).lower()}"
                  + ("" if correct else "  INVALID"))
        if share["new"] > share["base"]:
            worse = True
            print(f"{wl:18s} failure share rose  WORSE")
        for name, (bound, better) in bounds.items():
            b = sb[wl]["metrics"][name]["median"]
            n = sn[wl]["metrics"][name]["median"]
            change = (n - b) / b
            regress = change > bound if better == "lower" else -change > bound
            worse |= regress
            print(f"{wl:18s} {name:14s} base {b:11.5g} new {n:11.5g} "
                  f"{100 * change:+7.2f}% (bound {100 * bound:.0f}%)"
                  + ("  WORSE" if regress else ""))
    return 2 if not valid else int(worse)


if __name__ == "__main__":
    sys.exit(main())
