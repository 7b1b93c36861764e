#!/usr/bin/env python3
"""Compares two sets of perfbench results, metric by metric.

Usage, from the repository root:

    python3 perfbench/compare.py BASE [NEW] [--layers]

BASE and NEW are directories of run records saved by run.py (searched
recursively; run.py's default is .bench_build/perfbench/results) or single
record files. For each workload and metric the comparator prints the
median and quartiles of both sides and the spread (quartile distance over
median). With the end-to-end bounds of BENCHMARK.json it then flags only a
median delta beyond the metric's bound, and calls a metric unresolved when
either side's spread is wider than that bound, unless every NEW run beats
every BASE run. Runs that failed their oracle (correct false) never enter
the statistics; they are counted per side, and a workload whose NEW side
has more failed runs or a higher failed/attempted share than BASE is
flagged. So is a workload or bounded metric that BASE has and NEW lacks.
--layers also lists the per-layer metrics of traced runs, which have no
bound. With BASE alone it prints that set's statistics. The exit code is 1
when anything is flagged.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """Correct run records under path, keyed by (workload, trace), and per
    key the failure tally {bad runs, attempted, failed} over all records."""
    files = []
    if os.path.isdir(path):
        for d, _, names in os.walk(path):
            files += [os.path.join(d, n) for n in names if n.endswith(".json")]
    else:
        files = [path]
    runs, health = {}, {}
    for f in sorted(files):
        with open(f) as fh:
            rec = json.load(fh)
        if "workload" not in rec or "metrics" not in rec:
            continue
        key = (rec["workload"], rec["trace"])
        h = health.setdefault(key, {"bad": 0, "attempted": 0, "failed": 0})
        h["attempted"] += rec["attempted"]
        h["failed"] += rec["failed"]
        if rec["correct"]:
            runs.setdefault(key, []).append(rec)
        else:
            h["bad"] += 1
    return runs, health


def share(h):
    return h["failed"] / h["attempted"] if h["attempted"] else 1.0


def health_verdict(bh, nh):
    """Flags a NEW side that fails more often than BASE."""
    if nh["bad"] > bh["bad"] or share(nh) > share(bh):
        return "WORSE"
    return "ok"


def stats(values):
    """(median, q1, q3, spread) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better):
    bm, _, _, bs = stats(base)
    nm, _, _, ns = stats(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (nm - bm) / abs(bm) if bm else 0.0
    beats = all(sign * (n - b) < 0 for n in new for b in base)
    if (bs > bound or ns > bound) and not beats:
        return worse, "unresolved"
    if worse > bound:
        return worse, "WORSE"
    if worse < -bound:
        return worse, "better"
    return worse, "ok"


def fmt(values):
    med, q1, q3, spread = stats(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] {100 * spread:5.1f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, base_health = load(args.base)
    new, new_health = load(args.new) if args.new else ({}, {})
    if not base_health:
        sys.exit(f"compare: no run records under {args.base}")

    flagged = 0
    tables = [(0, spec["end_to_end"])]
    if args.layers:
        tables.append((1, spec["per_layer"]))
    for trace, metrics in tables:
        for w in spec["workloads"]:
            key = (w["name"], trace)
            if key not in base_health:
                continue
            b, n = base.get(key, []), new.get(key, [])
            bh = base_health[key]
            title = "per-layer" if trace else "end-to-end"
            print(f"== {w['name']} ({title}; correct runs: {len(b)}"
                  + (f" vs {len(n)})" if args.new else ")"))
            line = (f"  {'failed runs, failed/attempted':39s} "
                    f"{bh['bad']:d}, {share(bh):.3g}")
            if args.new:
                nh = new_health.get(key)
                if nh is None:
                    v = "missing"
                else:
                    v = health_verdict(bh, nh)
                    line += f"  | {nh['bad']:d}, {share(nh):.3g}"
                flagged += v != "ok"
                line += f"  {v}"
            print(line)
            for m in metrics:
                bv = [r["metrics"][m["name"]]["value"] for r in b
                      if m["name"] in r["metrics"]]
                nv = [r["metrics"][m["name"]]["value"] for r in n
                      if m["name"] in r["metrics"]]
                if not bv:
                    continue
                line = f"  {m['name']:32s} {m['unit']:>6s} {fmt(bv)}"
                if nv:
                    line += f"  | {fmt(nv)}"
                    if "bound" in m:
                        worse, v = verdict(bv, nv, m["bound"], m["better"])
                        flagged += v in ("WORSE", "unresolved")
                        line += (f"  worse {100 * worse:+6.1f}% "
                                 f"(bound {100 * m['bound']:.0f}%) {v}")
                elif args.new and "bound" in m:
                    flagged += 1
                    line += "  | missing"
                elif "bound" in m and stats(bv)[3] > m["bound"]:
                    line += f"  spread above bound {100 * m['bound']:.0f}%"
                print(line)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
