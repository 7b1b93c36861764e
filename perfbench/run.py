#!/usr/bin/env python3
"""Builds the benchmark, runs one workload and prints its verdict.

Usage, from the repository root:

    python3 perfbench/run.py --workload set_algebra --seed 1 --seconds 10 \
        --trace 0 [--save DIR]

The benchmark is a CMake package in perfbench/ that compiles the library in
the parent directory (Release) into .bench_build/perfbench, or under
$CARGO_TARGET_DIR when that is set. --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 reports the per-layer ones and writes
a Perfetto trace. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. Every run's full record (config,
all metrics) is also saved as JSON for compare.py.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170

# Per-layer metrics a workload reports as 0 because it never calls into
# that part of the library (see README.md, "Layers per workload").
BYPASSED = {
    "set_algebra": ("api.find_", "api.aug_range_", "api.range_", "serving.",
                    "graph."),
    "range_query": ("api.union", "api.intersect", "api.difference",
                    "api.multi_", "api.release", "core.multi_insert_sorted",
                    "serving.", "graph."),
    "graph_stream": ("api.", "core.multi_insert_sorted"),
}

# Each workload's own names for its end-to-end metrics, printed beside the
# generic ones: name -> (generic metric, scale, unit).
ALIASES = {
    "set_algebra": {"merge_meps": ("throughput_kps", 1e-3, "M/s")},
    "range_query": {"query_kqps": ("throughput_kps", 1, "k/s")},
    "graph_stream": {"ingest_keps": ("throughput_kps", 1, "k/s"),
                     "read_p50_ms": ("latency_p50_ms", 1, "ms"),
                     "read_p95_ms": ("latency_p95_ms", 1, "ms")},
}

# Extra threads each workload runs beside the scheduler's workers.
EXTRA_THREADS = {"set_algebra": 0, "range_query": 0,
                 "graph_stream": 3}  # Pipeline writer and two readers.


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, jobs):
    """Configures once, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def obs_deltas(rounds):
    """Mean per-round deltas of the registry counters over traced rounds."""
    keys = ("forks", "steals", "failed_steals", "parks", "join_parks")
    pool_keys = ("allocs", "frees", "refill_batches", "drain_batches",
                 "slab_carves")
    tot = {}

    def flat(snap):
        out = {f"sched.{k}": snap["sources"].get("scheduler", {}).get(k, 0)
               for k in keys}
        for k in pool_keys:
            out[f"alloc.{k}"] = sum(c.get(k, 0)
                                    for c in snap["sources"].get("pool", []))
        out["core.merge_fallbacks"] = snap["counters"].get(
            "merge.fallbacks", 0)
        return out

    for r in rounds:
        before, after = flat(r["before"]), flat(r["after"])
        for k in after:
            tot[k] = tot.get(k, 0) + after[k] - before[k]
    if not rounds:
        return {}
    out = {k: v / len(rounds) for k, v in tot.items()}
    tries = tot["sched.steals"] + tot["sched.failed_steals"]
    out["sched.steal_success"] = tot["sched.steals"] / tries if tries else 0
    return out


def serving_final(final):
    """Serving-layer numbers the library's own registry keeps."""
    out = {}
    hists = final.get("histograms", {})
    for name, metric in (("serving.publish_ns", "serving.publish_p99_us"),
                         ("serving.reclaim_ns", "serving.reclaim_p99_us")):
        if name in hists:
            out[metric] = hists[name]["p99"] / 1e3
    if "serving.retired_backlog_hw" in final.get("counters", {}):
        out["serving.retired_backlog_hw"] = \
            final["counters"]["serving.retired_backlog_hw"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="directory for the full run record")
    args = ap.parse_args()
    start = time.monotonic()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the library sources (CMakeLists.txt, src/) are missing")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    try:
        binary = build(build_dir, min(4, os.cpu_count() or 1))
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(build_dir, "raw", tag + ".json")
    trace_path = os.path.join(build_dir, "traces", tag + ".json")
    save_dir = args.save or os.path.join(build_dir, "results")
    for d in (os.path.dirname(raw_path), os.path.dirname(trace_path),
              save_dir):
        os.makedirs(d, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if k not in ("CPAM_TRACE", "CPAM_TRACE_OUT", "CPAM_STATS_DUMP",
                        "CPAM_FAILPOINTS", "CPAM_LOCKFREE_SCHED")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw_path]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        subprocess.run(cmd, env=env, check=True, stdout=sys.stderr,
                       timeout=max(30, RUN_LIMIT_S -
                                   (time.monotonic() - start)))
    except (OSError, subprocess.SubprocessError) as e:
        fail(f"run failed: {e}")
    with open(raw_path) as f:
        raw = json.load(f)

    cfg = raw["config"]
    if args.trace:
        wanted = spec["per_layer"]
        values = dict(raw["layer"])
        values.update(obs_deltas(raw["obs_rounds"]))
        values.update(serving_final(raw["obs_final"]))
    else:
        wanted = spec["end_to_end"]
        values = raw["e2e"]
    metrics, problems = {}, []
    for m in wanted:
        v = values.get(m["name"])
        if v is None and args.trace and \
                m["name"].startswith(BYPASSED[args.workload]):
            v = 0.0
        if v is None or not math.isfinite(v):
            problems.append(f"metric {m['name']} missing")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    correct = failed == 0 and not problems and attempted > 0
    threads = int(cfg["workers"]) + EXTRA_THREADS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": raw["config_str"].get("build_type"),
        "workers": int(cfg["workers"]), "threads": threads,
        "hardware_threads": int(cfg["hardware_threads"]),
        "l3_bytes": int(cfg["l3_bytes"]),
        "inputs": {k[len("input."):]: v for k, v in cfg.items()
                   if k.startswith("input.")},
        "input_to_l3": cfg["input.bytes"] / cfg["l3_bytes"]
        if cfg["l3_bytes"] else None,
        "rounds": int(cfg["rounds"]),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics, "all_e2e": raw["e2e"], "series": raw["series"],
        "trace_file": trace_path if args.trace else None,
    }
    with open(os.path.join(save_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"{args.workload}: seed={args.seed} build={record['build_type']} "
          f"workers={record['workers']} threads={threads} "
          f"input={cfg['input.bytes'] / 2**20:.1f} MiB "
          f"({record['input_to_l3'] or 0:.2f}x L3) rounds={record['rounds']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    shown = [(k, v, units[k]) for k, v in sorted(raw["e2e"].items())]
    shown += [(name, raw["e2e"][src] * scale, unit) for name, (src, scale, unit)
              in ALIASES[args.workload].items()]
    shown.append(("failed_frac", record["failed_frac"], "fraction"))
    print("  " + "  ".join(f"{k}={v:.6g} {u}" for k, v, u in shown))
    if args.trace:
        print(f"  trace: {trace_path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
