#!/usr/bin/env python3
"""Measures run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--out f.json]

Runs each workload once per seed (untraced, BENCHMARK.json's run_seconds) and
prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread (q3 - q1) / median next to
the metric's bound. --out keeps every raw result line for later comparison;
--compare a.json b.json prints how far the second set's medians moved from
the first's, as a share of the first.
"""
import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def report(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {}
    for workload, runs in results.items():
        out[workload] = {}
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            out[workload][name] = s
            flag = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {s['median']:12.4f}  q1 {s['q1']:12.4f}  "
                  f"q3 {s['q3']:12.4f}  spread {s['spread']:6.3f}  bound {bound}{flag}")
    return out


def compare(spec, first, second):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    worst_ok = True
    for workload in first:
        if workload not in second:
            continue
        print(workload)
        for name, (bound, better) in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (b - a) / a if better == "lower" else (a - b) / a
            ok = worse <= bound
            worst_ok = worst_ok and ok
            print(f"  {name:14s} first {a:12.4f}  second {b:12.4f}  "
                  f"worse by {worse:+.3f}  bound {bound}  {'ok' if ok else 'OUT OF BOUND'}")
    return 0 if worst_ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)["runs"]
        with open(args.compare[1]) as f:
            second = json.load(f)["runs"]
        return compare(spec, first, second)

    binary = bench.build()
    if binary is None:
        return 1
    results = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            code, out = bench.run(binary, workload, seed, spec["run_seconds"], 0)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            result["meta"] = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
            if code != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, correct={result['correct']}")
            results[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
    summary = report(spec, results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": results, "summary": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
