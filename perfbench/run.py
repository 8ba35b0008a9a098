#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and compiles the
library and the benchmark from source into $CARGO_TARGET_DIR (default
.bench_build); later calls rebuild incrementally. Build output goes to
standard error; standard output ends with the benchmark's result line.
--smoke runs every workload at tiny sizes, traced and untraced, and checks
that every catalogued metric appears with its unit and every correctness
check passes.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("index_converge", "match_stream", "durable_churn")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "adaptive_index.h")):
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def data_dir():
    return os.path.join(os.path.dirname(build_dir()), "perfbench-run")


def run(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", data_dir()]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, cwd=ROOT)
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(binary, workload, 1, 1, trace, smoke=True)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (ValueError, IndexError):
                print(f"smoke: {workload} trace={trace}: no result line "
                      f"(exit {code})")
                ok = False
                continue
            problems = []
            if code != 0:
                problems.append(f"exit code {code}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("a correctness check failed")
            if not result.get("attempted", 0) >= 1:
                problems.append("nothing attempted")
            metrics = result.get("metrics", {})
            expected = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(expected):
                problems.append(
                    f"metric names differ: missing {sorted(set(expected) - set(metrics))}, "
                    f"extra {sorted(set(metrics) - set(expected))}")
            for name, unit in expected.items():
                m = metrics.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    problems.append(f"{name}: unit {m.get('unit')} != {unit}")
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{name}: value is not a number")
                elif trace == 0 and not m["value"] > 0:
                    problems.append(f"{name}: end-to-end value {m['value']} is not positive")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke: {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or pass --smoke)")
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary)
    code, out = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
