#!/usr/bin/env python3
"""Steadiness study: run the benchmark several times per workload, each run
with another seed, and print per end-to-end metric the median, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles).

  python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                  [--seconds S] [workload ...]

Run from the repository root.  Prints one JSON line per run and a table
per workload; the raw lines can be kept for the README's study.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in BENCH["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for w in args.workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(w, seed, args.seconds, args.trace)
            print(json.dumps({"workload": w, "seed": seed, **res}), flush=True)
            if not res["correct"]:
                print(f"{w} seed {seed}: incorrect outputs", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"# {w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}"
            print(f"#   {name:24s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}{note}", flush=True)


if __name__ == "__main__":
    main()
