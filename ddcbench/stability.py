#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports each metric's
spread beside the host-drift probe's, so host drift can be told apart from
program noise.

    python3 ddcbench/stability.py --workloads churn,serve --runs 10 \
        --seconds 10 [--trace 0] [--first-seed 1] [--out results.json]

For every metric: the median of the runs and the spread, i.e. the distance
between the first and third quartile (statistics.quantiles, n=4) as a share
of the median; for `--trace 0` it is also compared with the bounds in
BENCHMARK.json. Each run uses another seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("ddcbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    result = json.loads(lines[-1])
    probe = {}
    for line in lines[:-1]:
        if line.startswith('{"host_probe_ms"'):
            probe = json.loads(line)["host_probe_ms"]
    return result, probe


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="churn,serve,sharded,durable")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            result, probe = run_once(workload, args.first_seed + i, seconds,
                                     args.trace)
            runs.append({"result": result, "probe": probe})
            ok = result["correct"] and result["failed"] == 0
            values = " ".join(f"{k}={v['value']:.4g}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed={args.first_seed + i} correct={ok}"
                  f" probe={probe} {values}", file=sys.stderr)
        report[workload] = runs
        probes = [p for r in runs for p in r["probe"].values()]
        pmed, pspread = spread(probes)
        print(f"\n{workload}: host probe median {pmed:.1f} ms,"
              f" spread {pspread:.3f}")
        names = runs[0]["result"]["metrics"].keys()
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, sp = spread(values)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if sp < bound / 3 else
                           "within bound" if sp <= bound else "TOO NOISY")
            print(f"  {name:36s} median {med:14.6g}  spread {sp:6.3f}"
                  + (f"  bound {bound:.2f} {verdict}" if bound else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
