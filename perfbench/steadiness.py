#!/usr/bin/env python3
"""Check that the benchmark is steady and that identical code agrees with itself.

Run from the root of a source checkout:

    python3 perfbench/steadiness.py [--runs 10] [--passes 2] [--workload NAME ...]
                                    [--checkout DIR ...]

For each workload, each pass runs the benchmark command from BENCHMARK.json
once per seed (pass p uses seeds p*runs+1 .. p*runs+runs) with `--trace 0`.
Pass p runs in the p-th `--checkout` directory, cycling (default: the
current directory). Two checkouts of one commit, each building its own
`ngsim`, show that identical code measures alike.

For every end-to-end metric it prints the median of the runs and their
spread: the distance between the first and third quartile as a share of the
median. A pass fails when a spread other than `setup_s`'s exceeds the
metric's bound. Every pass after the first fails when its median is worse
than the first pass's by more than the bound. The exit code is 1 if
anything failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(checkout, command, workload, seed, seconds):
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, now):
    change = (now - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--passes", type=int, default=2)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--checkout", action="append")
    args = ap.parse_args()
    checkouts = args.checkout or ["."]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    for workload in workloads:
        first = None
        for p in range(args.passes):
            seeds = range(p * args.runs + 1, (p + 1) * args.runs + 1)
            checkout = checkouts[p % len(checkouts)]
            runs = [run_once(checkout, bench["command"], workload, s, bench["run_seconds"])
                    for s in seeds]
            medians = {}
            for name, metric in metrics.items():
                values = [r[name] for r in runs]
                medians[name] = statistics.median(values)
                s = spread(values)
                line = f"{workload} pass {p + 1} ({checkout}) {name}: median {medians[name]:.6g}"
                line += f" spread {s:.3f} (bound {metric['bound']})"
                if name != "setup_s" and s > metric["bound"]:
                    line += " SPREAD TOO WIDE"
                    ok = False
                if first is not None:
                    w = worse_by(metric, first[name], medians[name])
                    line += f" vs pass 1 {w:+.3f}"
                    if w > metric["bound"]:
                        line += " WORSE THAN BOUND"
                        ok = False
                print(line, flush=True)
            if first is None:
                first = medians
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
