#!/usr/bin/env python3
"""Noise-aware perf-regression gate over the micro_core trend store.

Compares a fresh benchmark run (raw google-benchmark JSON) against the most
recent *baseline* line in the trend store (last line with source ==
"baseline") and fails — exit 1 — if any benchmark regressed beyond the
noise model. Exit 2 means the gate could not run (missing baseline, bad
input); CI treats that as a failure too, but the message distinguishes
"your change is slow" from "the gate is broken".

Noise model (three layers, all must trip for a FAIL):

1. min-of-N reduction: per name, the minimum cpu_time across repetitions
   (run with --benchmark_repetitions=3 or more). Jitter only adds time, so
   the min estimates the true cost.

2. Machine-speed normalization: CI containers are not the reference
   container the baseline was recorded on. The per-name ratio
   run/baseline is computed for every shared benchmark and the MEDIAN
   ratio is taken as the machine-speed factor. A benchmark only counts as
   regressed relative to that median — a uniformly 2x-slower runner moves
   every ratio equally and trips nothing, while one benchmark jumping 30%
   above the fleet-wide shift is a real signal.

3. Dual threshold: FAIL only if the normalized ratio exceeds (1 + --rel)
   AND the absolute excess over the speed-adjusted baseline exceeds
   --abs-ns. The absolute floor keeps 3 ns gate-check benchmarks from
   failing on a half-nanosecond wobble that is a 20% relative change.

--inject NAME=FACTOR multiplies the named run entry before comparison;
CI's negative control uses it to prove the gate actually fails on a
seeded regression (a gate that cannot fail is not a gate).

A benchmark present in the run but absent from every baseline is NEW: it
is reported as "[new] NAME ... (not gated)". The gate never writes the
store: a run that baselined its own new names would gate the next local run
against itself. Record a baseline line by hand (append_trend.py --source
baseline) to bring a new benchmark under the gate.

A benchmark in the baseline but absent from the run is RETIRED (deleted
or renamed): it is reported as "[retired] NAME" so it does not drop out of
the gate unnoticed. Report-only: it changes no exit code and leaves the
store alone.

Usage:
  check_trend.py --run micro_core.json --store micro_core.jsonl \
                 [--rel 0.20] [--abs-ns 25] [--inject NAME=FACTOR]...
"""
import argparse
import json
import statistics
import sys


def load_baseline(store_path: str) -> dict:
    """Merge every source=baseline line: union of names, later lines win.

    Merging (rather than last-line-wins wholesale) lets a later baseline
    record carry only newly added benchmarks without eclipsing the full
    baseline that precedes it.
    """
    baseline = None
    with open(store_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec.get("source") == "baseline":
                if baseline is None:
                    baseline = rec
                else:
                    merged = dict(baseline["benchmarks"])
                    merged.update(rec.get("benchmarks", {}))
                    rec["benchmarks"] = merged
                    baseline = rec
    if baseline is None:
        raise SystemExit(f"check_trend: no source=baseline line in {store_path}")
    return baseline


def reduce_run(raw: dict) -> dict:
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        t = float(b["cpu_time"])
        if name not in out or t < out[name]:
            out[name] = t
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--run", required=True, help="raw google-benchmark JSON")
    ap.add_argument("--store", required=True, help="trend store JSONL")
    ap.add_argument("--rel", type=float, default=0.20,
                    help="relative slack over the machine-speed median (default 0.20)")
    ap.add_argument("--abs-ns", type=float, default=25.0,
                    help="absolute slack in ns (default 25)")
    ap.add_argument("--inject", action="append", default=[],
                    metavar="NAME=FACTOR",
                    help="multiply a run entry before comparison (negative control)")
    args = ap.parse_args()

    try:
        baseline = load_baseline(args.store)
        with open(args.run) as f:
            run = reduce_run(json.load(f))
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_trend: cannot run gate: {e}", file=sys.stderr)
        return 2

    for spec in args.inject:
        name, _, factor = spec.partition("=")
        if name not in run:
            print(f"check_trend: --inject target {name!r} not in run", file=sys.stderr)
            return 2
        run[name] *= float(factor)
        print(f"[inject] {name} x{factor}")

    base = baseline["benchmarks"]
    shared = sorted(set(base) & set(run))
    new = sorted(set(run) - set(base))
    retired = sorted(set(base) - set(run))
    if len(shared) < 3:
        print(f"check_trend: only {len(shared)} shared benchmarks — "
              "baseline too stale to normalize against", file=sys.stderr)
        return 2

    ratios = {n: run[n] / base[n] for n in shared if base[n] > 0}
    speed = statistics.median(ratios.values())
    print(f"baseline commit {baseline['commit'][:12]} ({baseline['date']}), "
          f"{len(shared)} shared benchmarks, machine-speed factor {speed:.3f}")
    for n in retired:
        print(f"[retired] {n}: baselined but absent from this run (not gated)")

    failures = []
    for n in shared:
        if base[n] <= 0:
            continue
        adjusted = base[n] * speed
        rel = run[n] / adjusted - 1.0
        excess = run[n] - adjusted
        if rel > args.rel and excess > args.abs_ns:
            failures.append((n, base[n], adjusted, run[n], rel))

    for n in new:
        print(f"[new] {n}: {run[n]:.1f} ns (not gated)")
    if failures:
        print(f"\nFAIL: {len(failures)} benchmark(s) regressed beyond "
              f"{args.rel:.0%} + {args.abs_ns:g} ns over the speed-adjusted baseline:")
        for n, b, adj, r, rel in sorted(failures, key=lambda f: -f[4]):
            print(f"  {n}: {r:.1f} ns vs {adj:.1f} ns expected "
                  f"(baseline {b:.1f} ns) — +{rel:.0%}")
        return 1
    print(f"OK: no regression beyond {args.rel:.0%} + {args.abs_ns:g} ns "
          f"across {len(shared)} benchmarks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
