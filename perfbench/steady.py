#!/usr/bin/env python3
"""Steadiness check: run one workload N times and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload analytic --runs 10 [--seconds 20]

Run *i* uses seed ``--seed0 + i``.  For every metric the command prints
the median, the first and third quartiles (``statistics.quantiles`` with
``n=4``) and their distance as a share of the median, next to the
metric's bound from ``BENCHMARK.json``; bounds are set from this output.
It also prints each run's share of failed operations, and re-runs the
first seed once more to confirm that its simulated-statistics digest
repeats.  ``--save`` writes the values of the set to a JSON file, and
``--baseline`` compares this set's medians with a saved set's, as a
share of the saved median next to the bound.  Exits 0 only when every
run was correct with no failed operation, the digest repeated and no
median moved beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload-specific figures of the ``INFO`` line, summarised in
#: parentheses after the reported metrics.
INFO_FIGURES = ("run_p50_s", "sim_instr_per_s", "warm_s", "trace_mb",
                "cache_mb")


def one_run(workload: str, seed: int, seconds: float):
    """``(result, info)`` of one benchmark run; raises if it failed."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run with seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    info = next((json.loads(line[5:]) for line in lines
                 if line.startswith("INFO ")), {})
    info["wall_s"] = time.perf_counter() - start
    return json.loads(lines[-1]), info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", type=Path, help="write the set's values")
    ap.add_argument("--baseline", type=Path,
                    help="a set written by --save to compare medians with")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares, digests, correct = set(), {}, True
    for i in range(args.runs):
        seed = args.seed0 + i
        result, info = one_run(args.workload, seed, seconds)
        shares.add(result["failed"] / result["attempted"])
        correct = correct and result["correct"] is True
        digests[seed] = info.get("digest")
        line = [f"seed {seed}: {info['wall_s']:.0f} s wall, "
                f"correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']}"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        for name in INFO_FIGURES:
            if info.get(name) and name not in result["metrics"]:
                values.setdefault(f"({name})", []).append(info[name])
        print("  ".join(line), flush=True)
    _, info = one_run(args.workload, args.seed0, seconds)
    repeat_ok = info.get("digest") == digests[args.seed0]
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s; "
          f"failed shares {sorted(shares)}; digest of seed {args.seed0} "
          f"{'repeats' if repeat_ok else 'DIFFERS on a rerun'}")
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0],) * 3)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.1%} {'' if bound is None else f'{bound:.0%}':>6}")
    moved = False
    if args.baseline:
        base = json.loads(args.baseline.read_text())
        print(f"\nmedians against {args.baseline}:")
        for name, vals in values.items():
            if name not in base:
                continue
            was = statistics.median(base[name])
            change = statistics.median(vals) / was - 1.0
            bound = bounds.get(name)
            over = bound is not None and abs(change) > bound
            moved = moved or over
            print(f"{name:32} {was:12.6g} -> {statistics.median(vals):12.6g}"
                  f" {change:+8.1%} {'' if bound is None else f'{bound:.0%}':>6}"
                  f"{'  BEYOND BOUND' if over else ''}")
    if args.save:
        args.save.write_text(json.dumps(values))
    steady = correct and repeat_ok and shares == {0.0} and not moved
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
