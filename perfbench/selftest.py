#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about half a minute).

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

1. Runs every workload with ``--tiny``, untraced and traced, and checks
   that each printed result has exactly its four keys, no failed
   operation, and the metric names and units of ``BENCHMARK.json``.
2. Feeds every output check a real result, which must pass, and then
   corrupted copies of it, each of which must fail.

Exits 0 when everything holds; otherwise lists what did not.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        PROBLEMS.append(what)


def must_pass(what: str, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except checks.CheckFailed as exc:
        expect(False, f"{what} passes on a real result ({exc})")
    else:
        expect(True, f"{what} passes on a real result")


def must_fail(what: str, fn, *args, **kwargs) -> None:
    try:
        fn(*args, **kwargs)
    except checks.CheckFailed:
        expect(True, f"{what} is caught")
    else:
        expect(False, f"{what} is caught")


def corrupt(obs: dict, key: str, value, index: int | None = None) -> dict:
    bad = copy.deepcopy(obs)
    if index is None:
        bad[key] = value
    else:
        bad[key][index] = value
    return bad


# ----------------------------------------------------------------------
def test_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", "3", "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=600, check=False)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{tag} prints a result:\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{tag} result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{tag} ran {result['attempted']} operations, "
                   f"{result['failed']} failed")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{tag} metric names and units match "
                   f"BENCHMARK.json {section}")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   f"{tag} metric values are numbers")
            if section == "end_to_end":
                expect(all(v["value"] > 0
                           for v in result["metrics"].values()),
                       f"{tag} end-to-end values are above 0")


def test_cycle_check() -> None:
    ops = wl.cycle_ops(7)
    obs = next(o for o in (wl.run_cycle(op, wl.cycle_benchmarks(op))
                           for op in ops[:4]) if o["migrations"] >= 2)
    must_pass("cycle check", checks.check_cycle, obs)
    must_fail("cycle: an app short of n_slices x slice_instructions",
              checks.check_cycle,
              corrupt(obs, "instructions", obs["instructions"][0] - 1, 0))
    must_fail("cycle: an IPC of 0", checks.check_cycle,
              corrupt(obs, "ipcs", 0.0, 1))
    must_fail("cycle: an OoO share above 1", checks.check_cycle,
              corrupt(obs, "ooo_share", 1.01, 0))
    must_fail("cycle: migrations without SC bytes", checks.check_cycle,
              corrupt(obs, "sc_bytes", 0))
    must_pass("repeat check", checks.check_repeat, obs, copy.deepcopy(obs))
    must_fail("cycle: a repeat that migrated once more",
              checks.check_repeat, obs,
              corrupt(obs, "migrations", obs["migrations"] + 1))


def test_analytic_checks() -> None:
    from repro.runner.units import app_model

    op = wl.analytic_ops(7)[0]
    mix = wl.analytic_mix(op)
    models = {n: app_model(n) for n in mix}
    obs = wl.run_analytic(op, mix, models)
    must_pass("analytic check", checks.check_analytic, obs)
    must_fail("analytic: a run that hit max_intervals",
              checks.check_analytic,
              corrupt(obs, "max_intervals", obs["intervals"]))
    must_fail("analytic: an app that never completed",
              checks.check_analytic, corrupt(obs, "completions", 0, 0))
    must_fail("analytic: finishing faster than the fastest phase allows",
              checks.check_analytic,
              corrupt(obs, "first_completion_cycles",
                      obs["min_cycles"][0] * 0.99, 0))
    must_fail("analytic: a speedup above 1", checks.check_analytic,
              corrupt(obs, "speedups", 1.2, 1))
    must_fail("analytic: a speedup of 0", checks.check_analytic,
              corrupt(obs, "speedups", 0.0, 1))
    homo = checks.homo_ino_stp([models[n] for n in mix])
    must_pass("SC-MPKI vs Homo-InO check",
              checks.check_mirage_beats_homo_ino, [obs["stp"]], [homo])
    must_fail("analytic: SC-MPKI STP below Homo-InO",
              checks.check_mirage_beats_homo_ino, [homo * 0.99], [homo])


def test_sweep_checks() -> None:
    from repro.workloads import ALL_BENCHMARKS

    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        work = Path(tmp)
        exps = wl.sweep_experiments("sweep", tiny=True)
        cold = run.run_pass(exps, work / "cache", work, "selftest-cold")
        warm = run.run_pass(exps, work / "cache", work, "selftest-warm")
        tables = {r["name"]: r["result"] for r in cold["experiments"]}
        again = {r["name"]: r["result"] for r in warm["experiments"]}
        traced = wl.sweep_experiments("trace-sweep", tiny=True)
        files = work / "cold.jsonl", work / "warm.jsonl"
        for tag, f in zip(("tcold", "twarm"), files):
            run.run_pass(traced, work / "tcache", work, f"selftest-{tag}",
                         trace_file=f)
        cold_trace, warm_trace = (f.read_bytes() for f in files)
    for name, table in tables.items():
        must_pass(f"{name} cache round trip", checks.check_same_table,
                  name, table, again[name])
    fig7 = tables["fig7"]
    must_fail("sweep: a table that changed in the cache",
              checks.check_same_table, "fig7", fig7,
              corrupt(fig7, "rows", fig7["rows"][:-1] + [
                  dict(fig7["rows"][-1], n=0)]))
    must_pass("fig7 check", checks.check_fig7, fig7)
    bad = copy.deepcopy(fig7)
    row = bad["rows"][0]["stp"]
    row["SC-MPKI"] = row["Homo-InO"]
    must_fail("sweep: fig7 with SC-MPKI not above Homo-InO",
              checks.check_fig7, bad)
    table1 = tables["table1"]
    must_pass("table1 check", checks.check_table1, table1, ALL_BENCHMARKS)
    must_fail("sweep: table1 missing a benchmark", checks.check_table1,
              corrupt(table1, "rows", table1["rows"][1:]), ALL_BENCHMARKS)
    bad = copy.deepcopy(table1)
    bad["rows"][3]["ratio"] = 1.0
    must_fail("sweep: a table1 ratio of 1", checks.check_table1, bad,
              ALL_BENCHMARKS)
    must_pass("headline check", checks.check_headline, tables["headline"])
    must_fail("sweep: headline above Homo-OoO", checks.check_headline,
              corrupt(tables["headline"], "performance_vs_homo_ooo", 1.5))
    runners = {r["name"]: r["runner"] for r in cold["experiments"]}
    reruns = {r["name"]: r["runner"] for r in warm["experiments"]}
    for name in runners:
        must_pass(f"{name} from-cache check", checks.check_from_cache,
                  name, runners[name], reruns[name])
    must_fail("sweep: a rerun that executed a unit",
              checks.check_from_cache, "fig7", runners["fig7"],
              dict(reruns["fig7"], units_run=1,
                   cache_hits=reruns["fig7"]["cache_hits"] - 1))
    must_fail("sweep: a rerun that missed the cache without executing",
              checks.check_from_cache, "fig7", runners["fig7"],
              dict(reruns["fig7"], cache_hits=0))
    tier = tables["tier-validation"]
    must_pass("tier-validation check", checks.check_tier_validation, tier)
    bad = copy.deepcopy(tier)
    bad["detailed"]["sc_bytes_transferred"] = 0
    must_fail("sweep: tier-validation moving no SC bytes",
              checks.check_tier_validation, bad)

    apps = wl.trace_sweep_apps(traced)
    units = wl.TRACE_SWEEP_UNITS
    must_pass("trace check", checks.check_trace, cold_trace, warm_trace,
              units=units, apps=apps)
    lines = cold_trace.splitlines(keepends=True)
    must_fail("trace-sweep: a warm trace one byte off", checks.check_trace,
              cold_trace, warm_trace[:-2] + b" \n", units=units, apps=apps)
    runs = [i for i, line in enumerate(lines) if b'"kind":"run"' in line]
    short = b"".join(lines[:runs[-1]])
    must_fail("trace-sweep: a run record missing", checks.check_trace,
              short, short, units=units, apps=apps)
    dropped = b"".join(lines[:runs[1] + 1] + lines[runs[1] + 2:])
    must_fail("trace-sweep: an interval record missing",
              checks.check_trace, dropped, dropped, units=units, apps=apps)
    bare = b"".join(line for i, line in enumerate(lines)
                    if not (runs[1] < i < runs[2]))
    must_fail("trace-sweep: an arbitrated run without history",
              checks.check_trace, bare, bare, units=units, apps=apps)


def main() -> int:
    test_printed_metrics()
    test_cycle_check()
    test_analytic_checks()
    test_sweep_checks()
    try:
        run.WORK.rmdir()
    except OSError:
        pass            # another run is using it
    print(f"\n{len(PROBLEMS)} problem(s)" if PROBLEMS else "\nall good")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
