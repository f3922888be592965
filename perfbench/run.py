#!/usr/bin/env python3
"""Host-speed benchmark of the Mirage simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 20 --trace 0

Workloads (see ``README.md`` in this directory):

* ``cycle`` — cycle-tier ``DetailedMirageCluster.run`` calls;
* ``analytic`` — interval-tier ``CMPSystem.run`` calls;
* ``sweep`` — four paper tables regenerated through the registry;
* ``trace-sweep`` — one traced fig7 sweep, cold then from the cache.

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` the run measures the
same operations untraced (in a child process) and then traced, and
reports every per-layer metric plus the tracing overhead.  An ``INFO``
line before it carries the simulated-statistics digest and details.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from sweep_pass import peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space of one run (removed when it ends) and span dumps.
WORK = ROOT / ".perfbench_work"
SPANS = ROOT / ".perfbench_out"
WORKLOADS = ("cycle", "analytic", "sweep", "trace-sweep")
#: Fresh processes timed for ``setup_s``, spread over the run's rounds;
#: the median is reported.
SETUP_PROBES = 4
#: Bound on one child process (a sweep pass or a setup probe).
CHILD_TIMEOUT_S = 170


def metric_units(section: str) -> dict:
    """name -> unit of one metric section of ``BENCHMARK.json``.

    Every workload reports every metric of its section: ``end_to_end``
    with ``--trace 0``, ``per_layer`` with ``--trace 1``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mb(nbytes: float) -> float:
    return nbytes / (1 << 20)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MIRAGE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child Python process to its end.

    The child leads its own process group, so a child that overruns
    :data:`CHILD_TIMEOUT_S` is killed together with any pool workers it
    started, and waited for, before the timeout propagates.
    """
    with subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _info(proc: subprocess.CompletedProcess) -> dict:
    """The ``INFO`` line a child run printed (empty when it failed)."""
    for line in proc.stdout.splitlines():
        if line.startswith("INFO "):
            return json.loads(line[5:])
    return {}


class Tally:
    """Operations attempted and failed.

    A failed operation (an exception or a failed check) counts in
    ``failed``; ``correct`` turns false only when a check over the whole
    run fails, since it speaks of the operations that did not fail.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)

    def fail_run(self, detail: str) -> None:
        self.correct = False
        print(f"perfbench: FAILED run check: {detail}", file=sys.stderr)


def _self_argv(args, *extra: str) -> list[str]:
    """This script with the run's own arguments, plus *extra*."""
    argv = [str(HERE / "run.py"), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds), *extra]
    return argv + ["--tiny"] if args.tiny else argv


def rounds_of(args) -> int:
    import workloads as wl

    return (wl.MIN_ROUNDS if args.tiny
            else wl.rounds_for(args.workload, args.seconds))


class SetupProbes:
    """Wall seconds of fresh processes that import ``repro`` and build
    this workload's inputs (``--setup-probe``).

    Called once before each round, it times an equal share of the
    :data:`SETUP_PROBES` probes then, so that they sample the whole run
    rather than one moment of the host's speed.
    """

    def __init__(self, args):
        self.argv = _self_argv(args, "--setup-probe")
        self.per_round = 1 if args.tiny else -(-SETUP_PROBES
                                                // rounds_of(args))
        self.times: list[float] = []

    def __call__(self) -> None:
        for _ in range(self.per_round):
            t0 = time.perf_counter()
            proc = _run_child(self.argv)
            self.times.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed:\n{proc.stderr}")


def _no_probes() -> None:
    pass


# ----------------------------------------------------------------------
# cycle and analytic: in-process operations
# ----------------------------------------------------------------------
def tier_setup(workload: str, seed: int, tiny: bool = False):
    """Import the program, build every input and warm up once.

    Returns ``(ops, run_op)`` where ``run_op(i)`` performs operation *i*
    and returns what its check reads.  The warm-up draws inputs outside
    the timed list, so no timed slice is ever in the slice memo.
    """
    import workloads as wl
    from repro.runner.units import app_model

    last = wl.TINY_OPS[workload] if tiny else None
    if workload == "cycle":
        ops = wl.cycle_ops(seed)[:last]
        benches = [wl.cycle_benchmarks(op) for op in ops]
        warm = wl.CycleOp("detailed", (("bzip2", 0), ("astar", 0)))
        wl.run_cycle(warm, wl.cycle_benchmarks(warm), n_slices=1)
        n_slices = wl.TINY_CYCLE_SLICES if tiny else wl.CYCLE_SLICES

        def run_op(i):
            return wl.run_cycle(ops[i], benches[i], n_slices)
        return ops, run_op
    ops = wl.analytic_ops(seed)[:last]
    mixes = [wl.analytic_mix(op) for op in ops]
    models = {name: app_model(name) for mix in mixes for name in mix}
    warm = wl.AnalyticOp("SC-MPKI", ("mcf", "gcc", "namd", "astar"),
                         "Random")
    wl.run_analytic(warm, wl.analytic_mix(warm),
                    {name: app_model(name) for name in warm.apps})

    def run_op(i):
        return wl.run_analytic(ops[i], mixes[i], models)
    return ops, run_op


def tier_run(workload: str, seed: int, rounds: int, tally: Tally,
             tracer=None, tiny: bool = False,
             each_round=_no_probes) -> dict:
    """Run every operation once per round and check each output; the
    figures take each operation's fastest round."""
    import checks
    from repro import simcache
    from repro.runner.units import app_model

    if tracer is not None:
        from layers import install_sim_spans
        install_sim_spans(tracer)
    ops, run_op = tier_setup(workload, seed, tiny)
    check = checks.check_cycle if workload == "cycle" else \
        checks.check_analytic
    first_span = len(tracer.starts) if tracer is not None else 0
    memo = simcache.SliceMemo.shared()
    memo_before = (memo.stats.lookups, memo.stats.hits)
    best: list[float | None] = [None] * len(ops)
    first: list[dict | None] = [None] * len(ops)
    counters: dict[str, float] = {}
    profile: dict[str, float] = {}
    for _ in range(rounds):
        each_round()
        # Every round runs cold: no slice an earlier round stored stays.
        memo.clear()
        for i, op in enumerate(ops):
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("op"):
                        obs = run_op(i)
                else:
                    obs = run_op(i)
                elapsed = time.perf_counter() - t0
                prof = obs.pop("profile")
                check(obs)
                if first[i] is not None:
                    checks.check_repeat(first[i], obs)
            except checks.CheckFailed as exc:
                tally.fail(f"{workload} op {i} {op}", str(exc))
                continue
            except Exception:
                tally.fail(f"{workload} op {i} {op}", traceback.format_exc())
                continue
            best[i] = elapsed if best[i] is None else min(best[i], elapsed)
            first[i] = first[i] or obs
            for k, v in obs["counters"].items():
                counters[k] = counters.get(k, 0) + v
            for k, v in prof.items():
                profile[k] = profile.get(k, 0.0) + v
    done = [i for i, t in enumerate(best) if t is not None]
    if not done:
        raise RuntimeError(f"every {workload} operation failed")
    if workload == "analytic":
        sc_mpki = [first[i] for i in done
                   if ops[i].arbitrator == "SC-MPKI"]
        try:
            checks.check_mirage_beats_homo_ino(
                [obs["stp"] for obs in sc_mpki],
                [checks.homo_ino_stp([app_model(n) for n in obs["apps"]])
                 for obs in sc_mpki])
        except checks.CheckFailed as exc:
            tally.fail_run(f"analytic SC-MPKI vs Homo-InO: {exc}")
    times = [best[i] for i in done]
    total = sum(times)
    spans = {}
    if tracer is not None:
        # Layer spans of the timed operations only, not of the warm-up;
        # models are built during set-up, so that span is taken whole.
        spans = tracer.totals(first_span)
        spans["characterize.model"] = tracer.totals().get(
            "characterize.model", {"total": 0.0, "self": 0.0, "count": 0})
    return {
        "spans": spans,
        "digest": checks.digest(first),
        "cold_s": total,
        "run_p50_s": _median(times),
        "sim_instr_per_s": sum(sum(first[i]["instructions"])
                               for i in done) / total,
        "peak_rss_mb": peak_rss_mb(),
        "counters": counters,
        "profile": profile,
        "memo": {"lookups": memo.stats.lookups - memo_before[0],
                 "hits": memo.stats.hits - memo_before[1],
                 "bytes": memo.approx_bytes},
    }


# ----------------------------------------------------------------------
# sweep and trace-sweep: registry passes in fresh child processes
# ----------------------------------------------------------------------
def run_pass(experiments, cache_dir: Path, work: Path, tag: str, *,
             trace_file: Path | None = None,
             spans: bool = False) -> dict:
    """One :mod:`sweep_pass` child; returns its output record."""
    import workloads as wl

    spec = {
        "experiments": [[name, kw] for name, kw in experiments],
        "cache_dir": str(cache_dir),
        "trace_file": str(trace_file) if trace_file else None,
        "jobs": wl.SWEEP_JOBS,
        "spans": spans,
        "span_file": str(SPANS / f"spans-{tag}.bin"),
    }
    spec_path = work / f"{tag}.spec.json"
    out_path = work / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    proc = _run_child([str(HERE / "sweep_pass.py"), str(spec_path),
                       str(out_path)])
    if proc.returncode != 0 or not out_path.exists():
        raise RuntimeError(f"sweep pass {tag} failed:\n{proc.stderr}")
    return json.loads(out_path.read_text())


def sweep_run(workload: str, rounds: int, tally: Tally, work: Path,
              spans: bool = False, tiny: bool = False,
              each_round=_no_probes) -> dict:
    """Per round, a cold pass from an empty cache and its cached rerun;
    the figures take each table's fastest round."""
    import checks
    import workloads as wl

    traced = workload == "trace-sweep"
    experiments = wl.sweep_experiments(workload, tiny)
    passes = []
    best_cold: dict[str, float] = {}
    best_warm: dict[str, float] = {}
    for p in range(rounds):
        each_round()
        cache_dir = work / f"cache{p}"
        files = ((work / f"cold{p}.jsonl", work / f"warm{p}.jsonl")
                 if traced else (None, None))
        try:
            cold = run_pass(experiments, cache_dir, work,
                            f"{workload}-cold{p}", trace_file=files[0],
                            spans=spans)
            warm = run_pass(experiments, cache_dir, work,
                            f"{workload}-warm{p}", trace_file=files[1],
                            spans=spans)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            # A pass that died takes all of its operations with it.
            for name, _ in experiments:
                tally.attempted += 1
                tally.fail(f"{workload} {name}", str(exc))
            continue
        # One operation per experiment: regenerate it cold, then from
        # the cache, and check both (and, traced, the two trace files).
        trace_problem = None
        trace_digest = None
        if traced:
            cold_bytes, warm_bytes = (f.read_bytes() for f in files)
            try:
                checks.check_trace(cold_bytes, warm_bytes,
                                   units=wl.TRACE_SWEEP_UNITS,
                                   apps=wl.trace_sweep_apps(experiments))
            except checks.CheckFailed as exc:
                trace_problem = str(exc)
            trace_digest = checks.digest(cold_bytes.decode())
            for f in files:
                f.unlink()
        tables = []
        for c, w in zip(cold["experiments"], warm["experiments"]):
            name = c["name"]
            tally.attempted += 1
            problem = c.get("error") or w.get("error") or trace_problem
            if problem is None:
                try:
                    checks.check_same_table(name, c["result"], w["result"])
                    checks.check_from_cache(name, c.get("runner"),
                                            w.get("runner"))
                    if name == "table1":
                        from repro.workloads import ALL_BENCHMARKS
                        checks.check_table1(c["result"], ALL_BENCHMARKS)
                    elif name in checks.SWEEP_CHECKS:
                        checks.SWEEP_CHECKS[name](c["result"])
                except checks.CheckFailed as exc:
                    problem = str(exc)
            if problem is not None:
                tally.fail(f"{workload} {name}", problem)
                continue
            tables.append([name, c["result"]])
            best_cold[name] = min(best_cold.get(name, c["seconds"]),
                                  c["seconds"])
            best_warm[name] = min(best_warm.get(name, w["seconds"]),
                                  w["seconds"])
        shutil.rmtree(cache_dir, ignore_errors=True)
        passes.append({"cold": cold, "warm": warm, "tables": tables,
                       "trace_digest": trace_digest})
    if not best_cold:
        raise RuntimeError(f"every {workload} pass failed")
    return {
        "digest": checks.digest([[x["tables"], x["trace_digest"]]
                                 for x in passes]),
        "cold_s": sum(best_cold.values()),
        "run_p50_s": _median(list(best_cold.values())),
        "warm_s": sum(best_warm.values()),
        "cache_mb": _median([_mb(x["cold"]["cache_bytes"])
                             for x in passes]),
        "trace_mb": _median([_mb(x["cold"].get("trace_bytes", 0))
                             for x in passes]),
        "peak_rss_mb": max(x["cold"]["peak_rss_mb"] for x in passes),
        "passes": passes,
    }


# ----------------------------------------------------------------------
# per-layer figures
# ----------------------------------------------------------------------
#: Counter prefixes of the core models (producer and the consumers).
CORE_PREFIXES = ("ooo.", "ino.", "cgooo.", "ldt.")


def _core_sum(counters: dict, field: str) -> float:
    return sum(counters.get(p + field, 0) for p in CORE_PREFIXES)


def _sc_sum(counters: dict, field: str) -> float:
    return sum(v for k, v in counters.items()
               if k.startswith("sc.") and k.endswith("." + field))


def _merge_spans(rows) -> dict:
    out: dict[str, dict] = {}
    for spans in rows:
        for name, row in spans.items():
            acc = out.setdefault(name, {"total": 0.0, "self": 0.0,
                                        "count": 0})
            for k in acc:
                acc[k] += row[k]
    return out


def layer_metrics(workload: str, fig: dict, spans: dict,
                  untraced: dict) -> dict:
    """Every per-layer metric; a layer the workload leaves idle has no
    counts or spans and reads 0."""
    import workloads as wl

    def total(name):
        return spans.get(name, {}).get("total", 0.0)

    c, prof = fig.get("counters", {}), fig.get("profile", {})
    memo = fig.get("memo", {"lookups": 0, "hits": 0, "bytes": 0})
    passes = fig.get("passes", [])
    rows = [p[k] for p in passes for k in ("cold", "warm")]
    runner = [e.get("runner", {}) for r in rows for e in r["experiments"]]
    unit_s = sum(r.get("unit_seconds", 0.0) for r in runner)
    tops = ("op",) + tuple(f"experiments.{n}" for n, _ in
                           wl.SWEEP_EXPERIMENTS)
    values = {
        "cores.producer_s": total("cores.producer"),
        "cores.consumer_s": total("cores.consumer"),
        "cores.instructions": _core_sum(c, "instructions"),
        "cores.cycles": _core_sum(c, "cycles"),
        "cores.trace_aborts": _core_sum(c, "trace_aborts"),
        "memory.l1d_misses": _core_sum(c, "l1d_misses"),
        "memory.l2_misses": _core_sum(c, "l2_misses"),
        "memory.flush_lines": c.get("migration.l1_flush_lines", 0),
        "schedule.sc_lookups": _sc_sum(c, "lookups"),
        "schedule.sc_misses": _sc_sum(c, "misses"),
        "simcache.lookups": memo["lookups"],
        "simcache.hits": memo["hits"],
        "simcache.hit_ratio": (memo["hits"] / memo["lookups"]
                               if memo["lookups"] else 0.0),
        "simcache.lookup_s": total("simcache.lookup"),
        "simcache.store_s": total("simcache.store"),
        "simcache.bytes": memo["bytes"],
        "engine.arbitration_s": prof.get("arbitration", 0.0),
        "engine.migration_s": prof.get("migration", 0.0),
        "engine.execution_s": prof.get("execution", 0.0),
        "engine.energy_s": prof.get("energy", 0.0),
        "engine.advance_s": total("engine.advance"),
        "engine.intervals": c.get("run.intervals", 0),
        "arbiter.decide_s": total("arbiter.decide"),
        "arbiter.granted": c.get("arbitration.granted", 0),
        "arbiter.gated": c.get("arbitration.gated", 0),
        "characterize.model_s": total("characterize.model"),
        "cmp.build_s": total("cmp.build"),
        "cmp.migrations": c.get("migration.count", 0),
        "cmp.sc_bytes": c.get("migration.sc_bytes", 0),
        "runner.map_s": total("runner.map"),
        "runner.pool_start_s": total("runner.pool_start"),
        "runner.unit_exec_s": unit_s,
        "runner.worker_wait_s": (wl.SWEEP_JOBS * total("runner.pool_map")
                                 - unit_s),
        "runner.units_run": sum(r.get("units_run", 0) for r in runner),
        "runner.cache_get_s": total("runner.cache_get"),
        "runner.cache_put_s": total("runner.cache_put"),
        "runner.cache_hits": sum(r.get("cache_hits", 0) for r in runner),
        "runner.shm_batches": sum(r["pool"]["shm_batches"] for r in rows),
        "runner.inline_batches": sum(r["pool"]["inline_batches"]
                                     for r in rows),
        "telemetry.trace_records": sum(r.get("trace_records", 0)
                                       for r in runner),
        "telemetry.history_records": sum(
            r["trace_kinds"].get("interval", 0) for r in rows),
        "telemetry.trace_write_s": total("telemetry.trace_write"),
        "run_p50_s": untraced["run_p50_s"],
        "sim_instr_per_s": untraced.get("sim_instr_per_s", 0.0),
        "warm_s": untraced["warm_s"] if workload == "trace-sweep" else 0.0,
        "trace_mb": untraced.get("trace_mb", 0.0),
        "cache_mb": untraced.get("cache_mb", 0.0),
        "trace.overhead_pct": 100.0 * (fig["cold_s"] / untraced["cold_s"]
                                       - 1.0),
        "trace.unattributed_s": sum(spans.get(n, {}).get("self", 0.0)
                                    for n in tops),
        "trace.spans": sum(row["count"] for row in spans.values()),
    }
    for name, _ in wl.SWEEP_EXPERIMENTS:
        values[f"experiments.{name}_s"] = sum(
            e["seconds"] for p in passes for e in p["cold"]["experiments"]
            if e["name"] == name)
    return values


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
FIGURES = ("cold_s", "run_p50_s", "sim_instr_per_s", "warm_s", "trace_mb",
           "cache_mb", "peak_rss_mb")


def measure(args, work: Path, tally: Tally, *, spans: bool = False,
            each_round=_no_probes):
    """Run the workload once; returns ``(figures, span totals)``."""
    rounds = rounds_of(args)
    if args.workload in ("cycle", "analytic"):
        tracer = None
        if spans:
            from tracing import Tracer
            tracer = Tracer()
        try:
            fig = tier_run(args.workload, args.seed, rounds, tally, tracer,
                           args.tiny, each_round)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            tracer.dump(SPANS / f"spans-{args.workload}.bin")
        return fig, fig["spans"]
    fig = sweep_run(args.workload, rounds, tally, work, spans=spans,
                    tiny=args.tiny, each_round=each_round)
    return fig, _merge_spans(x[k].get("spans", {}) for x in fig["passes"]
                             for k in ("cold", "warm"))


def run(args, work: Path, tally: Tally) -> tuple[dict, dict]:
    """Returns ``(metrics, info)`` for the requested mode."""
    if not args.trace:
        probes = SetupProbes(args) if not args.no_setup else _no_probes
        fig, _ = measure(args, work, tally, each_round=probes)
        setup_s = _median(probes.times) if not args.no_setup else None
        info = {k: fig[k] for k in FIGURES if k in fig}
        info.update(digest=fig["digest"], attempted=tally.attempted,
                    failed=tally.failed, setup_s=setup_s)
        metrics = {"cold_s": fig["cold_s"],
                   "peak_rss_mb": fig["peak_rss_mb"],
                   "setup_s": setup_s}
        return metrics, info
    # Untraced reference in a fresh process, then the traced run here.
    proc = _run_child(_self_argv(args, "--trace", "0", "--no-setup"))
    untraced = _info(proc)
    if proc.returncode != 0 or not untraced:
        raise RuntimeError(f"untraced reference run failed:\n{proc.stderr}")
    tally.attempted += untraced["attempted"]
    tally.failed += untraced["failed"]
    fig, spans = measure(args, work, tally, spans=True)
    if fig["digest"] != untraced["digest"]:
        tally.fail_run("traced and untraced digests differ: "
                       f"{fig['digest']} vs {untraced['digest']}")
    info = {"digest": fig["digest"], "untraced": untraced,
            "traced": {k: fig[k] for k in FIGURES if k in fig},
            "self_s": {n: row["self"] for n, row in sorted(spans.items())}}
    return layer_metrics(args.workload, fig, spans, untraced), info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a setup-time probe, an untraced run without probes, and
    # the self-test's toy sizes.
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--no-setup", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    # Measure the program's defaults, whatever the caller's shell sets.
    for key in [k for k in os.environ if k.startswith("MIRAGE_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        if args.workload in ("cycle", "analytic"):
            tier_setup(args.workload, args.seed, args.tiny)
        else:
            import repro.experiments  # noqa: F401  (what a pass imports)
        return 0
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    try:
        units = metric_units("per_layer" if args.trace else "end_to_end")
        metrics, info = run(args, work, tally)
        if set(metrics) != set(units):
            raise RuntimeError(
                "metrics measured and declared in BENCHMARK.json differ: "
                f"{sorted(set(metrics) ^ set(units))}")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass        # another run is using it
    print("INFO " + json.dumps(info))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
