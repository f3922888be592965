"""One pass of registry sweeps, in a fresh process (as ``mirage`` runs).

Usage (the benchmark runs it; ``src`` must be on ``PYTHONPATH``)::

    python3 perfbench/sweep_pass.py SPEC.json OUT.json

``SPEC.json`` names the experiments with their keyword overrides, the
result-cache directory, an optional JSONL trace file, ``jobs`` and
whether to record spans (and where to write them).  The pass runs each
experiment through the registry with ``--quick`` sizes and writes its
tables, timings, peak memory, runner and pool counters (and span totals)
to ``OUT.json``.  A fresh process per pass means the slice memo, the
warm pool and every LRU-cached profile start empty, as they do for a
user's ``mirage`` invocation.  Drivers keep their default mix seed.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set of a live process (``VmHWM``), in MB.

    Unlike ``ru_maxrss``, which Linux carries across ``exec`` from the
    forking parent, this counts only the process's own memory.
    """
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def main(spec_path: str, out_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from repro.experiments import EXPERIMENTS, ExperimentParams
    from repro.runner import pool as pool_mod

    pools = []
    start_pool = pool_mod.WarmPool.__init__

    def remember_pool(self, *args, **kwargs):
        start_pool(self, *args, **kwargs)
        pools.append(self)

    pool_mod.WarmPool.__init__ = remember_pool
    tracer = None
    trace_kinds: dict[str, int] = {}
    if spec["spans"]:
        from layers import install_sweep_spans
        from repro.runner import executor
        from tracing import Tracer

        write_record = executor.dump_record

        def counted(event):
            trace_kinds[event.kind] = trace_kinds.get(event.kind, 0) + 1
            return write_record(event)

        executor.dump_record = counted
        tracer = Tracer()
        install_sweep_spans(tracer)

    out = {"experiments": []}
    begin = time.perf_counter()
    for name, overrides in spec["experiments"]:
        params = ExperimentParams(
            quick=True, jobs=spec["jobs"], use_cache=True,
            cache_dir=spec["cache_dir"], trace=spec.get("trace_file"))
        row = {"name": name}
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"experiments.{name}"):
                    result = EXPERIMENTS[name].run(params, **overrides)
            else:
                result = EXPERIMENTS[name].run(params, **overrides)
            row["result"] = result
        except Exception:
            row["error"] = traceback.format_exc()
        row["seconds"] = time.perf_counter() - t0
        runner = EXPERIMENTS[name].last_runner
        if runner is not None:
            stats = runner.stats
            row["runner"] = {
                "units_run": stats.units_run,
                "cache_hits": stats.cache_hits,
                "unit_seconds": sum(stats.unit_seconds),
                "trace_records": stats.trace_records,
            }
        out["experiments"].append(row)
    out["wall_s"] = time.perf_counter() - begin

    out["peak_rss_mb"] = max(
        [peak_rss_mb()] + [peak_rss_mb(p.pid)
                           for p in multiprocessing.active_children()])
    out["pool"] = {"shm_batches": sum(p.stats.shm_batches for p in pools),
                   "inline_batches": sum(p.stats.inline_batches
                                         for p in pools)}
    for p in pools:
        p.shutdown()
    out["cache_bytes"] = _tree_bytes(Path(spec["cache_dir"]))
    if spec.get("trace_file"):
        trace = Path(spec["trace_file"])
        out["trace_bytes"] = trace.stat().st_size if trace.exists() else 0
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.totals()
        out["trace_kinds"] = trace_kinds
        tracer.dump(Path(spec["span_file"]))
    Path(out_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
