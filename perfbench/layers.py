"""Where the benchmark's spans go: the public calls of each layer.

Each ``install_*`` function wraps the calls named in the README's layer
table with :class:`~tracing.Tracer` spans.  Span names are the per-layer
metric names without their ``_s`` suffix; the ``engine.phase.*`` spans
only give the engine phases a place in the span tree (their totals are
read from the program's own ``Telemetry.profiler``).
"""

from __future__ import annotations


def install_sim_spans(tracer) -> None:
    """Spans around both simulator tiers' public calls (in-process)."""
    from repro import arbiter, simcache
    from repro.arbiter.base import Arbitrator
    from repro.cmp.detailed import DetailedBackend, DetailedMirageCluster
    from repro.cmp.system import CMPSystem
    from repro.cores import CGOoOCore, OinOCore, OutOfOrderCore
    from repro.engine import backends, loop, phases
    from repro.runner import units

    tracer.wrap(DetailedMirageCluster, "__init__", "cmp.build")
    tracer.wrap(CMPSystem, "__init__", "cmp.build")
    tracer.wrap(loop.IntervalEngine, "run", "engine.run")
    for cls in (phases.ArbitrationPhase, phases.MigrationPhase,
                phases.ExecutionPhase, phases.EnergyPhase):
        tracer.wrap(cls, "run", f"engine.phase.{cls.name}")
    tracer.wrap(backends.ExecutionBackend, "advance_all", "engine.advance")
    tracer.wrap(backends.AnalyticBackend, "advance_all", "engine.advance")
    tracer.wrap(backends.AnalyticBackend, "advance", "engine.advance")
    tracer.wrap(DetailedBackend, "advance", "engine.advance")
    for cls in (Arbitrator, arbiter.SCMPKIArbitrator,
                arbiter.SCMPKIMaxSTPArbitrator, arbiter.MaxSTPArbitrator,
                arbiter.FairArbitrator, arbiter.SCMPKIFairArbitrator):
        for attr in ("pick", "pick_batch"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, "arbiter.decide")
    tracer.wrap(OutOfOrderCore, "run", "cores.producer")
    tracer.wrap(OinOCore, "run", "cores.consumer")
    tracer.wrap(CGOoOCore, "run", "cores.consumer")
    tracer.wrap(simcache.SliceMemo, "lookup", "simcache.lookup")
    tracer.wrap(simcache.SliceMemo, "store", "simcache.store")
    # app_model() resolves this module global on every cache miss.
    tracer.wrap(units, "analytic_model", "characterize.model")


def install_sweep_spans(tracer) -> None:
    """Spans around the parent-side calls of a registry sweep.

    Units run in pool workers, which these wrappers do not reach; their
    time comes from ``RunnerStats`` instead.
    """
    from repro.runner import cache, executor, pool

    tracer.wrap(executor.SweepRunner, "map", "runner.map")
    tracer.wrap(cache.ResultCache, "get", "runner.cache_get")
    tracer.wrap(cache.ResultCache, "put", "runner.cache_put")
    tracer.wrap(pool.WarmPool, "__init__", "runner.pool_start")
    tracer.wrap(pool.WarmPool, "map", "runner.pool_map")
    # The runner appends trace lines through its own import of it.
    tracer.wrap(executor, "dump_record", "telemetry.trace_write")
