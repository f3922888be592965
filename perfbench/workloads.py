"""The benchmark's inputs and operations.

Inputs are pure functions of ``(workload, seed)``: the seed draws them
(the registry sweeps keep the paper's fixed inputs).  A run repeats the
whole list of operations in rounds, and the run length only sets how
many rounds (``rounds_for``), so two runs with equal arguments execute
the same operations in the same order.  A workload's times are each
operation's fastest round, which keeps out the seconds-long slowdowns
of a shared host.  The program itself only ever sees the generated
inputs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

#: The cycle tier's three consumer models.
CYCLE_BACKENDS = ("detailed", "cgooo", "ldt")
#: Slices per cycle-tier run and instructions per slice.
CYCLE_SLICES = 2
CYCLE_SLICE_INSTRUCTIONS = 4_000
#: The paper's cluster sizes, each with the standard mix it runs (one
#: of every category), and its five arbitrators.
ANALYTIC_MIXES = {4: "hpd0", 8: "lpd0", 12: "rnd0", 16: "rnd1"}
ANALYTIC_ARBITRATORS = ("SC-MPKI", "SC-MPKI+maxSTP", "maxSTP", "Fair",
                        "SC-MPKI-fair")
ANALYTIC_MAX_INTERVALS = 50_000

#: Timed host seconds of one round on the reference machine (README):
#: ``--seconds`` is turned into a whole number of rounds with these.
#: A sweep round is a pass: the cold regeneration, timed, then its
#: cached rerun, each in a fresh process.
ROUND_SECONDS = {
    "cycle": 12.5,
    "analytic": 6.5,
    "sweep": 16.0,
    "trace-sweep": 12.0,
}
#: Rounds a run takes at the least: a fastest-of needs two samples.
MIN_ROUNDS = 2

#: ``sweep``: the paper tables regenerated through the registry, each
#: at ``--quick`` size.  ``trace-sweep``: fig7 cut to one 8-app mix.
SWEEP_EXPERIMENTS = (
    ("table1", {}),
    ("fig7", {}),
    ("headline", {}),
    ("tier-validation", {}),
)
TRACE_SWEEP_EXPERIMENTS = (("fig7", {"n_values": [8], "n_mixes": 1}),)
TRACE_SWEEP_UNITS = 4       #: Homo-InO plus three arbitrators
#: Pool workers for the registry sweeps: two, or fewer CPUs if fewer.
SWEEP_JOBS = min(2, len(os.sched_getaffinity(0)))

#: ``--tiny`` (the self-test): the first few operations at toy sizes.
TINY_OPS = {"cycle": 2, "analytic": len(ANALYTIC_ARBITRATORS)}
TINY_CYCLE_SLICES = 1
TINY_SWEEP_EXPERIMENTS = (
    ("table1", {"instructions": 1_000}),
    ("fig7", {"n_values": [4], "n_mixes": 1}),
    ("headline", {"n_mixes": 1, "n_seeds": 1}),
    ("tier-validation", {"n_slices": 2}),
)
TINY_TRACE_SWEEP_EXPERIMENTS = (("fig7", {"n_values": [4], "n_mixes": 1}),)


def rounds_for(workload: str, seconds: float) -> int:
    """Whole rounds that fill about *seconds* on the reference machine."""
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:")


def sweep_experiments(workload: str, tiny: bool = False) -> list:
    """The experiments one pass regenerates, in the registry's order.

    The passes regenerate the paper's own tables, whose inputs the
    drivers fix with their default mix seed (what a user's ``mirage
    fig7 --quick`` runs), so ``--seed`` does not reach them: another
    mix seed changed a ``trace-sweep`` pass from 1.8 to 8.6 s, and
    another table order moved the pool workers' peak memory by 10 %.
    """
    if workload == "trace-sweep":
        return list(TINY_TRACE_SWEEP_EXPERIMENTS if tiny
                    else TRACE_SWEEP_EXPERIMENTS)
    return list(TINY_SWEEP_EXPERIMENTS if tiny else SWEEP_EXPERIMENTS)


def trace_sweep_apps(experiments) -> int:
    """Applications per mix of the traced fig7 leg."""
    (_, overrides), = experiments
    return overrides["n_values"][0]


# -- cycle tier --------------------------------------------------------
@dataclass(frozen=True)
class CycleOp:
    backend: str
    apps: tuple[tuple[str, int], ...]       #: (benchmark, stream seed)


def cycle_ops(seed: int) -> list[CycleOp]:
    """For each backend, the 26 Table 1 benchmarks paired off at random
    (13 two-app clusters), so every benchmark runs once on each backend
    whatever the seed; every app gets a fresh stream seed, so no slice
    repeats within a round or across runs."""
    from repro.workloads import ALL_BENCHMARKS

    rng = _rng("cycle", seed)
    ops = []
    for backend in CYCLE_BACKENDS:
        names = list(ALL_BENCHMARKS)
        rng.shuffle(names)
        for k in range(0, len(names) - 1, 2):
            ops.append(CycleOp(backend, (
                (names[k], rng.randrange(1, 1 << 30)),
                (names[k + 1], rng.randrange(1, 1 << 30)),
            )))
    return ops


def cycle_benchmarks(op: CycleOp) -> list:
    """The op's synthetic benchmarks, in disjoint address ranges."""
    from repro.workloads import make_benchmark

    return [make_benchmark(name, seed=s, base_addr=(i + 1) << 34)
            for i, (name, s) in enumerate(op.apps)]


def run_cycle(op: CycleOp, benchmarks: list,
              n_slices: int = CYCLE_SLICES) -> dict:
    """One cycle-tier cluster run; returns what the checks read."""
    from repro.api import DetailedMirageCluster, SCMPKIArbitrator, Telemetry

    telemetry = Telemetry()
    cluster = DetailedMirageCluster(
        benchmarks, SCMPKIArbitrator(), backend=op.backend,
        slice_instructions=CYCLE_SLICE_INSTRUCTIONS, telemetry=telemetry)
    result = cluster.run(n_slices=n_slices)
    return {
        "n_slices": n_slices,
        "slice_instructions": CYCLE_SLICE_INSTRUCTIONS,
        "instructions": [a.instructions for a in cluster.apps],
        "ipcs": result.ipcs,
        "ooo_share": result.ooo_share,
        "migrations": result.migrations,
        "sc_bytes": result.sc_bytes_transferred,
        "energy_pj": result.energy_pj,
        "counters": dict(telemetry.counters),
        "profile": dict(telemetry.profiler.seconds),
    }


# -- interval tier -----------------------------------------------------
#: Mix-selection seed of the paper's standard mixes (the drivers' default).
PAPER_MIX_SEED = 2017


@dataclass(frozen=True)
class AnalyticOp:
    arbitrator: str
    apps: tuple[str, ...]                   #: the mix, in core order
    category: str


def analytic_ops(seed: int) -> list[AnalyticOp]:
    """At every cluster size, one of the paper's standard mixes
    (``ANALYTIC_MIXES``) under all five arbitrators.  The seed deals
    each run's applications to the cores in a fresh order.

    A mix's host cost is set by how long its slowest application takes,
    so drawing different mixes per seed would make the run length vary
    several-fold between seeds; a new core order changes the simulation
    but not its length.
    """
    from repro.workloads import standard_mixes

    rng = _rng("analytic", seed)
    ops = []
    for size, name in ANALYTIC_MIXES.items():
        mix = next(m for m in standard_mixes(size, seed=PAPER_MIX_SEED)
                   if m.name == name)
        for arb in ANALYTIC_ARBITRATORS:
            apps = list(mix.benchmarks)
            rng.shuffle(apps)
            ops.append(AnalyticOp(arb, tuple(apps), mix.category))
    return ops


def analytic_mix(op: AnalyticOp):
    from repro.workloads import WorkloadMix

    return WorkloadMix("perfbench", op.category, op.apps)


def run_analytic(op: AnalyticOp, mix, models: dict) -> dict:
    """One interval-tier run, built as ``make_system`` builds it."""
    from repro.api import Telemetry
    from repro.experiments.common import make_system

    telemetry = Telemetry()
    system = make_system(mix, op.arbitrator, telemetry=telemetry)
    result = system.run(max_intervals=ANALYTIC_MAX_INTERVALS)
    scale = system.config.scale
    budget = scale.app_instruction_budget
    return {
        "intervals": result.intervals,
        "max_intervals": ANALYTIC_MAX_INTERVALS,
        "completions": [a.completions for a in system.apps],
        "first_completion_cycles": [a.first_completion_cycles
                                    for a in system.apps],
        "min_cycles": [budget / max(p.ipc_ooo for p in models[n].phases)
                       for n in mix],
        "apps": result.app_names,
        "speedups": result.speedups,
        "stp": result.stp,
        "instructions": [a.instr_done for a in system.apps],
        "energy_pj": result.energy_pj,
        "migrations": result.migrations,
        "ooo_share": result.ooo_share_per_app,
        "counters": dict(telemetry.counters),
        "profile": dict(telemetry.profiler.seconds),
    }
