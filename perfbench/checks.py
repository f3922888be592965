"""Output checks: every operation's result against an independent
computation or a property the method must have.

Each check takes plain data (numbers, lists, dicts, bytes) and raises
:class:`CheckFailed` naming what is wrong, so the self-test can feed it
a corrupted copy of a real result.  Nothing is compared against a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import hashlib
import json


class CheckFailed(AssertionError):
    """An operation's output broke a check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def canonical(value) -> str:
    """Deterministic JSON text for results holding tuples and int keys."""
    def norm(v):
        if isinstance(v, dict):
            return {str(k): norm(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [norm(x) for x in v]
        return v
    return json.dumps(norm(value), sort_keys=True, separators=(",", ":"))


def digest(values) -> str:
    """Short SHA-256 over the canonical form of *values*."""
    return hashlib.sha256(canonical(values).encode()).hexdigest()[:16]


# -- cycle tier --------------------------------------------------------
def check_cycle(obs: dict) -> None:
    """One ``DetailedMirageCluster.run``.

    *obs* holds ``n_slices``, ``slice_instructions`` and per-app lists
    ``instructions``, ``ipcs`` and ``ooo_share``, plus ``migrations``
    and ``sc_bytes``.
    """
    want = obs["n_slices"] * obs["slice_instructions"]
    for i, got in enumerate(obs["instructions"]):
        _require(got == want,
                 f"app {i} retired {got} instructions, expected {want}")
    for i, ipc in enumerate(obs["ipcs"]):
        _require(ipc > 0, f"app {i} has IPC {ipc}")
    for i, share in enumerate(obs["ooo_share"]):
        _require(0.0 <= share <= 1.0, f"app {i} has OoO share {share}")
    # An app's first move (to the producer) carries its still-empty
    # SC; from the second move on, schedules the producer recorded
    # must cross the bus.
    if obs["migrations"] >= 2:
        _require(obs["sc_bytes"] > 0,
                 f"{obs['migrations']} migrations moved no SC bytes")


def check_repeat(first: dict, again: dict) -> None:
    """A repeated run of the same inputs, from a cold slice memo,
    simulates exactly what the first did."""
    _require(canonical(first) == canonical(again),
             "a repeat of the run simulated something else: "
             + ", ".join(k for k in first
                         if canonical(first[k]) != canonical(again.get(k))))


# -- interval tier -----------------------------------------------------
def check_analytic(obs: dict) -> None:
    """One ``CMPSystem.run``.

    *obs* holds ``intervals``, ``max_intervals`` and per-app lists ``completions``, ``first_completion_cycles``,
    ``min_cycles`` (``budget / max(phase.ipc_ooo)``, from the app's
    ``AppModel``) and ``speedups``.
    """
    _require(obs["intervals"] < obs["max_intervals"],
             f"ran into max_intervals ({obs['intervals']})")
    for i, done in enumerate(obs["completions"]):
        _require(done >= 1, f"app {i} never completed its budget")
    for i, (took, floor) in enumerate(zip(obs["first_completion_cycles"],
                                          obs["min_cycles"])):
        _require(took is not None and took >= floor * (1 - 1e-12),
                 f"app {i} finished in {took} cycles, below the "
                 f"{floor:.1f}-cycle bound of its fastest phase")
    for i, s in enumerate(obs["speedups"]):
        _require(0.0 < s <= 1.0, f"app {i} has speedup {s}")


def check_mirage_beats_homo_ino(mirage_stp: list, homo_ino_stp: list
                                ) -> None:
    """Mean SC-MPKI STP above the Homo-InO STP of the same mixes."""
    _require(bool(mirage_stp) and len(mirage_stp) == len(homo_ino_stp),
             "no SC-MPKI runs to compare")
    mirage = sum(mirage_stp) / len(mirage_stp)
    homo = sum(homo_ino_stp) / len(homo_ino_stp)
    _require(mirage > homo,
             f"mean SC-MPKI STP {mirage:.4f} <= Homo-InO STP {homo:.4f}")


def homo_ino_stp(models) -> float:
    """Homo-InO STP of a mix: every app alone on an in-order core."""
    ratios = [min(1.0, m.mean_ipc_ino / m.mean_ipc_ooo) for m in models]
    return sum(ratios) / len(ratios)


# -- registry sweeps ---------------------------------------------------
def check_same_table(name: str, cold, warm) -> None:
    """A table regenerated from the cache equals the cold one."""
    _require(canonical(cold) == canonical(warm),
             f"{name}: table from the cache differs from the cold run")


def check_from_cache(name: str, cold: dict | None, warm: dict | None
                     ) -> None:
    """The rerun took every unit the cold pass ran from the cache and
    executed none (*cold*, *warm*: the passes' ``RunnerStats`` counts)."""
    _require(cold is not None and warm is not None,
             f"{name}: no runner statistics")
    units = cold["units_run"] + cold["cache_hits"]
    _require(units > 0, f"{name}: the cold pass had no units")
    _require(warm["units_run"] == 0 and warm["cache_hits"] == units,
             f"{name}: the rerun executed {warm['units_run']} units and "
             f"found {warm['cache_hits']} of {units} in the cache")


def check_fig7(result: dict) -> None:
    """SC-MPKI above Homo-InO at every cluster size."""
    _require(bool(result["rows"]), "fig7 has no rows")
    for row in result["rows"]:
        stp = row["stp"]
        _require(stp["SC-MPKI"] > stp["Homo-InO"],
                 f"fig7 n={row['n']}: SC-MPKI STP {stp['SC-MPKI']:.4f} "
                 f"<= Homo-InO {stp['Homo-InO']:.4f}")


def check_table1(result: dict, benchmarks) -> None:
    """One row per benchmark, each ratio in (0, 1)."""
    names = [r["benchmark"] for r in result["rows"]]
    _require(names == list(benchmarks),
             f"table1 rows {len(names)} do not match the "
             f"{len(benchmarks)} benchmarks")
    for r in result["rows"]:
        _require(0.0 < r["ratio"] < 1.0,
                 f"table1 {r['benchmark']}: ratio {r['ratio']}")


def check_headline(result: dict) -> None:
    """Mirage reaches a share of Homo-OoO performance in (0, 1]."""
    perf = result["performance_vs_homo_ooo"]
    _require(0.0 < perf <= 1.0, f"headline performance {perf}")


def check_tier_validation(result: dict) -> None:
    """Schedule bytes cross the bus in the cycle-level half."""
    moved = result["detailed"]["sc_bytes_transferred"]
    _require(moved > 0, f"tier-validation moved {moved} SC bytes")


SWEEP_CHECKS = {
    "fig7": check_fig7,
    "headline": check_headline,
    "tier-validation": check_tier_validation,
}


# -- traces ------------------------------------------------------------
#: The ``arbitrator`` of a run record for a homogeneous configuration,
#: whose units keep no per-interval history.
NO_ARBITRATOR = "none"


def check_trace(cold: bytes, warm: bytes, *, units: int, apps: int
                ) -> None:
    """A cached regeneration writes the same trace, and every run
    record is followed by ``intervals x apps`` interval records (a
    homogeneous configuration's may have none)."""
    _require(cold == warm, "trace from the cache differs from the cold "
             "trace")
    runs = []
    for line in cold.splitlines():
        record = json.loads(line)
        if record["kind"] == "run":
            runs.append([record["intervals"], 0, record["arbitrator"]])
        elif record["kind"] == "interval":
            _require(bool(runs), "interval record before any run record")
            runs[-1][1] += 1
    _require(len(runs) == units,
             f"{len(runs)} run records for {units} units")
    for i, (intervals, seen, arbitrator) in enumerate(runs):
        allowed = {intervals * apps}
        if arbitrator == NO_ARBITRATOR:
            allowed.add(0)
        _require(seen in allowed,
                 f"run {i} ({arbitrator}): {seen} interval records, "
                 f"expected {intervals} x {apps}")
