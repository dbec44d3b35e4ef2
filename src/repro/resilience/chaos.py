"""Chaos-campaign harness: drill every recovery path on a mini device.

A resilience subsystem that is only exercised by real production failures
is dead code until the worst possible moment.  This module runs a scripted
campaign of fault drills against a small reference FET — one stage per
failure family, covering all four parallel levels of the decomposition
(bias, momentum, energy, spatial) plus the numerical-fault sites added by
the health-sentinel work (NaN injection, conditioning perturbation, hung
workers) — and asserts two properties per stage:

1. the sweep/solve **completes** (the degradation ladder healed or
   quarantined every injected fault), and
2. every injected event is **accounted** in the
   :class:`~repro.resilience.degrade.DegradationReport` /
   :class:`~repro.resilience.report.ResilienceReport` (nothing silently
   swallowed).

Stage zero is the control experiment: with zero injected faults the
containment machinery must be a pure observer — the solve output is
bit-identical with the sentinel off and in ``contain`` mode.

Entry points: :func:`run_campaign` (library), ``repro chaos`` (CLI) and
``scripts/run_chaos.py`` (CI job).  Core imports stay inside functions so
importing :mod:`repro.resilience` never drags in the full device stack.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalBreakdownError, TaskFailure
from .faults import FaultInjector
from .health import HealthSentinel, use_sentinel
from .policies import RetryPolicy
from .report import ResilienceReport

__all__ = ["ChaosStageResult", "ChaosCampaignResult", "run_campaign"]


@dataclass
class ChaosStageResult:
    """Outcome of one chaos stage."""

    name: str
    ok: bool
    injected: int = 0
    accounted: int = 0
    completed: bool = False
    duration_s: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": bool(self.ok),
            "injected": int(self.injected),
            "accounted": int(self.accounted),
            "completed": bool(self.completed),
            "duration_s": round(float(self.duration_s), 3),
            "detail": self.detail,
        }


@dataclass
class ChaosCampaignResult:
    """All stage outcomes of one campaign run."""

    backend: str
    stages: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.stages) and all(s.ok for s in self.stages)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "passed": self.passed,
            "stages": [s.to_dict() for s in self.stages],
        }

    def summary(self) -> str:
        lines = [
            f"chaos campaign [{self.backend}]: "
            f"{'PASS' if self.passed else 'FAIL'} "
            f"({sum(s.ok for s in self.stages)}/{len(self.stages)} stages)"
        ]
        for s in self.stages:
            mark = "ok  " if s.ok else "FAIL"
            lines.append(
                f"  [{mark}] {s.name:<22s} injected={s.injected} "
                f"accounted={s.accounted} completed={s.completed} "
                f"({s.duration_s:.2f}s){' - ' + s.detail if s.detail else ''}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
def _mini_built():
    """The reference mini-FET every stage drills against."""
    from ..core import DeviceSpec, build_device

    spec = DeviceSpec(
        name="chaos-mini",
        n_x=10,
        n_y=2,
        n_z=2,
        spacing_nm=0.25,
        source_cells=3,
        drain_cells=3,
        gate_cells=(4, 6),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    return build_device(spec)


def _calc(built, backend="serial", workers=2, injector=None, method="wf",
          **kwargs):
    from ..core import TransportCalculation

    return TransportCalculation(
        built, method=method, n_energy=13, backend=backend, workers=workers,
        injector=injector, **kwargs,
    )


def _stage(name):
    """Decorator registering a stage runner under ``name``."""

    def wrap(fn):
        fn.stage_name = name
        return fn

    return wrap


# ----------------------------------------------------------------------
@_stage("clean-bit-identity")
def _stage_clean(built, backend, workers):
    """Zero faults: contain-mode output must be bit-identical to off."""
    potential = np.zeros(built.n_atoms)
    with use_sentinel(HealthSentinel(mode="off")):
        ref = _calc(built, backend, workers).solve_bias(potential, 0.1)
    with use_sentinel(HealthSentinel(mode="contain")):
        res = _calc(built, backend, workers).solve_bias(potential, 0.1)
    identical = (
        np.array_equal(ref.transmission, res.transmission)
        and np.array_equal(ref.density_per_atom, res.density_per_atom)
        and ref.current_a == res.current_a
    )
    clean = res.degradation is not None and res.degradation.total_events == 0
    return ChaosStageResult(
        name="clean-bit-identity",
        ok=identical and clean,
        injected=0,
        accounted=0,
        completed=True,
        detail="" if identical else "outputs differ between off and contain",
    )


@_stage("bias-level-faults")
def _stage_bias(built, backend, workers):
    """Level-1 (bias) faults: injected raises retried by the IV engine."""
    from ..core import IVSweep, SelfConsistentSolver

    injector = FaultInjector(
        seed=7,
        rate=0.5,
        actions=("raise",),
        sites=("bias",),
        # guarantee at least one level-1 fault regardless of the seed's
        # rate draws (bias keys are (v_gate, v_drain) rounded to 1e-9)
        plan={("bias", (0.2, 0.1)): "raise"},
    )
    scf = SelfConsistentSolver(
        built, transport=_calc(built, backend, workers),
        max_iterations=2, tol_v=0.5,
    )
    sweep = IVSweep(
        scf, rescue=None, retry=RetryPolicy(max_retries=2), injector=injector
    )
    curve = sweep.transfer_curve([0.0, 0.2, 0.4], v_drain=0.1)
    completed = len(curve.points) == 3 and all(
        np.isfinite(p.current_a) for p in curve.points
    )
    accounted = curve.report.injected_faults
    return ChaosStageResult(
        name="bias-level-faults",
        ok=completed and accounted >= injector.n_injected > 0,
        injected=injector.n_injected,
        accounted=accounted,
        completed=completed,
    )


@_stage("energy-numerical")
def _stage_energy(built, backend, workers):
    """NaN / ill-conditioning faults healed by the degradation ladder.

    Planted in the k-point's solvers, the faults run the production
    path: the ill-conditioned H fails as one stack (its factor trips the
    condition sentinel), rate-drawn energy faults poison their rows or
    raise from the stacked call, and the rejected energies heal alone
    down the ladder.
    """
    injector = FaultInjector(
        seed=11,
        rate=0.15,
        actions=("nan", "raise"),
        sites=("energy",),
        plan={("hblock", 0): "illcond"},
    )
    # RGF: its block-LU factorisation carries the condition sentinel that
    # must catch the injected ill-conditioning
    calc = _calc(built, backend, workers, injector=injector, method="rgf")
    res = calc.solve_bias(np.zeros(built.n_atoms), 0.1)
    completed = np.all(np.isfinite(res.transmission)) and np.isfinite(
        res.current_a
    )
    accounted = res.degradation.total_events if res.degradation else 0
    return ChaosStageResult(
        name="energy-numerical",
        ok=bool(completed) and accounted >= injector.n_injected > 0,
        injected=injector.n_injected,
        accounted=accounted,
        completed=bool(completed),
    )


@_stage("distributed-4level")
def _stage_distributed(built, backend, workers):
    """Dead ranks across the 4-level decomposition: requeue and shrink."""
    from ..core import DistributedTransport
    from ..parallel import SerialComm

    potential = np.zeros(built.n_atoms)
    tc = _calc(built, "serial", workers)
    dt = DistributedTransport(tc, max_spatial=2)
    clean = dt.solve_bias(potential, 0.1, SerialComm(), n_ranks=8)

    results = {}
    total_injected = 0
    total_accounted = 0
    for recovery in ("requeue", "shrink"):
        injector = FaultInjector(
            seed=3, rate=0.1, sites=("task",), actions=("raise",),
            plan={("rank", 0): "dead_rank"},
        )
        report = ResilienceReport()
        results[recovery] = dt.solve_bias(
            potential, 0.1, SerialComm(), n_ranks=8,
            injector=injector, retry=RetryPolicy(max_retries=2),
            report=report, rank_recovery=recovery,
        )
        total_injected += injector.n_injected
        total_accounted += report.injected_faults + report.rank_failures
    exact = np.array_equal(
        clean["density_per_atom"], results["requeue"]["density_per_atom"]
    ) and clean["current_a"] == results["requeue"]["current_a"]
    close = np.allclose(
        clean["density_per_atom"], results["shrink"]["density_per_atom"],
        rtol=1e-9, atol=0,
    ) and np.isclose(
        clean["current_a"], results["shrink"]["current_a"], rtol=1e-9
    )
    return ChaosStageResult(
        name="distributed-4level",
        ok=exact and close and total_accounted >= 2,
        injected=total_injected,
        accounted=total_accounted,
        completed=True,
        detail="" if exact else "requeue recovery not bit-identical",
    )


@_stage("comm-faults")
def _stage_comm(built, backend, workers):
    """Transient collective failures healed by retry."""
    from ..parallel import SerialComm, UnreliableComm

    injector = FaultInjector(seed=5, plan={("comm", ("allreduce", 1)): "raise"})
    comm = UnreliableComm(SerialComm(), injector)
    report = ResilienceReport()

    def attempt(attempt_number: int):
        return comm.allreduce(42.0, op="sum")

    value = RetryPolicy(max_retries=2).run(attempt, report=report)
    return ChaosStageResult(
        name="comm-faults",
        ok=value == 42.0 and report.injected_faults >= 1,
        injected=injector.n_injected,
        accounted=report.injected_faults,
        completed=value == 42.0,
    )


@_stage("worker-hang")
def _stage_worker_hang(built, backend, workers):
    """A hung backend worker recovered by deadline + pool restart.

    The ``"worker"`` site is keyed ``(k index, first energy of the
    call)``: the fault hangs the worker that solves chunk 0 of k-point 0,
    whose first energy is the bottom of the window.
    """
    from ..parallel.backend import ProcessBackend

    if backend == "serial":
        return ChaosStageResult(
            name="worker-hang",
            ok=True,
            completed=True,
            detail="skipped (serial backend has no workers)",
        )
    potential = np.zeros(built.n_atoms)
    e_first = float(_calc(built).energy_grid(potential, 0.1).energies[0])
    injector = FaultInjector(
        seed=1, plan={("worker", (0, e_first)): "hang"}, hang_seconds=3.0
    )
    elastic = ProcessBackend(workers=max(workers, 2), deadline_s=3.0)
    # warm the pool so worker spawn latency is not counted against the
    # deadline of the faulted chunk
    elastic.map(_noop, [0, 1])
    calc = _calc(built, elastic, workers, injector=injector)
    res = calc.solve_bias(potential, 0.1)
    completed = np.all(np.isfinite(res.transmission)) and np.isfinite(
        res.current_a
    )
    d = res.degradation
    recovered = d is not None and d.stragglers >= 1 and d.pool_restarts >= 1
    return ChaosStageResult(
        name="worker-hang",
        ok=bool(completed) and recovered,
        injected=injector.n_injected,
        accounted=(d.stragglers + d.speculative_wins + d.pool_restarts)
        if d else 0,
        completed=bool(completed),
    )


@_stage("poisson-nan")
def _stage_poisson(built, backend, workers):
    """A poisoned charge model must raise typed, not return stale phi."""
    from ..poisson.nonlinear import NonlinearPoisson

    class PoisonedCharge:
        def density(self, phi):
            return np.full_like(phi, np.nan)

        def d_density_d_phi(self, phi):
            return np.zeros_like(phi)

    solver = NonlinearPoisson(
        built.poisson_grid,
        built.eps_r,
        np.zeros(built.poisson_grid.n_nodes),
    )
    sentinel = HealthSentinel(mode="contain")
    with use_sentinel(sentinel):
        try:
            solver.solve(PoisonedCharge(), max_iter=5)
            raised = False
        except NumericalBreakdownError:
            raised = True
    trips = sentinel.trips_since(0)
    accounted = sum(trips.values())
    return ChaosStageResult(
        name="poisson-nan",
        ok=raised and trips.get("poisson:nonfinite", 0) >= 1,
        injected=1,
        accounted=accounted,
        completed=raised,
        detail="" if raised else "non-finite residual did not raise",
    )


@_stage("adaptive-wave-crash")
def _stage_adaptive_wave(built, backend, workers):
    """An energy node dying mid-wave during adaptive refinement.

    A persistent NaN planted on one seed node of the adaptive quadrature
    rejects its row of the wave's stack; that node alone climbs the
    degradation ladder and ends in quarantine: the wave engine retires
    the intervals touching the dead node, the node never reaches the
    final grid, and refinement converges on the survivors instead of
    pinning on the unsolvable point.  The solve must finish finite with the exclusion accounted in
    both the degradation report and the ``adaptive`` stats.
    """
    potential = np.zeros(built.n_atoms)
    probe = _calc(built, backend, workers, energy_mode="adaptive")
    grid = probe.energy_grid(potential, 0.1)
    n_initial = max(13 // 2, 9)  # _calc solves n_energy=13
    seed = np.linspace(grid.energies.min(), grid.energies.max(), n_initial)
    e_bad = float(seed[4])
    injector = FaultInjector(
        plan={("energy", (0, e_bad)): "nan"}, once=False
    )
    calc = _calc(
        built, backend, workers, injector=injector,
        energy_mode="adaptive", adaptive_tol=0.05,
    )
    res = calc.solve_bias(potential, 0.1)
    completed = np.all(np.isfinite(res.transmission)) and np.isfinite(
        res.current_a
    )
    stats = res.adaptive or {}
    d = res.degradation
    quarantined = d is not None and (0, e_bad) in d.quarantined_points
    excluded = stats.get("excluded", 0) >= 1
    converged = stats.get("waves", 0) >= 1 and not stats.get(
        "budget_hits", 0
    )
    accounted = d.total_events if d else 0
    return ChaosStageResult(
        name="adaptive-wave-crash",
        ok=(
            bool(completed) and quarantined and excluded and converged
            and accounted >= injector.n_injected > 0
        ),
        injected=injector.n_injected,
        accounted=accounted,
        completed=bool(completed),
        detail="" if quarantined and excluded else f"adaptive={stats}",
    )


def _noop(x):
    """Picklable no-op used to warm process pools."""
    return x


_STAGES = (
    _stage_clean,
    _stage_bias,
    _stage_energy,
    _stage_distributed,
    _stage_comm,
    _stage_worker_hang,
    _stage_poisson,
    _stage_adaptive_wave,
)


# ----------------------------------------------------------------------
def run_campaign(
    backend: str = "serial",
    workers: int = 2,
    stages=None,
    verbose: bool = False,
) -> ChaosCampaignResult:
    """Run the chaos campaign; returns the per-stage scorecard.

    Parameters
    ----------
    backend : {"serial", "process"}
        Execution backend under test (the worker-hang stage is a no-op
        for ``"serial"``).
    workers : int
        Worker count for the process backend.
    stages : iterable of str or None
        Subset of stage names to run (None = all).
    verbose : bool
        Print each stage's result as it lands.
    """
    campaign = ChaosCampaignResult(backend=backend)
    built = _mini_built()
    wanted = set(stages) if stages is not None else None
    for runner in _STAGES:
        if wanted is not None and runner.stage_name not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            result = runner(built, backend, workers)
        except Exception as exc:  # a stage crashing IS a failed stage
            result = ChaosStageResult(
                name=runner.stage_name,
                ok=False,
                completed=False,
                detail=f"{type(exc).__name__}: {exc}",
            )
        result.duration_s = time.perf_counter() - t0
        campaign.stages.append(result)
        if verbose:
            mark = "ok" if result.ok else "FAIL"
            print(f"[chaos] {result.name}: {mark} ({result.duration_s:.2f}s)")
    return campaign


def write_campaign_json(campaign: ChaosCampaignResult, path) -> None:
    """Persist the scorecard (the CI summary artifact)."""
    from pathlib import Path

    Path(path).write_text(json.dumps(campaign.to_dict(), indent=2) + "\n")
