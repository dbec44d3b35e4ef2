"""I-V sweep engine: transfer and output characteristics.

Device *engineering* — the point of the paper's title — means full I-V
characteristics, not single bias points.  :class:`IVSweep` runs the SCF
solver over a grid of gate/drain voltages with warm starts (the converged
potential of the previous bias seeds the next), extracts the standard FET
figures of merit (subthreshold swing, on/off ratio, threshold voltage) and
exposes the bias list as parallel work items for the level-1 scheduler.

The sweep is crash-survivable: every completed point (plus the warm-start
potential) is checkpointed atomically, a killed sweep resumes by
recomputing only the missing points, non-converged points — including a
cold first point — are routed through the
:class:`repro.resilience.SCFRescue` ladder, and injected/organic faults
are retried.  Every recovery lands in the curve's one account, its
:class:`repro.resilience.DegradationReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ConvergenceError, NumericalBreakdownError, TaskFailure
from ..observability import PerfReport, get_tracer
from ..observability.metrics import MetricsSnapshot
from ..observability.telemetry import get_events, get_metrics
from ..perf.flops import FlopCounter
from ..resilience import SCFRescue
from ..resilience.degrade import DegradationReport
from ..resilience.faults import non_finite
from ..resilience.health import get_sentinel
from .scf import SCFResult, SelfConsistentSolver

__all__ = ["IVPoint", "IVCurve", "IVSweep", "subthreshold_swing_mv_dec"]


@dataclass
class IVPoint:
    """One bias point of a characteristic.

    ``recovery`` names the resilience paths the point took, in order —
    empty for a clean first-attempt convergence, e.g.
    ``("cold-restart", "beta-halved")`` for a ladder rescue, or
    ``("quarantined",)`` when every policy failed.

    ``n_energy_nodes`` is the energy-quadrature node count of the final
    transport solve, summed over k-points —
    ``TransportResult.adaptive["nodes"]``: the window grid size for
    ``energy_mode="uniform"`` (wave 0, refinement off), the accepted
    refined node count for ``energy_mode="adaptive"`` (the per-point
    cost the wave loop actually paid) — and 0 for quarantined points.
    """

    v_gate: float
    v_drain: float
    current_a: float
    converged: bool
    n_iterations: int
    recovery: tuple = ()
    n_energy_nodes: int = 0


def _point_to_dict(point: IVPoint) -> dict:
    return {
        "v_gate": point.v_gate,
        "v_drain": point.v_drain,
        "current_a": point.current_a,
        "converged": bool(point.converged),
        "n_iterations": int(point.n_iterations),
        "recovery": list(point.recovery),
        "n_energy_nodes": int(point.n_energy_nodes),
    }


def _point_from_dict(data: dict) -> IVPoint:
    return IVPoint(
        v_gate=float(data["v_gate"]),
        v_drain=float(data["v_drain"]),
        current_a=float(data["current_a"]),
        converged=bool(data["converged"]),
        n_iterations=int(data["n_iterations"]),
        recovery=tuple(data.get("recovery", ())),
        n_energy_nodes=int(data.get("n_energy_nodes", 0)),
    )


def _bias_key(v_gate: float, v_drain: float) -> tuple:
    return (round(float(v_gate), 9), round(float(v_drain), 9))


@dataclass
class IVCurve:
    """A family of bias points plus run-level accounting.

    ``flops`` is the *analytic* per-kernel ledger (always populated);
    ``perf`` is the *measured* :class:`repro.observability.PerfReport` —
    wall time, instrumented flop counts and sustained Flop/s — attached
    whenever the sweep ran under an active tracer, None otherwise.
    ``metrics`` is the convergence/invariant telemetry
    (:class:`repro.observability.MetricsSnapshot`) of the sweep, attached
    whenever it ran under an active metrics registry.
    ``degradation`` is the run's one account, the merged
    :class:`repro.resilience.DegradationReport` of every bias point —
    sentinel trips, ladder steps (SCF rescue rungs included), quarantined
    energy nodes, elastic-execution events, faults and retries — plus the
    points resumed from a checkpoint.  Which points were rescued,
    quarantined or left unconverged is read off ``points``.
    """

    points: list = field(default_factory=list)
    flops: FlopCounter = field(default_factory=FlopCounter)
    perf: PerfReport | None = None
    metrics: MetricsSnapshot | None = None
    degradation: DegradationReport = field(default_factory=DegradationReport)

    def currents(self) -> np.ndarray:
        """Currents (A) in sweep order."""
        return np.array([p.current_a for p in self.points])

    def gate_voltages(self) -> np.ndarray:
        """Gate voltages in sweep order."""
        return np.array([p.v_gate for p in self.points])

    def drain_voltages(self) -> np.ndarray:
        """Drain voltages in sweep order."""
        return np.array([p.v_drain for p in self.points])

    def on_off_ratio(self) -> float:
        """max / min current of the sweep (guarding against zero)."""
        i = np.abs(self.currents())
        if i.size == 0:
            raise ValueError("empty curve")
        return float(i.max() / max(i.min(), 1e-300))


def subthreshold_swing_mv_dec(
    v_gate: np.ndarray, current: np.ndarray, method: str = "fit"
) -> float:
    """Subthreshold swing (mV/decade) of a transfer characteristic.

    SS = dV_G / dlog10(I) in the exponential region; the thermionic limit
    at 300 K is 59.6 mV/dec, which the simulated FETs approach but (absent
    band-to-band tunnelling) cannot beat.

    ``method="fit"`` (default) least-squares fits log10(I) vs V_G over the
    whole sweep, which averages out SCF-tolerance noise; ``method="min"``
    returns the steepest single segment (noisier, classic definition).
    """
    v_gate = np.asarray(v_gate, dtype=float)
    current = np.abs(np.asarray(current, dtype=float))
    if v_gate.size < 3:
        raise ValueError("need at least 3 points")
    if np.any(current == 0):
        raise ValueError("zero current: no log slope")
    logi = np.log10(current)
    if method == "fit":
        slope = np.polyfit(v_gate, logi, 1)[0]
        if abs(slope) < 1e-12:
            raise ValueError("characteristic is flat")
        return float(abs(1.0 / slope) * 1e3)
    if method == "min":
        dv = np.diff(v_gate)
        dlog = np.diff(logi)
        valid = np.abs(dlog) > 1e-12
        if not np.any(valid):
            raise ValueError("characteristic is flat")
        return float(np.abs(dv[valid] / dlog[valid]).min() * 1e3)
    raise ValueError("method must be 'fit' or 'min'")


class IVSweep:
    """Bias sweep driver with warm starts, rescue ladders and checkpoints.

    Parameters
    ----------
    scf : SelfConsistentSolver
        Configured bias-point solver.
    max_retries : int
        Extra attempts at a bias point that *fails* (raises
        :class:`~repro.errors.TaskFailure`,
        :class:`~repro.errors.NumericalBreakdownError` — a NaN observable
        — or :class:`~repro.errors.ConvergenceError`) rather than merely
        not converging; 0 fails fast.  A point whose last attempt raises
        one of the first two is quarantined.  A point that does not
        converge climbs the :class:`repro.resilience.SCFRescue` ladder
        (a cold *first* point too).
    checkpoint : SweepCheckpoint, path or None
        Where to persist completed points atomically after each bias.
    resume : bool
        Load an existing checkpoint and recompute only missing points
        (False starts fresh, clearing any stale checkpoint).
    injector : repro.resilience.FaultInjector or None
        Fired at site ``"bias"`` before each point attempt (fault drills).
    """

    def __init__(
        self,
        scf: SelfConsistentSolver,
        max_retries: int = 0,
        checkpoint=None,
        resume: bool = False,
        injector=None,
    ):
        self.scf = scf
        self.max_retries = max_retries
        if isinstance(checkpoint, (str, Path)):
            from ..resilience.checkpoint import SweepCheckpoint

            checkpoint = SweepCheckpoint(checkpoint)
        self.checkpoint = checkpoint
        self.resume = resume
        self.injector = injector

    # ------------------------------------------------------------------
    def _solve_point(self, v_gate: float, v_drain: float, phi_warm):
        """One resilient bias point:
        ``(IVPoint, phi | None, FlopCounter, DegradationReport)``."""
        key = _bias_key(v_gate, v_drain)
        flops = FlopCounter()
        degradation = DegradationReport()
        recovery: list[str] = []
        used_warm_start = phi_warm is not None

        def fold_degradation(result) -> None:
            d = getattr(result, "degradation", None)
            if d is not None:
                degradation.merge(d)

        def attempt() -> SCFResult:
            mode = (
                self.injector.fire("bias", key)
                if self.injector is not None
                else None
            )
            result = self.scf.run(v_gate, v_drain, phi0=phi_warm)
            flops.merge(result.flops)
            fold_degradation(result)
            if mode == "nan":
                raise NumericalBreakdownError(
                    f"injected NaN observable at bias {key}", injected=True
                )
            if non_finite(result.transport.current_a) or non_finite(
                result.transport.density_per_atom
            ):
                raise NumericalBreakdownError(
                    f"non-finite observables at bias {key}"
                )
            return result

        # every fault is counted by origin and every attempt past the
        # first is a retry; when the retries run out a thrown fault or a
        # breakdown quarantines the point and a ConvergenceError propagates
        retries = 0
        while True:
            try:
                result = attempt()
                break
            except (TaskFailure, NumericalBreakdownError,
                    ConvergenceError) as exc:
                degradation.record_fault(
                    injected=bool(getattr(exc, "injected", False))
                )
                if retries >= self.max_retries:
                    if isinstance(exc, ConvergenceError):
                        raise
                    point = IVPoint(
                        v_gate=float(v_gate),
                        v_drain=float(v_drain),
                        current_a=float("nan"),
                        converged=False,
                        n_iterations=0,
                        recovery=("quarantined",),
                    )
                    return point, None, flops, degradation
                retries += 1
                degradation.retries += 1
        if retries:
            recovery.append(f"retry*{retries}")

        if not result.converged:
            rescued, path = SCFRescue().run(
                self.scf,
                v_gate,
                v_drain,
                used_warm_start=used_warm_start,
            )
            flops.merge(rescued.flops)
            fold_degradation(rescued)
            for name in path:
                degradation.record_ladder(f"scf:{name}")
            recovery.extend(path)
            if rescued.converged or not result.residuals or (
                rescued.residuals
                and rescued.residuals[-1] < result.residuals[-1]
            ):
                result = rescued

        transport = result.transport
        adaptive = getattr(transport, "adaptive", None) or {}
        point = IVPoint(
            v_gate=float(v_gate),
            v_drain=float(v_drain),
            current_a=transport.current_a,
            converged=result.converged,
            n_iterations=result.n_iterations,
            recovery=tuple(recovery),
            n_energy_nodes=int(adaptive.get("nodes", 0)),
        )
        return point, result.phi, flops, degradation

    def _sweep(self, bias_pairs, warm_start: bool, meta: dict) -> IVCurve:
        curve = IVCurve()
        sentinel = get_sentinel()
        marker0 = sentinel.marker()
        phi = None
        completed: dict = {}
        if self.checkpoint is not None:
            if self.resume:
                state = self.checkpoint.load()
                if state is not None:
                    completed = self.checkpoint.completed_keys(state)
                    phi = state["phi"]
            else:
                self.checkpoint.clear()
        tracer = get_tracer()
        events = get_events()
        if events.enabled:
            events.run_started(total=len(bias_pairs), kind=meta.get("kind"))
        for v_gate, v_drain in bias_pairs:
            key = _bias_key(v_gate, v_drain)
            if key in completed:
                resumed = _point_from_dict(completed[key])
                curve.points.append(resumed)
                curve.degradation.resumed_points += 1
                if events.enabled:
                    events.point_done(
                        v_gate=resumed.v_gate,
                        v_drain=resumed.v_drain,
                        current_a=resumed.current_a,
                        converged=resumed.converged,
                        resumed=True,
                    )
                continue
            with tracer.span(
                "bias",
                category="phase",
                v_gate=float(v_gate),
                v_drain=float(v_drain),
            ):
                point, phi_new, flops, point_degradation = self._solve_point(
                    v_gate, v_drain, phi
                )
            curve.points.append(point)
            curve.flops.merge(flops)
            curve.degradation.merge(point_degradation)
            if events.enabled:
                events.point_done(
                    v_gate=point.v_gate,
                    v_drain=point.v_drain,
                    current_a=point.current_a,
                    converged=point.converged,
                    resumed=False,
                    n_energy_nodes=point.n_energy_nodes,
                )
                if point.recovery:
                    events.emit(
                        "degradation",
                        stage="bias-point",
                        detail="+".join(point.recovery),
                        v_gate=point.v_gate,
                        v_drain=point.v_drain,
                        converged=point.converged,
                    )
            if warm_start and phi_new is not None:
                phi = phi_new
            if self.checkpoint is not None:
                self.checkpoint.save(
                    [_point_to_dict(p) for p in curve.points],
                    phi,
                    meta=meta,
                )
        if tracer.enabled:
            curve.perf = PerfReport.from_tracer(tracer)
        metrics = get_metrics()
        if metrics.enabled:
            curve.metrics = metrics.snapshot()
        # sweep window contains every bias-point window: overwrite the
        # merged per-point trip counts with the authoritative total
        curve.degradation.set_trips(sentinel.trips_since(marker0))
        if events.enabled:
            events.run_finished(
                n_points=len(curve.points),
                resumed_points=curve.degradation.resumed_points,
                unconverged=sum(not p.converged for p in curve.points),
            )
        return curve

    # ------------------------------------------------------------------
    def transfer_curve(
        self, gate_voltages, v_drain: float, warm_start: bool = True
    ) -> IVCurve:
        """Id-Vg at fixed drain bias."""
        pairs = [(float(vg), float(v_drain)) for vg in gate_voltages]
        meta = {"kind": "transfer", "v_drain": float(v_drain)}
        return self._sweep(pairs, warm_start, meta)

    def output_curve(
        self, v_gate: float, drain_voltages, warm_start: bool = True
    ) -> IVCurve:
        """Id-Vd at fixed gate bias."""
        pairs = [(float(v_gate), float(vd)) for vd in drain_voltages]
        meta = {"kind": "output", "v_gate": float(v_gate)}
        return self._sweep(pairs, warm_start, meta)

    def bias_work_items(self, gate_voltages, drain_voltages) -> list:
        """(v_gate, v_drain) tuples — the level-1 parallel work list."""
        return [
            (float(vg), float(vd))
            for vg in gate_voltages
            for vd in drain_voltages
        ]
