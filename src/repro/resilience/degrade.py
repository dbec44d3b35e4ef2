"""Graceful-degradation ladders and their accounting.

When a :class:`~repro.resilience.health.HealthSentinel` trips (or a solve
throws) inside a production sweep, throwing the whole bias point away is
the *worst* answer — OMEN-class runs burn node-hours per point.  Instead
the transport layer steps down a ladder of increasingly conservative
solves and, as a last resort, quarantines the offending energy node and
reweights the quadrature:

1. **retry per-point** with a freshly assembled Hamiltonian and the
   ``robust`` surface-GF ladder (heals transient corruption and
   band-edge decimation stalls);
2. **dense oracle** — full dense inversion, :class:`DenseOracleSolver`
   (orders of magnitude slower, numerically bulletproof);
3. **quarantine** — drop the energy node, rebuild the trapezoid weights
   on the surviving nodes, and account the gap.

Step 3 is bounded by a :class:`DegradationBudget`: a sweep that loses
more than the configured fraction of its quadrature is *wrong*, not
degraded, and fails with :class:`~repro.errors.DegradationBudgetError`.

Everything that happened is collected in a :class:`DegradationReport`,
the one account of a run: it also counts the thrown faults, bias-point
retries, SCF rescue rungs, dead ranks and checkpoint resumes of the
drivers above the transport layer.  It rides along
``TransportResult → SCFResult → IVCurve`` (and the distributed result
dict) and surfaces in ``repro doctor`` and the CLI result JSON.

NEGF imports stay inside function bodies — this module is imported by the
solver layer and must not create import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import DegradationBudgetError

__all__ = [
    "DegradationReport",
    "DegradationBudget",
    "LADDER_EXCEPTIONS",
    "DenseOracleSolver",
    "dense_oracle_solve",
]

#: What the degradation ladder is allowed to absorb (in ``contain`` mode).
#: ``RuntimeError`` covers every typed :class:`~repro.errors.ReproError`;
#: ``ValueError`` covers scipy's finite-entry input checks;
#: ``ArithmeticError`` covers overflow under ``np.errstate``;
#: ``LinAlgError`` covers a singular block or dense inversion.
#: :class:`DegradationBudgetError` and :class:`PhysicsInvariantError` are
#: re-raised explicitly by every handler — exceeding the budget must fail
#: the sweep, and a strict monitor's verdict must reach its caller.
LADDER_EXCEPTIONS = (
    RuntimeError,
    ValueError,
    ArithmeticError,
    np.linalg.LinAlgError,
)


@dataclass
class DegradationReport:
    """Account of every self-healing action taken during a run.

    Which bias points were rescued, quarantined or left unconverged is
    not stored here: it is a filter of the curve's points (their
    ``recovery`` and ``converged`` fields).

    Attributes
    ----------
    sentinel_trips : dict
        ``"site:kind" -> count`` of health-sentinel trips observed in the
        reporting window (see ``set_trips`` for the no-double-count
        contract).
    ladder_steps : dict
        ``path -> count`` of recovery paths taken: the transport ladder
        (``"per-point:robust"``, ``"dense-oracle"``, ``"chunk:per-point"``,
        ``"quadrature:reweight"``), SCF rescue rungs (``"scf:<rung>"``)
        and dead-rank recoveries (``"rank:requeue"``).
    quarantined_points : list of (k_index, energy)
        Energy nodes dropped from the quadrature.
    reweighted_grids : int
        Per-k grids whose trapezoid weights were rebuilt after quarantine.
    stragglers, speculative_wins, pool_restarts : int
        Elastic-execution events from the process backend.
    injected_faults, organic_faults : int
        Thrown faults seen by a retry policy or the I-V engine, split by
        origin (injector vs real failure).
    retries : int
        Retry attempts (beyond first attempts) those faults cost.
    rank_failures, requeued_tasks : int
        Dead ranks, and the tasks survivors reclaimed from them.
    resumed_points : int
        Bias points loaded from a checkpoint instead of recomputed.
    """

    sentinel_trips: dict = field(default_factory=dict)
    ladder_steps: dict = field(default_factory=dict)
    quarantined_points: list = field(default_factory=list)
    reweighted_grids: int = 0
    stragglers: int = 0
    speculative_wins: int = 0
    pool_restarts: int = 0
    injected_faults: int = 0
    organic_faults: int = 0
    retries: int = 0
    rank_failures: int = 0
    requeued_tasks: int = 0
    resumed_points: int = 0

    # -- recording -----------------------------------------------------

    def record_trip(self, key: str, n: int = 1) -> None:
        self.sentinel_trips[key] = self.sentinel_trips.get(key, 0) + int(n)

    def set_trips(self, counts: dict) -> None:
        """Replace the trip counts with an authoritative window total.

        Nested consumers (transport → SCF → I-V sweep) each observe a
        sentinel window that *contains* their children's windows, so a
        plain ``merge`` would double count.  Instead every level
        overwrites the merged counts with its own window total — exact
        because the windows nest.
        """
        if counts:
            self.sentinel_trips = dict(counts)

    def record_ladder(self, rung: str, n: int = 1) -> None:
        self.ladder_steps[rung] = self.ladder_steps.get(rung, 0) + int(n)

    def record_fault(self, injected: bool = False) -> None:
        """Count one thrown fault by origin."""
        if injected:
            self.injected_faults += 1
        else:
            self.organic_faults += 1

    def quarantine(self, k_index: int, energy: float) -> None:
        self.quarantined_points.append((int(k_index), float(energy)))

    # -- views ---------------------------------------------------------

    @property
    def total_faults(self) -> int:
        """Injected plus organic faults."""
        return self.injected_faults + self.organic_faults

    @property
    def total_events(self) -> int:
        """Every recovery event once.  A thrown fault is one event
        whatever its origin, and its retries are how it was handled; a
        dead rank is its ``rank:*`` ladder step, and the tasks it lost
        are that step's size."""
        return (
            sum(self.sentinel_trips.values())
            + sum(self.ladder_steps.values())
            + len(self.quarantined_points)
            + self.reweighted_grids
            + self.stragglers
            + self.speculative_wins
            + self.pool_restarts
            + self.total_faults
            + self.resumed_points
        )

    def merge(self, other: "DegradationReport") -> None:
        """Fold another report into this one (counts add)."""
        for key, n in other.sentinel_trips.items():
            self.record_trip(key, n)
        for rung, n in other.ladder_steps.items():
            self.record_ladder(rung, n)
        self.quarantined_points.extend(other.quarantined_points)
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_dict(self) -> dict:
        return {
            "sentinel_trips": dict(self.sentinel_trips),
            "ladder_steps": dict(self.ladder_steps),
            "quarantined_points": [
                [int(ik), float(e)] for ik, e in self.quarantined_points
            ],
            **{name: getattr(self, name) for name in _COUNTERS},
            "total_events": self.total_events,
        }

    def summary(self) -> str:
        if self.total_events == 0:
            return "degradation: clean (no sentinel trips, no ladder steps)"
        lines = [f"degradation: {self.total_events} events"]
        if self.sentinel_trips:
            body = ", ".join(
                f"{k}={v}" for k, v in sorted(self.sentinel_trips.items())
            )
            lines.append(f"  sentinel trips : {body}")
        if self.ladder_steps:
            body = ", ".join(
                f"{k}={v}" for k, v in sorted(self.ladder_steps.items())
            )
            lines.append(f"  ladder steps   : {body}")
        if self.quarantined_points:
            lines.append(
                f"  quarantined    : {len(self.quarantined_points)} energy "
                f"point(s), {self.reweighted_grids} grid(s) reweighted"
            )
        if self.stragglers or self.speculative_wins or self.pool_restarts:
            lines.append(
                f"  elastic exec   : {self.stragglers} straggler(s), "
                f"{self.speculative_wins} speculative win(s), "
                f"{self.pool_restarts} pool restart(s)"
            )
        if self.total_faults:
            lines.append(
                f"  faults         : {self.injected_faults} injected, "
                f"{self.organic_faults} organic, "
                f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}"
            )
        if self.rank_failures:
            lines.append(
                f"  dead ranks     : {self.rank_failures}, "
                f"{self.requeued_tasks} task(s) reclaimed"
            )
        if self.resumed_points:
            lines.append(
                f"  resumed        : {self.resumed_points} point(s) from "
                "checkpoint"
            )
        return "\n".join(lines)


#: The plain counters of a :class:`DegradationReport`, in ``to_dict`` order.
_COUNTERS = tuple(
    f.name for f in fields(DegradationReport)
    if f.name not in ("sentinel_trips", "ladder_steps", "quarantined_points")
)


@dataclass
class DegradationBudget:
    """Bound on how much quadrature a sweep may lose before it is wrong.

    Attributes
    ----------
    max_quarantined_fraction : float
        Largest tolerable fraction of energy nodes dropped from any
        single per-k grid.
    max_quarantined_points : int or None
        Optional absolute cap per grid.
    min_surviving_points : int
        A grid needs at least this many nodes for the trapezoid rule to
        mean anything.
    """

    max_quarantined_fraction: float = 0.25
    max_quarantined_points: int | None = None
    min_surviving_points: int = 2

    def check(self, n_quarantined: int, n_total: int, context: str = "") -> None:
        """Raise :class:`DegradationBudgetError` when the loss exceeds budget."""
        if n_quarantined <= 0:
            return
        where = f" ({context})" if context else ""
        if n_total - n_quarantined < self.min_surviving_points:
            raise DegradationBudgetError(
                f"degradation budget exceeded{where}: only "
                f"{n_total - n_quarantined} of {n_total} energy nodes "
                f"survived quarantine (need >= {self.min_surviving_points})"
            )
        if (
            self.max_quarantined_points is not None
            and n_quarantined > self.max_quarantined_points
        ):
            raise DegradationBudgetError(
                f"degradation budget exceeded{where}: {n_quarantined} energy "
                f"nodes quarantined (cap {self.max_quarantined_points})"
            )
        fraction = n_quarantined / max(n_total, 1)
        if fraction > self.max_quarantined_fraction:
            raise DegradationBudgetError(
                f"degradation budget exceeded{where}: {fraction:.1%} of the "
                f"quadrature quarantined "
                f"(budget {self.max_quarantined_fraction:.1%})"
            )


class DenseOracleSolver:
    """The ladder's last rung as a solver of one energy per call.

    Shaped like both transport kernels — contacts (the ``robust``
    surface-GF ladder on the device's own end blocks), then a kernel
    stage — so a k-point builds, and a fault injector plants, this rung
    like the other two.  The kernel stage is full dense inversion
    (:func:`repro.negf.dense_ref.dense_stage`), O((N m)^3): acceptable
    only because the ladder reaches it for a handful of points a sweep.
    Results are an :class:`repro.negf.rgf.RGFResult` stack of one — the
    field set both kernels' consumers read — with the ``finite`` mask
    the ladder reads.
    """

    def __init__(self, H, eta: float = 1e-6):
        from ..negf.self_energy import Contacts

        self.H = H
        self.contacts = Contacts(H, eta=eta, method="robust")

    def solve_batch(self, energies):
        """The contacts, then :meth:`kernel_stage`, at one energy."""
        return self.kernel_stage(
            energies, *self.contacts.sigma_stacks(energies)
        )

    def kernel_stage(self, energies, sigma_l, sigma_r):
        """Dense observables of the one energy from its self-energies."""
        from ..negf.dense_ref import dense_stage
        from ..negf.rgf import RGFResult

        (energy,) = np.asarray(energies, dtype=float).ravel().tolist()
        observables = dense_stage(self.H, energy, sigma_l[0], sigma_r[0])
        return RGFResult.checked(**{
            f.name: np.asarray([observables[f.name]])
            for f in fields(RGFResult) if f.name != "finite"
        })


def dense_oracle_solve(H, energy: float, eta: float = 1e-6):
    """Reference solve of one energy by full dense inversion: the stack
    of one of :class:`DenseOracleSolver`."""
    return DenseOracleSolver(H, eta=eta).solve_batch([energy])
