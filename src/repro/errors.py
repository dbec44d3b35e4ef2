"""Typed error hierarchy of the simulator.

Production sweeps on hundreds of thousands of cores die for a handful of
well-understood reasons — a surface-GF decimation that stops contracting at
a band edge, an SCF fixed point that a stale warm start cannot reach, a
task whose observables come back NaN, a rank that disappears mid-batch.
Each gets its own exception type so the recovery policies of
:mod:`repro.resilience` can dispatch on *what* failed instead of parsing
``RuntimeError`` messages.

Every class derives from :class:`ReproError`, itself a ``RuntimeError``
subclass, so pre-existing callers that catch ``RuntimeError`` keep working.
All carry an ``injected`` flag distinguishing faults planted by the fault
injector from organic ones — the resilience report accounts them
separately.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConvergenceError",
    "SurfaceGFConvergenceError",
    "SCFConvergenceError",
    "NumericalBreakdownError",
    "DegradationBudgetError",
    "PhysicsInvariantError",
    "TaskFailure",
    "RankFailure",
]


class ReproError(RuntimeError):
    """Base class of all typed simulator errors.

    Parameters
    ----------
    message : str
    injected : bool
        True when the error was planted by the fault injector (testing),
        False for organic failures.
    """

    def __init__(self, message: str, injected: bool = False):
        super().__init__(message)
        self.injected = injected


class ConvergenceError(ReproError):
    """An iterative solver exhausted its iteration budget."""


class SurfaceGFConvergenceError(ConvergenceError):
    """Sancho-Rubio decimation (or the mode solver) failed to converge.

    Attributes
    ----------
    energy, eta : float
        The evaluation point; recovery ladders escalate ``eta``.
    """

    def __init__(
        self,
        message: str,
        energy: float = float("nan"),
        eta: float = float("nan"),
        injected: bool = False,
    ):
        super().__init__(message, injected=injected)
        self.energy = energy
        self.eta = eta


class SCFConvergenceError(ConvergenceError):
    """The Poisson-transport fixed point was not reached.

    Attributes
    ----------
    v_gate, v_drain : float
        Bias point that failed.
    residual : float
        Last max|delta phi| (V).
    """

    def __init__(
        self,
        message: str,
        v_gate: float = float("nan"),
        v_drain: float = float("nan"),
        residual: float = float("nan"),
        injected: bool = False,
    ):
        super().__init__(message, injected=injected)
        self.v_gate = v_gate
        self.v_drain = v_drain
        self.residual = residual


class NumericalBreakdownError(ReproError):
    """An observable came back NaN/inf — the solve silently broke down."""


class DegradationBudgetError(ReproError):
    """The degradation ladder quarantined more quadrature than allowed.

    Deliberately *not* a :class:`NumericalBreakdownError`: the IV sweep
    quarantines breakdowns point-by-point, but a blown budget means the
    surviving quadrature can no longer represent the integral — the sweep
    must fail loudly instead of returning a silently-mutilated current.

    Attributes
    ----------
    n_quarantined, n_total : int
        How many energy points were quarantined out of how many sampled.
    """

    def __init__(
        self,
        message: str,
        n_quarantined: int = 0,
        n_total: int = 0,
        injected: bool = False,
    ):
        super().__init__(message, injected=injected)
        self.n_quarantined = n_quarantined
        self.n_total = n_total


class PhysicsInvariantError(ReproError):
    """A physics invariant was violated beyond tolerance (strict mode).

    Raised only by a strict :class:`repro.observability.InvariantMonitor`;
    the default non-strict monitor records the violation into the metrics
    registry and lets the run continue.

    Attributes
    ----------
    invariant : str
        Name of the violated invariant (``"current_conservation"``,
        ``"transmission_bounds"``, ...).
    value, threshold : float
        Observed defect and the tolerance it exceeded.
    """

    def __init__(
        self,
        message: str,
        invariant: str = "",
        value: float = float("nan"),
        threshold: float = float("nan"),
        injected: bool = False,
    ):
        super().__init__(message, injected=injected)
        self.invariant = invariant
        self.value = value
        self.threshold = threshold


class TaskFailure(ReproError):
    """One (k, E) (or bias) task failed, possibly after retries.

    Attributes
    ----------
    key
        Scheduler key of the failed task.
    attempts : int
        Number of attempts made (1 = no retry).
    """

    def __init__(
        self,
        message: str,
        key=None,
        attempts: int = 1,
        injected: bool = False,
    ):
        super().__init__(message, injected=injected)
        self.key = key
        self.attempts = attempts


class RankFailure(ReproError):
    """A rank died (node failure); its task list must be requeued.

    Attributes
    ----------
    rank : int
        The rank observed dead.
    """

    def __init__(self, message: str, rank: int = -1, injected: bool = False):
        super().__init__(message, injected=injected)
        self.rank = rank
