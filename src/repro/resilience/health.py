"""Numerical-health sentinels for the hot solver kernels.

Typed exceptions (PR 1) only catch failures that *throw*.  The nastier
production killers are silent: a NaN that appears deep inside a block-LU
factor and propagates into the current integral, a surface-GF fixed point
whose residual quietly stops contracting, a Schur complement whose
condition number explodes near a band edge.  This module gives every hot
kernel a cheap, always-available health check:

* :class:`HealthSentinel` — a process-wide observer with three modes:

  - ``"off"``     : zero checks, the historical fast path;
  - ``"contain"`` : (default) record every trip into a bounded ledger and
    the ``health.*`` metrics, let the degradation ladder of
    :mod:`repro.resilience.degrade` heal the point;
  - ``"strict"``  : raise :class:`~repro.errors.NumericalBreakdownError`
    at the first trip (debugging / CI gating).

* ``check_finite`` / ``check_condition`` / ``check_residual`` — the three
  sentinel primitives instrumented into ``solvers/block_tridiagonal.py``,
  ``negf/surface_gf.py`` and ``poisson/nonlinear.py``.  The transport
  kernels (``negf/rgf.py``, ``wf/qtbm.py``) keep :func:`finite_rows` of
  their observables as the result stack's ``finite`` mask and trip
  ``nonfinite`` iff it has a False row.

* ``condition_estimate`` — the classic 1-norm estimate
  ``cond1(A) ~ ||A||_1 * ||A^-1||_1`` (``norm1`` per factor), essentially
  free because the hot kernels already hold both the matrix and its
  inverse.

Sentinels are pure observers: in ``contain`` mode they never modify a
value, so a run that trips nothing is bit-identical to a run with the
sentinel off.  Trip accounting uses a monotonically growing ledger with
``marker()`` / ``trips_since()`` so that nested consumers (transport →
SCF → I–V sweep) can each report the trips of their own window without
double counting.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalBreakdownError
from ..observability.metrics import get_metrics

__all__ = [
    "HealthEvent",
    "HealthSentinel",
    "condition_estimate",
    "finite_rows",
    "get_sentinel",
    "norm1",
    "set_sentinel",
    "use_sentinel",
]

_MODES = ("off", "contain", "strict")


def norm1(a):
    """``||a||_1`` of a matrix, or of every slice of an ``(..., m, m)``
    stack; non-finite exactly when ``a`` holds a NaN/Inf entry.

    The ufunc reductions are called directly: at transport block sizes
    the ``ndarray.sum`` / ``.max`` wrappers cost as much as the
    arithmetic, and this runs once per slab of every factorisation.  A
    1x1 block (the chain devices) skips both: its norm is ``|a|``.
    """
    a = np.absolute(a)
    if a.shape[-2:] == (1, 1):  # both reductions run over one element
        return a[..., 0, 0]
    return np.maximum.reduce(np.add.reduce(a, axis=-2), axis=-1)


def finite_rows(*stacks) -> np.ndarray:
    """Per-row verdict over ``(B, ...)`` stacks: True where row b of every
    stack is free of NaN/Inf — one ``isfinite`` per stack, whatever B."""
    ok = True
    for a in stacks:
        ok = ok & np.isfinite(a).all(axis=tuple(range(1, a.ndim)))
    return ok


def condition_estimate(a, a_inv) -> float:
    """1-norm condition estimate ``||A||_1 * ||A^-1||_1``.

    Works on a single matrix or a stacked ``(..., m, m)`` batch; for a
    batch the worst (largest) estimate is returned.  Returns ``inf`` when
    either factor contains non-finite entries.
    """
    with np.errstate(invalid="ignore"):  # inf * 0 -> nan -> reported inf
        prod = np.asarray(norm1(a) * norm1(a_inv), dtype=float)
    if prod.size == 0:
        return 0.0
    if not np.all(np.isfinite(prod)):
        return float("inf")
    return float(prod.max())


@dataclass(frozen=True)
class HealthEvent:
    """One sentinel trip: *where* (site), *what* (kind), *how bad* (value)."""

    seq: int
    site: str
    kind: str
    value: float = float("nan")
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "site": self.site,
            "kind": self.kind,
            "value": self.value,
            "detail": self.detail,
        }


class HealthSentinel:
    """Process-wide numerical-health observer (thread safe).

    Parameters
    ----------
    mode : {"off", "contain", "strict"}
        ``"contain"`` records trips for the degradation ladder;
        ``"strict"`` raises :class:`NumericalBreakdownError` immediately.
    cond_threshold : float
        1-norm condition estimate above which a factorization is flagged
        ill-conditioned (default ``1e12`` — far above anything a healthy
        nanowire Hamiltonian produces at double precision).
    residual_threshold : float
        Relative residual above which a converged-looking fixed point is
        flagged (default ``1e-6``; Sancho-Rubio residuals sit near 1e-12).
    max_events : int
        Ledger bound; trip *counts* keep growing past it, only per-event
        details stop being stored.
    """

    def __init__(
        self,
        mode: str = "contain",
        cond_threshold: float = 1e12,
        residual_threshold: float = 1e-6,
        max_events: int = 4096,
    ):
        if mode not in _MODES:
            raise ValueError(f"unknown sentinel mode {mode!r}; pick from {_MODES}")
        self.mode = mode
        self.cond_threshold = float(cond_threshold)
        self.residual_threshold = float(residual_threshold)
        self.max_events = int(max_events)
        self._lock = threading.Lock()
        self._events: list[HealthEvent] = []
        self._seq = 0

    # -- state ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    @property
    def n_trips(self) -> int:
        return self._seq

    def marker(self) -> int:
        """Opaque position in the trip ledger; pass to :meth:`trips_since`."""
        return self._seq

    def events_since(self, marker: int = 0) -> list[HealthEvent]:
        with self._lock:
            return [e for e in self._events if e.seq >= marker]

    def trips_since(self, marker: int = 0) -> dict:
        """Trip counts keyed ``"site:kind"`` recorded after ``marker``."""
        counts: dict[str, int] = {}
        for ev in self.events_since(marker):
            key = f"{ev.site}:{ev.kind}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def reset(self) -> None:
        with self._lock:
            self._events.clear()
            self._seq = 0

    # -- trip + checks -------------------------------------------------

    def trip(self, site: str, kind: str, value: float = float("nan"), detail: str = "") -> None:
        """Record one health violation; raise in strict mode."""
        with self._lock:
            event = HealthEvent(self._seq, site, kind, float(value), detail)
            self._seq += 1
            if len(self._events) < self.max_events:
                self._events.append(event)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(f"health.{site}.{kind}")
        if self.strict:
            raise NumericalBreakdownError(
                f"health sentinel [{site}] tripped: {kind} (value={value:.3e}) {detail}".strip()
            )

    def check_finite(self, site: str, *arrays, detail: str = "") -> bool:
        """True when every array is fully finite; trips ``nonfinite`` otherwise."""
        for arr in arrays:
            a = np.asarray(arr)
            if a.size and not np.all(np.isfinite(a)):
                self.trip(site, "nonfinite", detail=detail)
                return False
        return True

    def check_condition(self, site: str, cond: float, detail: str = "") -> bool:
        """True when the condition estimate is below threshold."""
        if not np.isfinite(cond):
            self.trip(site, "nonfinite", value=cond, detail=detail)
            return False
        if cond > self.cond_threshold:
            self.trip(site, "ill_conditioned", value=cond, detail=detail)
            return False
        return True

    def check_residual(self, site: str, residual: float, detail: str = "") -> bool:
        """True when a post-solve residual is acceptably small."""
        if not np.isfinite(residual):
            self.trip(site, "nonfinite", value=residual, detail=detail)
            return False
        if residual > self.residual_threshold:
            self.trip(site, "residual", value=residual, detail=detail)
            return False
        return True

    def summary(self) -> str:
        counts = self.trips_since(0)
        if not counts:
            return f"health[{self.mode}]: no trips"
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"health[{self.mode}]: {self._seq} trips ({body})"


_default_sentinel = HealthSentinel(mode="contain")
_sentinel = _default_sentinel


def get_sentinel() -> HealthSentinel:
    """The active process-wide sentinel (default: ``contain`` mode)."""
    return _sentinel


def set_sentinel(sentinel: HealthSentinel | None) -> HealthSentinel:
    """Install ``sentinel`` globally (None restores the default); returns it."""
    global _sentinel
    _sentinel = sentinel if sentinel is not None else _default_sentinel
    return _sentinel


@contextmanager
def use_sentinel(sentinel: HealthSentinel):
    """Temporarily install ``sentinel`` (tests, strict CI gates)."""
    previous = _sentinel
    set_sentinel(sentinel)
    try:
        yield sentinel
    finally:
        set_sentinel(previous)
