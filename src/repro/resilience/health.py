"""Numerical-health sentinels for the hot solver kernels.

Typed exceptions (PR 1) only catch failures that *throw*.  The nastier
production killers are silent: a NaN that appears deep inside a block-LU
factor and propagates into the current integral, a surface-GF fixed point
whose residual quietly stops contracting, a Schur complement whose
condition number explodes near a band edge.  This module gives every hot
kernel a cheap, always-available health check:

* :class:`HealthSentinel` — an observer with three modes (defined with
  the run recorder in :mod:`repro.observability.telemetry`, whose
  ``sentinel`` field — :func:`get_sentinel`, :func:`use_sentinel` — is
  the active one; re-exported here):

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
sentinel off.  Trips are accounted in one
:class:`~repro.observability.invariants.Ledger` keyed ``"site:kind"`` —
the account the invariant monitor's violations and a fault injector's
fired faults keep too: the first ``Ledger.MAX_RECORDS`` trip events are
kept, every count is exact past that bound.  ``marker()`` snapshots the
counts and ``trips_since()`` reads what grew since, so nested consumers
(transport → SCF → I–V sweep) can each report the trips of their own
window without double counting, and the degradation ladder reads the
kinds of a window's trips from the same counts.
"""

from __future__ import annotations

import numpy as np

from ..observability.telemetry import (
    HealthEvent,
    HealthSentinel,
    get_sentinel,
    use_sentinel,
)

__all__ = [
    "HealthEvent",
    "HealthSentinel",
    "condition_estimate",
    "finite_rows",
    "get_sentinel",
    "norm1",
    "use_sentinel",
]


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
