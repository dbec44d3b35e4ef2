"""Mixed-precision factorisation with double-precision refinement.

The production codes behind the paper (and their successors, notably the
SplitSolve line) get a further ~2x over tuned complex128 kernels by
running the dense block factorisations in *single* precision and
restoring double-precision accuracy with iterative refinement on the
residual.  This module is that engine for the block-tridiagonal solvers:

* :func:`split_round` — a two-term complex64 representation
  ``a ~ hi + lo`` of a complex128 operator.  ``hi`` is the rounded
  operator the fp32 factorisation consumes; ``hi + lo`` recovers the
  fp64 operator to ~3.6e-15 relative accuracy, so *every* backend
  (serial, thread, process) refines against bit-identical reference
  data.
* :func:`refined_sliver_solve` — solve ``A X = B`` for a block column
  supported on one slab (the injection sliver of the RGF transmission
  formula) with a complex64 factor, then run fp64 iterative refinement
  until the per-slice normwise backward error
  ``beta = max|r| / (|||A||| max|X| + max|B|)`` reaches ``beta_tol``.
  Slices whose refinement stalls, exhausts the budget, goes non-finite
  or whose fp32 factor fails the condition gate are flagged for typed
  escalation — the caller re-solves exactly those energies on the
  full-FP64 path (bit-identical to a pure FP64 run by the batched ==
  scalar kernel invariant).

Everything here is deterministic per batch slice: the refinement
decisions depend only on that slice's own residual history, and every
stacked matmul is bit-for-bit the per-slice result, so escalation masks,
iteration counts and the ``precision.*`` metrics are invariant under
energy chunking and backend choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import env
from ..observability.metrics import get_metrics
from ..observability.tracer import get_tracer
from ..perf.flops import zgemm_flops
from ..resilience.health import get_sentinel
from .block_tridiagonal import _substitution_flops

__all__ = [
    "BETA_TOL",
    "COND_MAX",
    "MAX_REFINE",
    "PRECISIONS",
    "W_TOL",
    "RefinedSolve",
    "precision_from_env",
    "refined_sliver_solve",
    "resolve_precision",
    "split_round",
    "upcast_split",
]

#: Recognised precision modes.  ``fp64`` is the untouched complex128
#: path (bit-identical to every release before this module existed);
#: ``mixed`` is fp32 factorisation + fp64 refinement to ``BETA_TOL``;
#: ``fp32`` is pure complex64 screening (no refinement, loose tolerance).
PRECISIONS = ("fp64", "mixed", "fp32")

#: Per-energy normwise backward-error target of mixed-mode refinement.
#: ~50x double-precision unit roundoff: one fp64 correction of a healthy
#: fp32 solve lands at ~1e-12, so the target is reached in one
#: iteration without being so tight that benign rounding noise stalls.
BETA_TOL = 1e-11

#: Relative eigenvalue cutoff of the injection sliver: broadening-matrix
#: eigenpairs below ``W_TOL * lambda_max`` carry evanescent leakage
#: ~1e-5 of the propagating channels and are dropped from the
#: transmission RHS (their contribution is quadratically small).
W_TOL = 1e-4

#: Refinement iteration budget before a slice escalates with
#: ``reason="budget"``.  Healthy slices converge in 1.
MAX_REFINE = 6

#: fp32 condition gate: slices whose factor 1-norm condition estimate
#: exceeds this escalate immediately (``reason="condition"``) —
#: ``cond * u32 ~ 0.6`` is the classical refinement-divergence boundary.
COND_MAX = 1e7


def resolve_precision(precision=None) -> str:
    """Normalise and validate a precision mode name (None -> ``fp64``)."""
    if precision is None:
        return "fp64"
    p = str(precision).lower()
    if p not in PRECISIONS:
        raise ValueError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}"
        )
    return p


def precision_from_env(default: str = "fp64") -> str:
    """Precision mode from ``REPRO_PRECISION`` (consumed, like
    ``REPRO_BACKEND``, by :class:`~repro.core.TransportCalculation` —
    never by the raw solvers)."""
    return resolve_precision(env.read("REPRO_PRECISION", default))


def split_round(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-term complex64 split ``a ~ hi + lo`` of a complex128 array.

    ``hi = fl32(a)`` and ``lo = fl32(a - hi)``; the reconstruction
    :func:`upcast_split` recovers ``a`` to ~``u32^2 ~ 3.6e-15`` relative
    accuracy.  Both terms are deterministic functions of ``a`` alone, so
    a worker that receives only ``(hi, lo)`` rebuilds the *same* fp64
    reference operator on every backend.
    """
    a = np.asarray(a, dtype=np.complex128)
    hi = a.astype(np.complex64)
    lo = (a - hi.astype(np.complex128)).astype(np.complex64)
    return hi, lo


def upcast_split(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Reconstruct the complex128 operator from a :func:`split_round`."""
    return hi.astype(np.complex128) + lo.astype(np.complex128)


@dataclass
class RefinedSolve:
    """Outcome of :func:`refined_sliver_solve`.

    Attributes
    ----------
    x : list of ndarray, shape (B, m_i, c), complex128
        Refined block column of ``A^{-1} B``.
    iterations : ndarray of int, shape (B,)
        fp64 correction steps each slice consumed (0 = the initial fp32
        solve already met the target).
    beta : ndarray of float, shape (B,)
        Final normwise backward error per slice.
    escalate : ndarray of bool, shape (B,)
        Slices that could not be certified and must re-solve in FP64.
    reasons : ndarray of object, shape (B,)
        ``"stall"`` / ``"budget"`` / ``"condition"`` / ``"nonfinite"``
        for escalated slices, ``""`` otherwise.
    """

    x: list
    iterations: np.ndarray
    beta: np.ndarray
    escalate: np.ndarray
    reasons: np.ndarray


def _batch_max_abs(blocks) -> np.ndarray:
    """Per-slice ``max |entry|`` over a list of (B, m, c) stacks."""
    out = None
    for b in blocks:
        m = np.max(np.abs(b), axis=(1, 2)).astype(np.float64)
        out = m if out is None else np.maximum(out, m)
    return out


def _batch_norm1(blocks) -> np.ndarray:
    """Per-slice max block 1-norm over a list of (B, m, m) stacks."""
    out = None
    for b in blocks:
        n1 = np.abs(b).sum(axis=1).max(axis=1).astype(np.float64)
        out = n1 if out is None else np.maximum(out, n1)
    return out


def _sliver_solve(dinv, upper, lower, j, w):
    """Solve with the RHS supported on block ``j`` only.

    Same operation order as ``BlockTridiagLU.solve`` but the zero RHS
    blocks above ``j`` skip their forward-substitution GEMMs entirely.
    ``0 - t`` is exactly ``-t`` in floating point, so the result is
    bit-identical to the full solve with explicit zero blocks.
    """
    n = len(dinv)
    y = [None] * n
    y[j] = w
    for i in range(j + 1, n):
        y[i] = -(lower[i - 1] @ (dinv[i - 1] @ y[i - 1]))
    x = [None] * n
    x[n - 1] = dinv[n - 1] @ y[n - 1]
    for i in range(n - 2, -1, -1):
        t = upper[i] @ x[i + 1]
        x[i] = dinv[i] @ ((y[i] - t) if y[i] is not None else -t)
    return x


def _full_solve(dinv, upper, lower, rhs):
    """Plain forward/backward substitution on the raw factor stacks."""
    n = len(dinv)
    y = [rhs[0]]
    for i in range(1, n):
        y.append(rhs[i] - lower[i - 1] @ (dinv[i - 1] @ y[i - 1]))
    x = [None] * n
    x[n - 1] = dinv[n - 1] @ y[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dinv[i] @ (y[i] - upper[i] @ x[i + 1])
    return x


def _residual(diag, upper, lower, x, j, rhs):
    """fp64 residual ``b - A x`` for a RHS supported on block ``j``."""
    n = len(diag)
    r = [None] * n
    for i in range(n):
        acc = diag[i] @ x[i]
        if i + 1 < n:
            acc = acc + upper[i] @ x[i + 1]
        if i > 0:
            acc = acc + lower[i - 1] @ x[i - 1]
        r[i] = (rhs - acc) if i == j else -acc
    return r


def _refine_flops(sizes, j, r, n_iter) -> float:
    """Analytic flop count of one slice's refinement work.

    Initial sliver solve (forward GEMMs only below ``j``) plus
    ``n_iter`` x (residual matvec + full correction solve + update).
    Charged per slice so the total is invariant under energy chunking.
    """
    n = len(sizes)
    per_iter = _substitution_flops(sizes, r)
    for i in range(n):
        m = int(sizes[i])
        per_iter += zgemm_flops(m, r, m)  # diag @ x
        if i + 1 < n:
            per_iter += zgemm_flops(m, r, int(sizes[i + 1]))
        if i > 0:
            per_iter += zgemm_flops(m, r, int(sizes[i - 1]))
    return _substitution_flops(sizes, r, j) + n_iter * per_iter


def refined_sliver_solve(
    lu32,
    diag64,
    upper64,
    lower64,
    j: int,
    rhs64: np.ndarray,
    *,
    diag32=None,
    take=None,
    beta_tol: float = BETA_TOL,
    max_refine: int = MAX_REFINE,
    cond_max: float = COND_MAX,
    site: str = "precision.refine",
) -> RefinedSolve:
    """fp32 sliver solve + fp64 iterative refinement, per batch slice.

    Parameters
    ----------
    lu32 : BlockTridiagLU
        complex64 factorisation of the *rounded* operator.
    diag64, upper64, lower64 : lists of ndarray, complex128
        The fp64 reference operator the residual is measured against
        (diag stacks ``(B, m, m)``; couplings may be shared 2-D blocks).
    j : int
        Slab carrying the RHS (0 for left injection, N-1 for right).
    rhs64 : ndarray, shape (B, m_j, c), complex128
        Injection sliver columns.
    diag32 : list of ndarray, optional
        The complex64 diagonal stacks the factor consumed; enables the
        per-slice fp32 condition gate (skipped when omitted).
    take : ndarray of int, optional
        Solve only this subset of the factored batch (``rhs64`` then has
        ``len(take)`` slices).  The RGF layer groups energies by
        injection-sliver width and runs one subset solve per width —
        GEMM results are not bitwise invariant under RHS column count,
        so every slice must always be solved at its own deterministic
        width, never zero-padded to a batch-dependent one.

    Notes
    -----
    Correction solves run on the *full* (subset) batch each iteration
    (stacked GEMMs are per-slice independent), but corrections are
    applied — and iterations counted, metrics observed, flops charged —
    only for slices still above ``beta_tol``.  Together with the fixed
    per-slice RHS width this keeps every per-slice result and counter
    bit-identical under any energy chunking.
    """
    rhs64 = np.asarray(rhs64, dtype=np.complex128)
    nb = lu32.n_blocks
    batch = rhs64.shape[0]
    dinv = lu32._dinv
    u32, l32 = lu32._upper, lu32._lower
    if take is not None:
        take = np.asarray(take, dtype=np.intp)
        dinv = [d[take] for d in dinv]
        diag64 = [np.asarray(d)[take] if np.asarray(d).ndim == 3 else d
                  for d in diag64]
        if diag32 is not None:
            diag32 = [np.asarray(d)[take] if np.asarray(d).ndim == 3 else d
                      for d in diag32]
        u32 = [np.asarray(u)[take] if np.asarray(u).ndim == 3 else u
               for u in u32]
        l32 = [np.asarray(l)[take] if np.asarray(l).ndim == 3 else l
               for l in l32]
        upper64 = [np.asarray(u)[take] if np.asarray(u).ndim == 3 else u
                   for u in upper64]
        lower64 = [np.asarray(l)[take] if np.asarray(l).ndim == 3 else l
                   for l in lower64]

    escalate = np.zeros(batch, dtype=bool)
    reasons = np.empty(batch, dtype=object)
    reasons[:] = ""

    # fp32 condition gate (sentinel-style 1-norm estimate, vectorised)
    if diag32 is not None:
        cond = None
        for d, di in zip(diag32, dinv):
            c = (
                np.abs(d).sum(axis=1).max(axis=1).astype(np.float64)
                * np.abs(di).sum(axis=1).max(axis=1).astype(np.float64)
            )
            cond = c if cond is None else np.maximum(cond, c)
        bad = ~np.isfinite(cond) | (cond > cond_max)
        escalate |= bad
        reasons[bad] = "condition"
        sentinel = get_sentinel()
        if sentinel.enabled:
            # one check per gated slice — the sentinel ledger must count
            # the same events no matter how energies are grouped
            for b in np.flatnonzero(bad):
                sentinel.check_condition(
                    site, float(cond[b]), detail="fp32 block-LU factor"
                )

    # initial fp32 solve, promoted to fp64 for the refinement iteration
    x32 = _sliver_solve(dinv, u32, l32, j, rhs64.astype(np.complex64))
    x = [xb.astype(np.complex128) for xb in x32]

    norm_a = 3.0 * _batch_norm1(diag64)
    rhs_max = np.max(np.abs(rhs64), axis=(1, 2)).astype(np.float64)

    r = _residual(diag64, upper64, lower64, x, j, rhs64)
    denom = norm_a * _batch_max_abs(x) + rhs_max
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = _batch_max_abs(r) / np.where(denom > 0.0, denom, 1.0)

    bad = ~np.isfinite(beta)
    escalate |= bad
    reasons[np.asarray(bad) & (reasons == "")] = "nonfinite"

    iterations = np.zeros(batch, dtype=np.int64)
    active = np.isfinite(beta) & (beta > beta_tol) & ~escalate
    it = 0
    while active.any() and it < max_refine:
        it += 1
        # full-batch correction solve in fp32 (per-slice independent);
        # applied only to slices still refining
        c32 = _full_solve(
            dinv, u32, l32, [rb.astype(np.complex64) for rb in r]
        )
        new_x = [xb.copy() for xb in x]
        for i in range(nb):
            new_x[i][active] = x[i][active] + c32[i][active].astype(
                np.complex128
            )
        new_r = _residual(diag64, upper64, lower64, new_x, j, rhs64)
        denom = norm_a * _batch_max_abs(new_x) + rhs_max
        with np.errstate(invalid="ignore", divide="ignore"):
            new_beta = _batch_max_abs(new_r) / np.where(
                denom > 0.0, denom, 1.0
            )

        iterations[active] += 1
        # stall: the error stopped contracting (less than 2x per step)
        nonfin = active & ~np.isfinite(new_beta)
        stall = (
            active
            & np.isfinite(new_beta)
            & (new_beta > beta_tol)
            & (new_beta > 0.5 * beta)
        )
        reasons[nonfin] = "nonfinite"
        reasons[stall] = "stall"
        escalate |= nonfin | stall

        # accept the update only on slices that were refining
        for i in range(nb):
            x[i][active] = new_x[i][active]
            r[i][active] = new_r[i][active]
        beta = np.where(active, new_beta, beta)
        active = np.isfinite(beta) & (beta > beta_tol) & ~escalate

    over = active  # still above target after the budget
    escalate |= over
    reasons[np.asarray(over) & (reasons == "")] = "budget"

    tracer = get_tracer()
    if tracer.enabled:
        r_cols = int(rhs64.shape[-1])
        fl = 0.0
        for b in range(batch):
            fl += _refine_flops(lu32.sizes, j, r_cols, int(iterations[b]))
        tracer.add_flops("block_lu.refine", fl)
    metrics = get_metrics()
    for b in range(batch):
        metrics.observe("precision.refine_iterations", float(iterations[b]))
        if np.isfinite(beta[b]):
            metrics.observe("precision.residual", float(beta[b]))
    if escalate.any():
        metrics.inc("precision.refine_stalls", float(np.sum(escalate)))

    return RefinedSolve(
        x=x,
        iterations=iterations,
        beta=beta,
        escalate=escalate,
        reasons=reasons,
    )
