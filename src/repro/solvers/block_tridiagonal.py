"""Block-tridiagonal LU factorisation, solves and selected inversion.

This is the computational core of the recursive Green's function (RGF)
method: for A = (E - H - Sigma) in slab block form,

* :class:`BlockTridiagLU` factors A — one matrix, or a whole stack of
  energies at once — (forward block elimination, O(N m^3)) and then
* solves for arbitrary right-hand sides or single block columns
  (O(N m^2) per RHS vector), and
* produces the *diagonal blocks of A^{-1}* without ever forming the full
  inverse (the "selected inversion" recursion — this IS the RGF backward
  sweep).

Everything is dense per block (numpy/LAPACK); each operation charges the
flop count of its reference algorithm through :mod:`repro.perf` hooks
(PAPER.md: "we count the same flops analytically per algorithm"), so the
performance model's totals do not move when the class reuses a product.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..observability.tracer import get_tracer
from ..perf.flops import zgemm_flops, zinverse_flops
from ..resilience.health import get_sentinel, norm1

__all__ = ["BatchedBlockTridiagLU", "BlockTridiagLU", "block_tridiag_matvec"]

#: Every block product of :class:`BlockTridiagLU` goes through this name,
#: so a test can count them by patching it.
_matmul = np.matmul


def _factor_health_check(diag, dinv_blocks) -> None:
    """Health sentinel (site ``block_lu``) for a completed elimination.

    The Schur-complement inverses are already in hand, so the 1-norm
    condition estimate ``||A_ii||_1 * ||schur_i^-1||_1`` is essentially
    free (``diag[i]`` stands in for the Schur complement itself, a
    faithful proxy: an exploding ``dinv`` dominates the product either
    way).  One matrix and a stack are guarded by the same vectorised
    calls (the worst slice decides).  Trips ``nonfinite`` on NaN/Inf
    factors and ``ill_conditioned`` past the sentinel threshold; raises
    in strict mode.  Finiteness is read off the norms: only a
    non-finite estimate pays a second look at which factor caused it.
    """
    sentinel = get_sentinel()
    if not sentinel.enabled:
        return
    worst = 0.0  # per slice, over the slabs
    with np.errstate(invalid="ignore"):  # inf * 0 -> nan -> reported inf
        for d, dinv in zip(diag, dinv_blocks):
            worst = np.maximum(worst, norm1(d) * norm1(dinv))
    cond = float(worst.max(initial=0.0))
    if not np.isfinite(cond):
        if not all(np.isfinite(norm1(dinv)).all() for dinv in dinv_blocks):
            sentinel.trip(
                "block_lu", "nonfinite", detail="non-finite LU factor block"
            )
            return
        cond = np.inf
    sentinel.check_condition("block_lu", cond, detail="block-LU factor")


def _factor_flops(sizes) -> float:
    """Forward elimination of one matrix at (possibly ragged) ``sizes``.

    Per block: 1 inversion; blocks after the first add the two
    elimination GEMMs (dinv @ upper then lower @ product) — what
    executes.
    """
    fl = zinverse_flops(int(sizes[0]))
    for a, b in zip(sizes[:-1], sizes[1:]):
        a, b = int(a), int(b)
        fl += zgemm_flops(a, b, a) + zgemm_flops(b, b, a) + zinverse_flops(b)
    return fl


def _substitution_flops(sizes, r: int, j: int = 0) -> float:
    """Forward/backward substitution of ``r`` columns supported on block
    ``j`` and below (``j = 0``: a generic RHS) for one matrix.

    The reference sweep, which reuses nothing of the factor.  Forward
    below j: dinv_{i-1} @ y then lower @ (.); backward: one GEMM on the
    last block, then upper @ x and dinv @ (.) per remaining block.  The
    class executes fewer (stored ``P`` / ``Q``: one product a block above
    j, one forward product for an identity column); the charge stays the
    reference so ``perf.flops_total`` compares across versions.
    """
    n = len(sizes)
    fl = zgemm_flops(int(sizes[n - 1]), r, int(sizes[n - 1]))
    for i in range(j + 1, n):
        a, b = int(sizes[i - 1]), int(sizes[i])
        fl += zgemm_flops(a, r, a) + zgemm_flops(b, r, a)
    for a, b in zip(sizes[:-1], sizes[1:]):
        a, b = int(a), int(b)
        fl += zgemm_flops(a, r, b) + zgemm_flops(a, r, a)
    return fl


def _diagonal_flops(sizes) -> float:
    """Selected inversion of one matrix, reference form:
    ``(((di @ U) @ G) @ L) @ di`` evaluated left to right, per block but
    the last — four products where ``(P @ G) @ Q`` executes two."""
    fl = 0.0
    for a, b in zip(sizes[:-1], sizes[1:]):
        a, b = int(a), int(b)
        fl += (
            zgemm_flops(a, b, a)
            + zgemm_flops(a, b, b)
            + zgemm_flops(a, a, b)
            + zgemm_flops(a, a, a)
        )
    return fl


def block_tridiag_matvec(diag, upper, lower, x_blocks):
    """Multiply a block-tridiagonal matrix by a block vector.

    Parameters
    ----------
    diag, upper, lower : lists of ndarray
        A_ii (N), A_{i,i+1} (N-1) and A_{i+1,i} (N-1) blocks.
    x_blocks : list of ndarray
        Vector blocks conforming to the diagonal block sizes; each block may
        be a 1-D vector or a 2-D multi-vector.

    Returns
    -------
    list of ndarray
        Blocks of A @ x.
    """
    n = len(diag)
    if len(x_blocks) != n:
        raise ValueError(f"expected {n} vector blocks, got {len(x_blocks)}")
    out = [diag[i] @ x_blocks[i] for i in range(n)]
    for i in range(n - 1):
        out[i] = out[i] + upper[i] @ x_blocks[i + 1]
        out[i + 1] = out[i + 1] + lower[i] @ x_blocks[i]
    return out


class BlockTridiagLU:
    """LU-like factorisation of a block-tridiagonal matrix, or of a stack.

    Forward elimination computes the Schur complements ("left-connected"
    blocks in NEGF language)

        d_0 = A_00,      d_i = A_ii - A_{i,i-1} d_{i-1}^{-1} A_{i-1,i},

    storing ``dinv_i = inv(d_i)`` and the upper multipliers
    ``P_i = dinv_i A_{i,i+1}`` the elimination forms anyway (kept with the
    sign the sweeps use, ``-P_i``).  The lower multipliers
    ``Q_i = A_{i+1,i} dinv_i`` are formed once, the first time a full
    identity column or the selected inversion reads them.  Every sweep
    reads the same stored blocks — backward ``x_i = dinv_i y_i - P_i
    x_{i+1}``, identity-column forward ``y_i = -Q_{i-1} y_{i-1}``,
    ``G_ii = dinv_i + P_i G_{i+1,i+1} Q_i`` — so one RGF kernel stage
    (factor, both edge columns, diagonal) issues 9 block products a slab.
    One rule is a property of the call, not a setting: a *supplied*
    right-hand side (the WF kernel's injection sliver, r << m columns)
    sweeps forward with the two thin products ``A_{i+1,i} (dinv_i y_i)``
    and never forms ``Q`` — m^3 a slab for r columns of use.  The class
    then offers:

    * :meth:`solve` — generic multi-RHS solve,
    * :meth:`block_column` / :meth:`solve_block_column` — the j-th block
      column of A^{-1} as one array / as its row blocks (what the
      transmission and spectral-function formulas consume), or its
      product with a right-hand side living on slab j (the wave-function
      kernel's injected states),
    * :meth:`diagonal_of_inverse` — diag blocks of A^{-1} (local DOS).

    One matrix and a stack of B matrices run through the same lines:
    ``numpy.linalg.inv`` and ``@`` broadcast over leading axes, so
    ``(B, m, m)`` diagonal stacks factor as one sequence of stacked
    LAPACK/GEMM calls whose every slice is bit-for-bit the 2-D result,
    with the interpreter overhead amortised over the stack.  The energy
    sweep is the stacked case: A(E) = E - H - Sigma(E) differs between
    energies only in its diagonal blocks.  Whatever the dtype of the
    blocks, the factorisation and every result are complex128.

    Parameters
    ----------
    diag : list of ndarray, shape (m_i, m_i) or (B, m_i, m_i)
        Diagonal blocks of A, or one stack per slab (batch axis first).
    upper, lower : lists of ndarray
        Coupling blocks, 2-D (shared by every slice of a stack — the
        transport case) or per-slice 3-D stacks.  ``lower`` may be None
        for the Hermitian-coupling case ``A_{i+1,i} = upper[i]^+`` — note
        A itself need not be Hermitian (it isn't: E - H - Sigma has
        complex self-energies).
    instrument : bool
        False charges no ``block_lu.*`` flops (the WF kernel charges its
        own Gordon Bell counts on top of this class).

    Flop accounting: every method charges ``batch_size`` times the
    per-matrix count of the *reference* sweep (no multiplier reused: 12
    products a slab for the RGF stage where 9 execute) at the actual
    (possibly ragged) block sizes, so a charge does not depend on what a
    call found already stored;
    :func:`repro.observability.validate_flops` pins one matrix and a
    stack against the analytic formulas.
    """

    def __init__(self, diag, upper, lower=None, instrument=True):
        n = len(diag)
        self._instrument = bool(instrument)
        if n < 1:
            raise ValueError("need at least one diagonal block")
        first = np.asarray(diag[0])
        if first.ndim not in (2, 3) or first.shape[-2] != first.shape[-1]:
            raise ValueError(
                "diagonal blocks must be (m, m) or stacks (batch, m, m); "
                f"got {first.shape}"
            )
        self._batch = first.shape[:-2]
        self.batch_size = first[..., 0, 0].size  # 1 for (m, m) blocks
        if lower is None:
            lower = [np.conj(np.swapaxes(np.asarray(u), -2, -1))
                     for u in upper]
        if len(upper) != n - 1 or len(lower) != n - 1:
            raise ValueError("need N-1 upper and lower blocks")
        self.n_blocks = n
        self.sizes = np.array([np.asarray(d).shape[-1] for d in diag])
        offsets = [0, *np.cumsum(self.sizes).tolist()]
        self._rows = list(zip(offsets[:-1], offsets[1:]))
        self._upper = [np.ascontiguousarray(u, dtype=complex) for u in upper]
        self._lower = [np.ascontiguousarray(l, dtype=complex) for l in lower]
        # forward elimination: d_i = A_ii + L_{i-1} (-P_{i-1}); the
        # multiplier is kept (negated on the small coupling block, so no
        # sweep negates a product)
        self._dinv: list[np.ndarray] = []
        self._neg_p: list[np.ndarray] = []
        for i in range(n):
            schur = np.ascontiguousarray(diag[i], dtype=complex)
            if i:
                schur = schur + _matmul(self._lower[i - 1], self._neg_p[i - 1])
            self._dinv.append(np.linalg.inv(schur))
            if i < n - 1:
                self._neg_p.append(_matmul(self._dinv[i], -self._upper[i]))
        _factor_health_check(diag, self._dinv)
        self._charge("block_lu.factor", _factor_flops)

    def _charge(self, kernel: str, flops, *args) -> None:
        """Charge ``batch_size * flops(sizes, *args)`` to a live tracer."""
        tracer = get_tracer()
        if tracer.enabled and self._instrument:
            tracer.add_flops(kernel, self.batch_size * flops(self.sizes, *args))

    @cached_property
    def _neg_q(self) -> list[np.ndarray]:
        """``-Q_i = -L_i @ dinv_i``, formed the first time an identity
        column or the selected inversion reads it."""
        return [_matmul(-l, d) for l, d in zip(self._lower, self._dinv)]

    # ------------------------------------------------------------------
    def solve(self, rhs_blocks):
        """Solve A x = b for block right-hand sides.

        ``rhs_blocks`` is a list of N arrays: vector or multi-vector
        blocks for one matrix, ``(B, m_i, r)`` stacks for a stack.
        Returns the solution in the same block layout.
        """
        n = self.n_blocks
        if len(rhs_blocks) != n:
            raise ValueError(f"expected {n} RHS blocks, got {len(rhs_blocks)}")
        dinv, neg_p = self._dinv, self._neg_p
        # forward substitution: y_i = b_i - L_i,i-1 dinv_{i-1} y_{i-1}
        y = [np.asarray(rhs_blocks[0], dtype=complex)]
        for i in range(1, n):
            step = _matmul(self._lower[i - 1], _matmul(dinv[i - 1], y[i - 1]))
            y.append(np.asarray(rhs_blocks[i], dtype=complex) - step)
        # backward: x_N = dinv_N y_N; x_i = dinv_i y_i - P_i x_{i+1}
        x = [None] * n
        x[n - 1] = _matmul(dinv[n - 1], y[n - 1])
        for i in range(n - 2, -1, -1):
            x[i] = _matmul(dinv[i], y[i]) + _matmul(neg_p[i], x[i + 1])
        r = 1 if y[0].ndim == 1 else int(y[0].shape[-1])
        self._charge("block_lu.solve", _substitution_flops, r)
        return x

    def _blocks(self, column):
        """Per-slab row-block views of a ``(..., sum(sizes), r)`` array."""
        return [column[..., lo:hi, :] for lo, hi in self._rows]

    def solve_block_column(self, j: int):
        """Blocks of the j-th block column of A^{-1} (row-block views of
        :meth:`block_column`)."""
        return self._blocks(self.block_column(j))

    def block_column(self, j: int, rhs=None):
        """The j-th block column of A^{-1} as one ``(..., sum(sizes), m_j)``
        array — or, given ``rhs``, its product with a ``(..., m_j, r)``
        right-hand side supported on block j alone.

        Equivalent to ``solve`` with the identity (or ``rhs``) in block j
        and zeros elsewhere, but skips the zero blocks of the forward pass
        above j, where the backward sweep is the bare ``-P_i x_{i+1}``.
        The identity column sweeps forward with the stored ``-Q``; a
        supplied ``rhs`` keeps the two thin products ``L (dinv y)`` — its
        r columns never pay for the m^3 ``Q``.  The backward sweep writes
        each block product straight into its rows, so a caller
        contracting the whole column copies nothing.
        """
        n = self.n_blocks
        if not 0 <= j < n:
            raise IndexError(f"block column {j} out of range")
        supplied = rhs is not None
        if not supplied:
            m = int(self.sizes[j])
            rhs = np.ascontiguousarray(np.broadcast_to(
                np.eye(m, dtype=complex), self._batch + (m, m)
            ))
        r = rhs.shape[-1]
        dinv, neg_p = self._dinv, self._neg_p
        y = [None] * n
        y[j] = rhs
        for i in range(j + 1, n):  # y_i = -L_{i-1} dinv_{i-1} y_{i-1}
            if supplied:
                y[i] = _matmul(-self._lower[i - 1], _matmul(dinv[i - 1], y[i - 1]))
            else:
                y[i] = _matmul(self._neg_q[i - 1], y[i - 1])
        column = np.empty(self._batch + (self._rows[-1][1], r), dtype=complex)
        x = self._blocks(column)
        _matmul(dinv[n - 1], y[n - 1], out=x[n - 1])
        for i in range(n - 2, -1, -1):  # x_i = dinv_i y_i - P_i x_{i+1}
            _matmul(neg_p[i], x[i + 1], out=x[i])
            if y[i] is not None:
                x[i] += _matmul(dinv[i], y[i])
        self._charge("block_lu.column", _substitution_flops, r, j)
        return column

    def diagonal_of_inverse(self):
        """Diagonal blocks of A^{-1} (the RGF backward recursion).

        G_{NN} = dinv_N;
        G_{ii} = dinv_i + dinv_i U_i G_{i+1,i+1} L_i dinv_i
               = dinv_i + P_i G_{i+1,i+1} Q_i   (two products a slab).
        """
        n = self.n_blocks
        neg_p, neg_q = self._neg_p, self._neg_q
        G = [None] * n
        G[n - 1] = self._dinv[n - 1].copy()
        for i in range(n - 2, -1, -1):
            G[i] = self._dinv[i] + _matmul(_matmul(neg_p[i], G[i + 1]), neg_q[i])
        self._charge("block_lu.diagonal", _diagonal_flops)
        return G

    def corner_block(self, which: str = "lower-left"):
        """The (N-1, 0) or (0, N-1) block of A^{-1} (transmission needs it).

        ``lower-left`` returns G_{N-1,0}; ``upper-right`` returns G_{0,N-1}.
        Computed from one block-column solve.
        """
        if which == "lower-left":
            return self.solve_block_column(0)[self.n_blocks - 1]
        if which == "upper-right":
            return self.solve_block_column(self.n_blocks - 1)[0]
        raise ValueError("which must be 'lower-left' or 'upper-right'")


#: The same class, under the name ``benchmarks/e2e`` imports for stacks.
BatchedBlockTridiagLU = BlockTridiagLU
