"""Block-tridiagonal LU factorisation, solves and selected inversion.

This is the computational core of the recursive Green's function (RGF)
method: for A = (E - H - Sigma) in slab block form,

* :class:`BlockTridiagLU` factors A — one matrix, or a whole stack of
  energies at once — (forward block elimination, O(N m^3)) and then
* solves for arbitrary right-hand sides or single block columns
  (O(N m^2) per RHS vector), and
* produces the *diagonal blocks of A^{-1}* without ever forming the full
  inverse (the "selected inversion" recursion — the RGF backward sweep,
  which the transport kernel does not run: its observables need only the
  two edge block columns).

Everything is dense per block (numpy/LAPACK); each operation charges the
flop count of its reference algorithm through :mod:`repro.perf` hooks
(PAPER.md: "we count the same flops analytically per algorithm"), so the
performance model's totals do not move when the class reuses a product.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..observability.telemetry import get_tracer
from ..perf.flops import zgemm_flops, zinverse_flops
from ..resilience.health import get_sentinel, norm1

__all__ = [
    "BatchedBlockTridiagLU", "BlockTridiagLU", "Couplings", "block_product",
]

#: Every block product of :class:`BlockTridiagLU` goes through this name,
#: so a test can count them by patching it.  A product whose contracted
#: dimension is 1 (every product of a chain's 1x1 blocks) stays a
#: ``matmul``: ``np.multiply`` is 3-4x cheaper there, but numpy's complex
#: multiply rounds a length-1 stack with an aliased output unfused and a
#: longer one with FMA (numpy 2.4, AVX-512F), so an energy's bits would
#: depend on its stack.
_matmul = np.matmul


def block_product(a, b, out=None):
    """``a @ b`` through :data:`_matmul`, or a multiply when either factor
    is a 0-d coupling ``c`` (the block ``c·I``), into ``out`` if given.

    The one product with a coupling block: the LU, the WF interface
    currents and :class:`repro.solvers.splitsolve.SplitSolve` all go through it, so
    no caller has to know which representation a coupling has.
    """
    if a.ndim and b.ndim:
        return _matmul(a, b, out=out)
    return np.multiply(a, b, out=out)


def _coupling(c):
    """A coupling as complex128: a contiguous matrix, or a 0-d scalar."""
    return np.ascontiguousarray(c, complex) if np.ndim(c) else np.complex128(c)


class Couplings(list):
    """Coupling blocks in the form :class:`BlockTridiagLU` multiplies by —
    contiguous complex128 matrices, or the 0-d complex128 ``c`` of the
    block ``c·I`` — with their negations (:attr:`negated`, formed the
    first time a factorisation reads them).

    A kernel stage's couplings do not depend on the energy: a Hamiltonian
    skeleton builds its pair once (a Hamiltonian's ``system_couplings``,
    ``repro.tb.hamiltonian.lu_couplings``) and every factorisation of
    its stages takes them as they are; any other sequence of blocks is
    converted on entry.
    """

    def __init__(self, blocks=()):
        super().__init__(map(_coupling, blocks))

    @cached_property
    def negated(self) -> list:
        """``-c`` of every block, in order."""
        return [-c for c in self]


def _inverse(schur) -> np.ndarray:
    """``inv`` of a Schur complement (stack); 1x1 blocks are a reciprocal,
    which raises on an exact zero as LAPACK does (callers silence the
    warnings LAPACK never emits)."""
    if schur.shape[-1] != 1:
        return np.linalg.inv(schur)
    if not schur.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return np.reciprocal(schur)


def _factor_health_check(diag, dinv) -> None:
    """Health sentinel (site ``block_lu``) for a completed elimination.

    The Schur-complement inverses are already in hand, so the 1-norm
    condition estimate ``||A_ii||_1 * ||schur_i^-1||_1`` is essentially
    free (``diag[i]`` stands in for the Schur complement itself, a
    faithful proxy: an exploding ``dinv`` dominates the product either
    way).  One matrix and a stack are guarded by the same vectorised
    calls; a failing slice is judged by its worst slab, and each kind of
    failure trips once, counting the slices it covers — ``nonfinite`` on
    NaN/Inf factors (or estimates), ``ill_conditioned`` past the sentinel
    threshold at the worst such estimate — so the ledger counts energies,
    the same however a wave was split into stacks; raises in strict
    mode.  Finiteness is read off the norms: only a failing stack pays a
    second look at which factor caused it.  A factor held as one
    ``(N, ..., 1, 1)`` array (``dinv`` of uniform 1x1 blocks) is normed
    whole, in one call; blocks of m > 1 are normed slab by slab, so no
    temporary the size of the factor is formed.
    """
    sentinel = get_sentinel()
    if not sentinel.enabled:
        return
    if isinstance(dinv, np.ndarray):
        d, v = norm1(np.asarray(diag)), norm1(dinv)
    else:
        d, v = (np.array([norm1(b) for b in x]) for x in (diag, dinv))
    with np.errstate(invalid="ignore"):  # inf * 0 -> nan -> reported inf
        worst = np.ravel(np.maximum.reduce(d * v))  # per slice, worst slab
    bad = ~(worst <= sentinel.COND_THRESHOLD)  # NaN is bad too
    if not bad.any():
        return
    factor_ok = np.ravel(np.isfinite(v).all(axis=0))
    finite = np.isfinite(worst)
    for kind, hit, value, detail in (
        ("nonfinite", bad & ~factor_ok, np.nan, "non-finite LU factor block"),
        ("nonfinite", ~finite & factor_ok, np.inf, "block-LU factor"),
        ("ill_conditioned", bad & finite, None, "block-LU factor"),
    ):
        if hit.any():
            sentinel.trip(
                "block_lu", kind, worst[hit].max() if value is None else value,
                detail, count=int(np.count_nonzero(hit)),
            )


def _factor_flops(sizes) -> float:
    """Forward elimination of one matrix at (possibly ragged) ``sizes``.

    Per block: 1 inversion; blocks after the first add the two
    elimination GEMMs (dinv @ upper then lower @ product) — what executes
    on matrix couplings; on 0-d ones both are multiplies, and the charge
    stays the reference.
    """
    fl = zinverse_flops(sizes[0])
    for a, b in zip(sizes[:-1], sizes[1:]):
        fl += zgemm_flops(a, b, a) + zgemm_flops(b, b, a) + zinverse_flops(b)
    return fl


def _substitution_flops(sizes, r: int, j: int = 0) -> float:
    """Forward/backward substitution of ``r`` columns supported on block
    ``j`` and below (``j = 0``: a generic RHS) for one matrix.

    The reference sweep, which reuses nothing of the factor.  Forward
    below j: dinv_{i-1} @ y then lower @ (.); backward: one GEMM on the
    last block, then upper @ x and dinv @ (.) per remaining block.  The
    class executes fewer (the multipliers ``P`` / ``Q``: one product a
    block above j, one forward product for an identity column); the
    charge stays the reference so ``perf.flops_total`` compares across
    versions.
    """
    fl = zgemm_flops(sizes[-1], r, sizes[-1])
    for a, b in zip(sizes[j:-1], sizes[j + 1 :]):
        fl += zgemm_flops(a, r, a) + zgemm_flops(b, r, a)
    for a, b in zip(sizes[:-1], sizes[1:]):
        fl += zgemm_flops(a, r, b) + zgemm_flops(a, r, a)
    return fl


def _diagonal_flops(sizes) -> float:
    """Selected inversion of one matrix, reference form:
    ``(((di @ U) @ G) @ L) @ di`` evaluated left to right, per block but
    the last — four products where ``(P @ G) @ Q`` executes two."""
    fl = 0.0
    for a, b in zip(sizes[:-1], sizes[1:]):
        fl += (
            zgemm_flops(a, b, a)
            + zgemm_flops(a, b, b)
            + zgemm_flops(a, a, b)
            + zgemm_flops(a, a, a)
        )
    return fl


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
    reads the same blocks — backward ``x_i = dinv_i y_i - P_i x_{i+1}``,
    identity-column forward ``y_i = -Q_{i-1} y_{i-1}``, ``G_ii = dinv_i +
    P_i G_{i+1,i+1} Q_i`` — so one RGF kernel stage (factor and both edge
    columns) issues 7 block products a slab, and the selected inversion
    2 more.  A coupling given as a 0-d complex ``c`` (the block ``c·I``:
    every effective-mass grid device) is a multiply wherever it enters —
    the Schur update, a supplied right-hand side's forward step — and the
    first column's backward step is ``x_i = dinv_i (y_i - c x_{i+1})``: 3
    block products a slab for the stage.  Its ``P_i`` and ``Q_i`` are the
    scaled copies ``c dinv_i``, which are not kept but formed (one
    multiply) where a sweep reads them, so the factor of a grid device
    holds one slab-set of blocks, ``dinv``.
    A 1x1 Schur complement is inverted by a reciprocal, not a LAPACK call;
    when every block is 1x1 (the chains) the factor is one ``(N, B, 1,
    1)`` array ``dinv`` and the Schur complements another while
    factoring, so the exact-zero test (``LinAlgError``, as LAPACK raises)
    and the health check run once over the whole factor, not per slab.
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
    * :meth:`diagonal_of_inverse` — the diagonal blocks of A^{-1} (the
      selected inversion).

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
        transport case), 0-d complex ``c`` for the block ``c·I``, or
        per-slice 3-D stacks.  ``lower`` may be None for the
        Hermitian-coupling case ``A_{i+1,i} = upper[i]^+`` — note
        A itself need not be Hermitian (it isn't: E - H - Sigma has
        complex self-energies).  :class:`Couplings` (a Hamiltonian's
        ``system_couplings``) are taken as they are; other blocks are
        converted on entry.
    instrument : bool
        False charges no ``block_lu.*`` flops (the WF kernel charges its
        own Gordon Bell counts on top of this class).

    Flop accounting: every method charges ``batch_size`` times the
    per-matrix count of the *reference* sweep (no multiplier reused: 12
    products a slab for the RGF stage where 7 or 3 execute) at the actual
    (possibly ragged) block sizes, so a charge does not depend on what a
    call found already stored;
    :func:`repro.observability.validate.validate_flops` pins one matrix and a
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
            lower = [np.conj(np.swapaxes(u, -2, -1) if np.ndim(u) else u)
                     for u in upper]
        if len(upper) != n - 1 or len(lower) != n - 1:
            raise ValueError("need N-1 upper and lower blocks")
        self.n_blocks = n
        self.sizes = np.array([np.asarray(d).shape[-1] for d in diag])
        offsets = [0, *np.cumsum(self.sizes).tolist()]
        self._rows = list(zip(offsets[:-1], offsets[1:]))
        self._upper, self._lower = (c if isinstance(c, Couplings)
                                    else Couplings(c) for c in (upper, lower))
        # forward elimination: d_i = A_ii + L_{i-1} (-P_{i-1}).  A matrix
        # coupling's multiplier is kept (negated on the small coupling
        # block, so no sweep negates a product); of a 0-d one only -c is
        # kept, the scaled copy -P_i = dinv_i (-c) is formed where read.
        # Uniform 1x1 blocks (the chains) are eliminated into two whole
        # (N, B, 1, 1) arrays, the Schur complements and their
        # reciprocals: one exact-zero test and one health check cover the
        # factor.  Non-finite blocks propagate quietly, as through
        # LAPACK/BLAS.
        scalar = bool((self.sizes == 1).all())
        if scalar:
            schur, dinv = np.empty((2, n) + self._batch + (1, 1), complex)
            schur[0] = diag[0]
        else:
            dinv = []
        self._dinv, self._neg_p = dinv, []
        with np.errstate(all="ignore"):
            s = schur[0] if scalar else np.ascontiguousarray(diag[0], complex)
            for i in range(n):
                if i:
                    s = np.add(diag[i],
                               block_product(self._lower[i - 1], neg_p),
                               out=schur[i] if scalar else None)
                if scalar:
                    np.reciprocal(s, out=dinv[i])
                else:
                    dinv.append(_inverse(s))
                if i == n - 1:
                    break
                neg_c = self._upper.negated[i]
                neg_p = block_product(dinv[i], neg_c)
                self._neg_p.append(neg_p if neg_c.ndim else neg_c)
        if scalar and not schur.all():
            raise np.linalg.LinAlgError("Singular matrix")
        _factor_health_check(diag, dinv)
        self._charge("block_lu.factor", _factor_flops)

    def _charge(self, kernel: str, flops, *args) -> None:
        """Charge ``batch_size * flops(sizes, *args)`` to a live tracer."""
        tracer = get_tracer()
        if tracer.enabled and self._instrument:
            fl = flops(self.sizes.tolist(), *args)
            tracer.add_flops(kernel, self.batch_size * fl)

    def _p(self, i: int):
        """``-P_i = -dinv_i U_i``: kept, or formed here on a 0-d coupling."""
        p = self._neg_p[i]
        return p if p.ndim else self._dinv[i] * p

    @cached_property
    def _neg_q(self) -> list:
        """``-Q_i = -L_i @ dinv_i`` on the matrix couplings (``-c`` on a
        0-d one), formed the first time an identity column or the
        selected inversion reads them."""
        return [_matmul(l, d) if l.ndim else l
                for l, d in zip(self._lower.negated, self._dinv)]

    def _q(self, i: int):
        """``-Q_i``: kept, or formed here on a 0-d coupling."""
        q = self._neg_q[i]
        return q if q.ndim else q * self._dinv[i]

    def _back_substitute(self, y, j: int, out):
        """Backward sweep into the blocks ``out`` (None: new arrays):
        ``x_{N-1} = dinv_{N-1} y_{N-1}``, then ``x_i = dinv_i y_i - P_i
        x_{i+1}`` — on a 0-d coupling ``c`` the one product ``dinv_i (y_i
        - c x_{i+1})`` — and the bare ``-P_i x_{i+1}`` above block j,
        where ``y`` is zero.  ``out`` may be ``y`` itself: each ``y_i`` is
        read before ``x_i`` is written."""
        dinv = self._dinv
        out[-1] = _matmul(dinv[-1], y[-1], out=out[-1])
        for i in range(self.n_blocks - 2, -1, -1):
            c = self._upper[i]
            if i < j:
                out[i] = _matmul(self._p(i), out[i + 1], out=out[i])
            elif not c.ndim:
                out[i] = _matmul(dinv[i], y[i] - c * out[i + 1], out=out[i])
            else:
                out[i] = np.add(_matmul(dinv[i], y[i]),
                                _matmul(self._p(i), out[i + 1]), out=out[i])
        return out

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
        # forward substitution: y_i = b_i - L_i,i-1 dinv_{i-1} y_{i-1}
        y = [np.asarray(rhs_blocks[0], dtype=complex)]
        for i in range(1, n):
            step = block_product(
                self._lower[i - 1], _matmul(self._dinv[i - 1], y[i - 1])
            )
            y.append(np.asarray(rhs_blocks[i], dtype=complex) - step)
        r = 1 if y[0].ndim == 1 else int(y[0].shape[-1])
        self._charge("block_lu.solve", _substitution_flops, r)
        return self._back_substitute(y, 0, [None] * n)

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
        The identity column sweeps forward with ``-Q``; a supplied
        ``rhs`` keeps the two thin products ``L (dinv y)`` — its r columns
        never pay for the m^3 ``Q``.  Both sweeps write each block straight
        into its rows of the returned array (the forward ``y_i``, then
        ``x_i`` over it), so the column is the only column-sized array.
        """
        n = self.n_blocks
        if not 0 <= j < n:
            raise IndexError(f"block column {j} out of range")
        supplied = rhs is not None
        r = rhs.shape[-1] if supplied else int(self.sizes[j])
        column = np.empty(self._batch + (self._rows[-1][1], r), dtype=complex)
        x = self._blocks(column)
        x[j][...] = rhs if supplied else np.eye(r)
        for i in range(j + 1, n):  # y_i = -L_{i-1} dinv_{i-1} y_{i-1}
            if supplied:
                block_product(-self._lower[i - 1],
                              _matmul(self._dinv[i - 1], x[i - 1]), out=x[i])
            else:
                _matmul(self._q(i - 1), x[i - 1], out=x[i])
        self._back_substitute(x, j, x)
        self._charge("block_lu.column", _substitution_flops, r, j)
        return column

    def diagonal_of_inverse(self):
        """Diagonal blocks of A^{-1} in slab order (the RGF backward
        recursion, last block first):

        G_{NN} = dinv_N;
        G_{ii} = dinv_i + dinv_i U_i G_{i+1,i+1} L_i dinv_i
               = dinv_i + P_i G_{i+1,i+1} Q_i   (two products a slab).
        """
        self._charge("block_lu.diagonal", _diagonal_flops)
        g = [self._dinv[-1].copy()]
        for i in range(self.n_blocks - 2, -1, -1):
            g.append(self._dinv[i]
                     + _matmul(_matmul(self._p(i), g[-1]), self._q(i)))
        return g[::-1]


#: The same class, under the name ``benchmarks/e2e`` imports for stacks.
BatchedBlockTridiagLU = BlockTridiagLU
