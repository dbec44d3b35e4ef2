"""Schur-complement domain decomposition for block-tridiagonal systems.

This is the spatial-parallelism solver of the reproduction — the algorithm
of the authors' precursor paper (Luisier, Klimeck, Schenk, Fichtner &
Boykin, "A Parallel Sparse Linear Solver for Nearest-Neighbor Tight-Binding
Problems", Euro-Par 2008) and the fourth parallelisation level of the SC'11
system:

1. the N slabs are split into P contiguous *domains* separated by single
   *separator* slabs;
2. each domain interior is factored independently (embarrassingly parallel
   across ranks — this is where the spatial MPI level earns its speedup);
3. a reduced block-tridiagonal *interface system* over the P-1 separators
   is assembled from interior corner inverses and solved;
4. interiors back-substitute independently.

The arithmetic is identical to a monolithic :class:`BlockTridiagLU` solve
(the tests verify bit-level agreement to solver tolerance); only the
elimination *order* changes.  The parallel runtime executes step 2 and 4
concurrently; the perf model charges the interface solve as the serial
fraction.
"""

from __future__ import annotations

import numpy as np

from ..observability.telemetry import get_monitor, get_tracer, trace_span
from ..perf.flops import zgemm_flops
from .block_tridiagonal import BlockTridiagLU, block_product

__all__ = ["SplitSolve", "partition_domains"]


def _chain(a, b, c):
    """The left-to-right triple product ``(a @ b) @ c`` of a corner block
    ``b`` between two couplings, either of which may be 0-d (``c·I``)."""
    return block_product(block_product(a, b), c)


def _chain2_flops(rows: int, b, cols: int) -> float:
    """Flops of ``(a @ b) @ c`` for a ``rows``-row ``a`` and a ``cols``-column
    ``c`` — the reference GEMMs, whatever form the couplings take."""
    return zgemm_flops(rows, b.shape[1], b.shape[0]) + zgemm_flops(
        rows, cols, b.shape[1]
    )


def partition_domains(n_blocks: int, n_domains: int) -> list[tuple[int, int]]:
    """Split blocks 0..N-1 into P domains + P-1 single-slab separators.

    Returns the list of inclusive (first, last) interior ranges; separator
    p is the slab ``last_p + 1``.  Requires ``N >= 2 P - 1`` so every
    interior holds at least one slab.
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    if n_blocks < 2 * n_domains - 1:
        raise ValueError(
            f"{n_blocks} blocks cannot host {n_domains} domains "
            f"(need >= {2 * n_domains - 1})"
        )
    interior_total = n_blocks - (n_domains - 1)
    base = interior_total // n_domains
    extra = interior_total % n_domains
    ranges = []
    start = 0
    for p in range(n_domains):
        size = base + (1 if p < extra else 0)
        ranges.append((start, start + size - 1))
        start += size + 1  # skip the separator slab
    return ranges


class SplitSolve:
    """Two-level (domains + interface) solver for block-tridiagonal A.

    Parameters
    ----------
    diag, upper, lower : lists of ndarray
        Blocks of A (``lower=None`` means hermitian coupling); a coupling
        may be the 0-d complex ``c`` of the block ``c·I``, as
        :func:`repro.negf.assemble_system_blocks` gives a grid device's.
    n_domains : int
        Number of spatial domains P.  ``P=1`` degenerates to the monolithic
        block LU.
    """

    def __init__(self, diag, upper, lower=None, n_domains: int = 2):
        n = len(diag)
        self._upper = [np.asarray(u, dtype=complex) for u in upper]
        if lower is None:
            lower = [u.conj().T for u in self._upper]
        if len(upper) != n - 1 or len(lower) != n - 1:
            raise ValueError("need N-1 upper and lower blocks")
        self.n_blocks = n
        self.n_domains = n_domains
        self.sizes = np.array([d.shape[0] for d in diag])
        self._diag = [np.asarray(d, dtype=complex) for d in diag]
        self._lower = [np.asarray(l, dtype=complex) for l in lower]

        self.interiors = partition_domains(n, n_domains)
        self.separators = [last + 1 for (first, last) in self.interiors[:-1]]

        # --- step 1-2: factor interiors (parallel across domains) ---------
        self._lu: list[BlockTridiagLU] = []
        self._corners: list[dict] = []
        with trace_span(
            "splitsolve.domain", category="kernel", n_domains=n_domains
        ):
            for first, last in self.interiors:
                lu = BlockTridiagLU(
                    self._diag[first : last + 1],
                    self._upper[first:last],
                    self._lower[first:last],
                )
                self._lu.append(lu)
                col_first = lu.solve_block_column(0)
                col_last = (
                    lu.solve_block_column(lu.n_blocks - 1)
                    if lu.n_blocks > 1
                    else col_first
                )
                self._corners.append(
                    {
                        "ll": col_first[0],
                        "rl": col_first[-1],
                        "lr": col_last[0],
                        "rr": col_last[-1],
                    }
                )

        # --- step 3: reduced interface system over separators --------------
        if self.separators:
            schur_fl = 0.0
            with trace_span("splitsolve.interface", category="kernel"):
                s_diag, s_upper, s_lower = [], [], []
                for p, g in enumerate(self.separators):
                    f_p = self.interiors[p][1]  # last interior slab left of g
                    left, right = self._corners[p], self._corners[p + 1]
                    L_left = self._lower[f_p]  # A_{g, f_p}
                    U_left = self._upper[f_p]  # A_{f_p, g}
                    U_right = self._upper[g]  # A_{g, g+1}
                    L_right = self._lower[g]  # A_{g+1, g}
                    s_diag.append(
                        self._diag[g]
                        - _chain(L_left, left["rr"], U_left)
                        - _chain(U_right, right["ll"], L_right)
                    )
                    m_g = self._diag[g].shape[0]
                    schur_fl += _chain2_flops(m_g, left["rr"], m_g)
                    schur_fl += _chain2_flops(m_g, right["ll"], m_g)
                    if p + 1 < len(self.separators):
                        f_next = self.interiors[p + 1][1]
                        U_next = self._upper[f_next]  # A_{f_next, g_{p+1}}
                        L_next = self._lower[f_next]  # A_{g_{p+1}, f_next}
                        s_upper.append(-_chain(U_right, right["lr"], U_next))
                        s_lower.append(-_chain(L_next, right["rl"], L_right))
                        m_next = self._diag[self.separators[p + 1]].shape[0]
                        schur_fl += _chain2_flops(m_g, right["lr"], m_next)
                        schur_fl += _chain2_flops(m_next, right["rl"], m_g)
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.add_flops("splitsolve.schur", schur_fl)
                self._interface_lu = BlockTridiagLU(s_diag, s_upper, s_lower)
        else:
            self._interface_lu = None

    # ------------------------------------------------------------------
    def solve(self, rhs_blocks):
        """Solve A x = b; same block layout as the monolithic solver."""
        n = self.n_blocks
        if len(rhs_blocks) != n:
            raise ValueError(f"expected {n} RHS blocks, got {len(rhs_blocks)}")
        rhs = [np.asarray(b, dtype=complex) for b in rhs_blocks]

        # interior pre-solves (parallel)
        y = [None] * self.n_domains
        with trace_span("splitsolve.domain", category="kernel"):
            for p, (first, last) in enumerate(self.interiors):
                y[p] = self._lu[p].solve(rhs[first : last + 1])

        if self._interface_lu is None:
            get_monitor().check_finite(y[0], kernel="splitsolve")
            return y[0]

        # interface RHS
        with trace_span("splitsolve.interface", category="kernel"):
            s_rhs = []
            for p, g in enumerate(self.separators):
                f_p = self.interiors[p][1]
                r = (
                    rhs[g]
                    - block_product(self._lower[f_p], y[p][-1])
                    - block_product(self._upper[g], y[p + 1][0])
                )
                s_rhs.append(r)
            x_sep = self._interface_lu.solve(s_rhs)

        # interior back-substitution (parallel)
        x = [None] * n
        with trace_span("splitsolve.domain", category="kernel"):
            for p, (first, last) in enumerate(self.interiors):
                correction = [np.zeros_like(b) for b in rhs[first : last + 1]]
                if p > 0:
                    g_left = self.separators[p - 1]
                    correction[0] = block_product(
                        self._lower[g_left], x_sep[p - 1]
                    )
                if p < self.n_domains - 1:
                    g_right = self.separators[p]
                    correction[-1] = correction[-1] + block_product(
                        self._upper[last], x_sep[p]
                    )
                delta = self._lu[p].solve(correction)
                for k in range(last - first + 1):
                    x[first + k] = y[p][k] - delta[k]
        for p, g in enumerate(self.separators):
            x[g] = x_sep[p]
        get_monitor().check_finite(x, kernel="splitsolve")
        return x
