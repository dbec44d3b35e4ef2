"""Analytic flop counts of every transport kernel.

The paper's headline number is *sustained Flop/s* = (counted flops) /
(wall time); the flops are counted analytically from the algorithm, exactly
as done here (the Gordon Bell convention).  Counts are in REAL flops; one
complex multiply-add = 8 real flops, so a complex m x m x m GEMM costs
8 m^3.

The formulas are those of the *reference* block-tridiagonal algorithms
(:class:`repro.solvers.BlockTridiagLU`, :class:`repro.negf.RGFSolver`,
:class:`repro.wf.WFSolver`): every sweep written out with no product
reused.  The same call sites are instrumented to report what they charge
to :mod:`repro.observability`, and
:func:`repro.observability.validate.validate_flops` (exercised by
``tests/test_observability.py``) asserts analytic == charged **exactly**
at small sizes for the RGF and WF kernels — a check of the accounting,
not of executed GEMMs.  Two kernels undercut their charge: the RGF stage
forms each elimination multiplier once, multiplies by a ``c·I`` coupling
instead of a GEMM and reads the LDOS off the two contact spectral
densities, while still charging the selected inversion it stands for (of
the 12 products a slab charged by :func:`rgf_solve_flops`, 7 execute on
matrix couplings — every atomistic device — and 3 on the scalar
couplings of the effective-mass grid family), and the
Sancho-Rubio step shares two left factors (:func:`sancho_rubio_flops`).
A scalar-coupled lead takes no step at all: its surface GF is the closed
form of its mode basis, and it is charged the closing inversion alone —
while the transport driver charges every energy a nominal 25 steps on
both leads (``_KPoint._store`` in :mod:`repro.core.transport`), whatever
the leads took.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "zgemm_flops",
    "zlu_flops",
    "zinverse_flops",
    "block_lu_factor_flops",
    "block_lu_solve_flops",
    "block_column_solve_flops",
    "diagonal_inverse_flops",
    "rgf_solve_flops",
    "wf_factor_flops",
    "wf_backsub_flops",
    "wf_solve_flops",
    "sancho_rubio_flops",
    "splitsolve_flops",
    "FlopCounter",
]


def zgemm_flops(m: int, n: int, k: int) -> float:
    """Complex GEMM (m x k) @ (k x n): 8 m n k real flops.

    Example
    -------
    >>> zgemm_flops(2, 3, 4)
    192.0
    """
    return 8.0 * m * n * k


def zlu_flops(n: int) -> float:
    """Complex LU factorisation of an n x n block: (8/3) n^3.

    Example
    -------
    >>> zlu_flops(3)
    72.0
    """
    return 8.0 / 3.0 * n**3


def zinverse_flops(n: int) -> float:
    """Complex inversion (getrf + getri): 8 n^3.

    Example
    -------
    >>> zinverse_flops(2)
    64.0
    """
    return 8.0 * n**3


def block_lu_factor_flops(n_blocks: int, m: int) -> float:
    """Forward elimination of :class:`repro.solvers.BlockTridiagLU`.

    Per interior block: one inversion (8 m^3) and two GEMMs
    (dinv @ upper, lower @ (.)): 24 m^3 total; the first block needs only
    its inversion.

    Example
    -------
    >>> block_lu_factor_flops(1, 2) == zinverse_flops(2)
    True
    >>> block_lu_factor_flops(3, 2) == 64 + 2 * (64 + 2 * 64)
    True
    """
    if n_blocks < 1:
        raise ValueError("need at least one block")
    return zinverse_flops(m) + (n_blocks - 1) * (
        zinverse_flops(m) + 2 * zgemm_flops(m, m, m)
    )


def block_lu_solve_flops(n_blocks: int, m: int, n_rhs: int = 1) -> float:
    """Generic multi-RHS solve: (4 N - 3) GEMMs of 8 m^2 n_rhs each.

    As coded in :meth:`repro.solvers.BlockTridiagLU.solve`: the forward
    substitution does 2 GEMMs per block after the first, the backward pass
    1 GEMM for the last block and 2 for each of the others.

    Example
    -------
    >>> block_lu_solve_flops(4, 3, n_rhs=2) == (4 * 4 - 3) * 8 * 9 * 2
    True
    """
    return (4 * n_blocks - 3) * zgemm_flops(m, n_rhs, m)


def block_column_solve_flops(n_blocks: int, m: int, column: int = 0) -> float:
    """One block-column solve of A^{-1} (m RHS), reference GEMM count.

    The substitution written out against the factor alone (what
    :meth:`repro.solvers.BlockTridiagLU.solve_block_column` charges; it
    executes fewer by reading the stored multipliers): the forward pass
    below block ``column`` does 2 GEMMs per block
    (2 (N - 1 - j)), the backward pass 1 GEMM for the last block plus
    2 per remaining block (2 (N - 1) + 1) — a total of (4 N - 3 - 2 j)
    GEMMs of 8 m^3 each.  The first column (j = 0, the RGF "G_{i,0}"
    sweep) is the most expensive; the last (j = N - 1) skips the whole
    forward pass.

    Example
    -------
    >>> block_column_solve_flops(4, 2, column=0) == 13 * zgemm_flops(2, 2, 2)
    True
    >>> block_column_solve_flops(4, 2, column=3) == 7 * zgemm_flops(2, 2, 2)
    True
    """
    if not 0 <= column < n_blocks:
        raise ValueError(f"column {column} out of range for {n_blocks} blocks")
    n_gemm = 2 * (n_blocks - 1 - column) + 2 * (n_blocks - 1) + 1
    return n_gemm * zgemm_flops(m, m, m)


def diagonal_inverse_flops(n_blocks: int, m: int) -> float:
    """Backward selected-inversion recursion: 4 GEMMs per interior block.

    The reference form :meth:`repro.solvers.BlockTridiagLU.
    diagonal_of_inverse` charges: G_{NN} is a copy (no flops); each of the
    N - 1 remaining blocks evaluates ``di @ U @ G @ L @ di``
    left-to-right — 4 GEMMs of 8 m^3 (2 execute: ``P @ G @ Q`` on the
    stored multipliers).  The RGF kernel stage charges it for the LDOS
    it reads off ``A_L + A_R`` and executes none of it.

    Example
    -------
    >>> diagonal_inverse_flops(1, 5)
    0.0
    >>> diagonal_inverse_flops(3, 2) == 8 * zgemm_flops(2, 2, 2)
    True
    """
    return (n_blocks - 1) * 4 * zgemm_flops(m, m, m)


def rgf_solve_flops(n_blocks: int, m: int) -> float:
    """Full RGF solve: factor + first/last block columns + diagonal sweep.

    This is the per-(k, E) cost of :meth:`repro.negf.RGFSolver.solve`,
    excluding the contact surface GFs (counted separately).  For uniform
    blocks it reduces to (13 N - 10) * 8 m^3 — the O(N m^3) law of the
    recursion.  This is the reference sweep: N inversions and
    12 (N - 1) + 2 products, of which 7 (N - 1) + 2 execute since the
    block LU forms ``dinv @ U`` and ``L @ dinv`` once and the LDOS is
    read off the two edge columns, not a selected inversion —
    3 (N - 1) + 2 on ``c·I`` couplings, which it multiplies by.
    :func:`repro.observability.validate.validate_rgf_flops` checks the charge of
    an instrumented solve against it, term for term.

    Example
    -------
    >>> rgf_solve_flops(4, 3) == (13 * 4 - 10) * 8 * 27
    True
    """
    return (
        block_lu_factor_flops(n_blocks, m)
        + block_column_solve_flops(n_blocks, m, column=0)
        + block_column_solve_flops(n_blocks, m, column=n_blocks - 1)
        + diagonal_inverse_flops(n_blocks, m)
    )


def wf_factor_flops(n_blocks: int, m: int) -> float:
    """Block LU factorisation *without* inverses (the WF advantage).

    Per block: one LU ((8/3) m^3) and two triangular multi-solves against
    the coupling blocks (2 * 8 m^3 * m / m = 2 * 8 m^3 in GEMM-equivalents
    /3 for triangular): modelled as (8/3 + 16/3) m^3 = 8 m^3 per block —
    roughly 3x cheaper than the inverse-based factorisation and the source
    of the WF-vs-RGF gap in experiment F2.

    Example
    -------
    >>> wf_factor_flops(4, 3)
    864.0
    """
    return n_blocks * 8.0 * m**3


def wf_backsub_flops(n_blocks: int, m: int, n_rhs: int) -> float:
    """Back-substitution for n_rhs injected channels: 16 m^2 per block each.

    Example
    -------
    >>> wf_backsub_flops(4, 3, 2)
    1152.0
    """
    return n_blocks * n_rhs * 16.0 * m**2


def wf_solve_flops(n_blocks: int, m: int, n_rhs: int) -> float:
    """Total WF cost per (k, E): factorisation + per-channel solves.

    Example
    -------
    >>> wf_solve_flops(4, 3, 2) == wf_factor_flops(4, 3) + wf_backsub_flops(4, 3, 2)
    True
    """
    return wf_factor_flops(n_blocks, m) + wf_backsub_flops(n_blocks, m, n_rhs)


def sancho_rubio_flops(m: int, n_iterations: int) -> float:
    """Decimation cost of the *reference* Sancho-Rubio step: per
    iteration one inversion and the four update products ``a @ g @ b`` of
    two GEMMs each, plus the final surface inversion.

    This is the algorithm's count at m, not the executed one (the Gordon
    Bell convention :meth:`repro.wf.WFSolver._charge_flops` follows too):
    the decimation loop (:func:`repro.negf.sancho_rubio_batch`) shares
    the two left factors ``alpha @ g`` and ``beta @ g`` and executes six
    GEMMs and one inversion a step.  A lead coupled by ``c I`` (the
    effective-mass grid family) reports 0 steps — its surface GF is the
    closed form of m scalar chains, one ``eigh``, O(m) elementwise work
    per energy and one rotating GEMM — and is charged
    ``sancho_rubio_flops(m, 0)``, the closing inversion.

    Example
    -------
    >>> sancho_rubio_flops(2, 3) == 3 * (64 + 8 * 64) + 64
    True
    """
    return (
        n_iterations * (zinverse_flops(m) + 8 * zgemm_flops(m, m, m))
        + zinverse_flops(m)
    )


def splitsolve_flops(n_blocks: int, m: int, n_domains: int) -> dict:
    """Cost split of the Schur-complement solver.

    Returns ``{"domain": parallel per-domain flops, "interface": serial
    reduced-system flops, "total": sum over all domains + interface}``.
    The domain term is what g_s spatial ranks execute concurrently; the
    interface term is the serial fraction that caps the spatial speedup
    (Amdahl behaviour reproduced in experiment F8/F6).

    Example
    -------
    >>> costs = splitsolve_flops(9, 2, 2)
    >>> costs["total"] == 2 * costs["domain"] + costs["interface"]
    True
    """
    if n_domains < 1:
        raise ValueError("need at least one domain")
    interior = n_blocks - (n_domains - 1)
    per_domain_blocks = max(interior // n_domains, 1)
    domain = (
        block_lu_factor_flops(per_domain_blocks, m)
        + block_column_solve_flops(per_domain_blocks, m, column=0)
        + block_column_solve_flops(
            per_domain_blocks, m, column=per_domain_blocks - 1
        )
    )
    n_sep = n_domains - 1
    interface = (
        block_lu_factor_flops(max(n_sep, 1), m) if n_sep else 0.0
    ) + n_sep * 6 * zgemm_flops(m, m, m)
    return {
        "domain": domain,
        "interface": interface,
        "total": n_domains * domain + interface,
    }


@dataclass
class FlopCounter:
    """Named accumulator for flop accounting across a run.

    Example
    -------
    >>> c = FlopCounter()
    >>> c.add("rgf", 100.0); c.add("rgf", 50.0); c.add("wf", 50.0)
    >>> c.total
    200.0
    >>> c.breakdown()[0]
    ('rgf', 150.0, 0.75)
    """

    counts: dict = field(default_factory=dict)

    def add(self, name: str, flops: float) -> None:
        """Accumulate ``flops`` under a kernel name."""
        if flops < 0:
            raise ValueError("flops must be non-negative")
        self.counts[name] = self.counts.get(name, 0.0) + float(flops)

    @property
    def total(self) -> float:
        """Sum over all kernels."""
        return float(sum(self.counts.values()))

    def breakdown(self) -> list:
        """(name, flops, fraction) rows sorted by cost, largest first."""
        total = self.total or 1.0
        rows = sorted(self.counts.items(), key=lambda kv: -kv[1])
        return [(k, v, v / total) for k, v in rows]

    def merge(self, other: "FlopCounter") -> None:
        """Fold another counter's totals into this one."""
        for k, v in other.counts.items():
            self.add(k, v)
