"""Cross-validation of analytic flop formulas against instrumented runs.

:mod:`repro.perf.flops` claims its formulas mirror the implemented
algorithms operation-for-operation.  This module makes that claim
*checkable*: each ``validate_*`` function runs a real kernel at a small
size under a fresh :class:`repro.observability.Tracer`, reads back the
flops the instrumented call sites actually reported, evaluates the
analytic formula for the same problem, and returns both numbers in a
:class:`FlopValidation`.  The counts must agree **exactly** (all terms
are integer-valued doubles far below 2^53, so float summation is exact);
``tests/test_observability.py`` asserts ``measured == analytic`` for the
RGF, WF and Sancho-Rubio kernels at several sizes.  The formulas are the
reference algorithms, not the executed ones — the RGF block-LU sweep is
charged 12 products a slab and executes 9 (5 on ``c·I`` couplings), the
Sancho-Rubio step is charged 8 GEMMs and an inversion at m and executes
6 and one (a scalar-coupled lead takes no step: its closed form is
charged the closing inversion alone) — so these checks pin the
accounting (what is charged, how often), not a GEMM count.

Imports of the kernel packages are deferred into the function bodies:
``repro.solvers`` itself imports :mod:`repro.observability` for its
instrumentation, so a module-level import here would be circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.flops import (
    rgf_solve_flops,
    sancho_rubio_flops,
    wf_backsub_flops,
    wf_factor_flops,
)
from .telemetry import use_tracer
from .tracer import Tracer

__all__ = [
    "FlopValidation",
    "validate_rgf_flops",
    "validate_wf_flops",
    "validate_sancho_rubio_flops",
    "validate_flops",
]


@dataclass
class FlopValidation:
    """One analytic-vs-measured comparison of a kernel's flop count.

    Attributes
    ----------
    kernel : str
        Which kernel was exercised ("rgf", "wf", "sancho_rubio").
    analytic : float
        The :mod:`repro.perf.flops` formula evaluated for this problem.
    measured : float
        The flops the instrumented call sites reported to the tracer.
    params : dict
        Problem dimensions (n_blocks, block size, iterations, ...).

    Example
    -------
    >>> v = FlopValidation("rgf", 1024.0, 1024.0, {"n_blocks": 4})
    >>> v.matches
    True
    """

    kernel: str
    analytic: float
    measured: float
    params: dict = field(default_factory=dict)

    @property
    def matches(self) -> bool:
        """Exact equality of the analytic and instrumented counts."""
        return self.measured == self.analytic

    def __str__(self):
        status = "OK" if self.matches else "MISMATCH"
        return (
            f"{self.kernel}: analytic {self.analytic:.0f} vs measured "
            f"{self.measured:.0f} [{status}] {self.params}"
        )


def _chain_hamiltonian(n_blocks: int, m: int, e0: float = 0.0, t: float = 1.0):
    """Uniform 1-D chain of ``n_blocks * m`` sites folded into m-site slabs.

    The textbook transport oracle: every diagonal block is the m-site
    chain segment, every coupling block carries the single bond between
    consecutive segments, and the band covers [e0 - 2t, e0 + 2t].
    """
    import numpy as np

    from ..tb.hamiltonian import BlockTridiagonalHamiltonian

    h00 = e0 * np.eye(m, dtype=complex)
    for i in range(m - 1):
        h00[i, i + 1] = h00[i + 1, i] = -t
    h01 = np.zeros((m, m), dtype=complex)
    h01[m - 1, 0] = -t
    return BlockTridiagonalHamiltonian(
        [h00.copy() for _ in range(n_blocks)],
        [h01.copy() for _ in range(n_blocks - 1)],
    )


def _batch_energies(n_energies: int):
    """Deterministic in-band energy batch away from the chain band edges."""
    import numpy as np

    return np.linspace(-1.2, 1.2, n_energies)


def validate_rgf_flops(
    n_blocks: int = 4, block_size: int = 3, energy: float = 0.5,
    n_energies: int = 1,
) -> FlopValidation:
    """Run a real RGF solve and compare its block-LU flops to the formula.

    The instrumented :class:`repro.solvers.BlockTridiagLU` reports its
    factorisation and block-column flops, the RGF stage the
    selected-inversion flops of its LDOS; their sum must equal
    :func:`repro.perf.flops.rgf_solve_flops` exactly (the contact surface
    GFs are validated separately).  Both sides are the reference sweep,
    12 products a slab; 7 execute (3 on ``c·I`` couplings): the selected
    inversion is charged for the LDOS the stage reads off ``A_L + A_R``,
    and none of it runs.  ``n_energies > 1`` runs one ``solve_batch``
    over that many energies instead of ``solve(energy)``: the class charges
    ``batch_size`` times the per-matrix counts, so the stack must measure
    ``n_energies * rgf_solve_flops``.

    Example
    -------
    >>> validate_rgf_flops(n_blocks=3, block_size=2).matches
    True
    >>> validate_rgf_flops(n_blocks=3, block_size=2, n_energies=6).matches
    True
    """
    from ..negf.rgf import RGFSolver

    H = _chain_hamiltonian(n_blocks, block_size)
    tracer = Tracer()
    with use_tracer(tracer):
        if n_energies == 1:
            RGFSolver(H).solve(energy)
        else:
            RGFSolver(H).solve_batch(_batch_energies(n_energies))
    counts = tracer.counter.counts
    measured = (
        counts.get("block_lu.factor", 0.0)
        + counts.get("block_lu.column", 0.0)
        + counts.get("block_lu.diagonal", 0.0)
    )
    which = {"energy": energy} if n_energies == 1 else {"n_energies": n_energies}
    return FlopValidation(
        kernel="rgf" if n_energies == 1 else "rgf_batched",
        analytic=n_energies * rgf_solve_flops(n_blocks, block_size),
        measured=measured,
        params={"n_blocks": n_blocks, "block_size": block_size, **which},
    )


def _wf_injected(solver, energies) -> int:
    """Injected channels over both contacts, read off the self-energies
    (deterministic: the same ones the traced solve recomputes)."""
    from ..negf.self_energy import broadening

    return int(sum(
        solver._injection(broadening(sigma))[2].sum()
        for sigma in solver.contacts.sigma_stacks(energies)
    ))


def validate_wf_flops(
    n_blocks: int = 4, block_size: int = 3, energy: float = 0.5,
    n_energies: int = 1,
) -> FlopValidation:
    """Run a real WF (QTBM) solve and compare its charged flops.

    The wave-function kernel charges its factorisation and the
    per-channel back-substitutions by the Gordon Bell convention
    (analytic cost of the banded algorithm, evaluated at the *actual*
    block sizes and injection counts); the formula side uses the same
    injection counts read off the contact self-energies.  ``n_energies >
    1`` runs one ``solve_batch`` over that many energies instead of
    ``solve(energy)``: the charges must sum the per-energy costs.

    Example
    -------
    >>> validate_wf_flops(n_blocks=3, block_size=2).matches
    True
    >>> validate_wf_flops(n_blocks=3, block_size=2, n_energies=5).matches
    True
    """
    from ..wf.qtbm import WFSolver

    H = _chain_hamiltonian(n_blocks, block_size)
    solver = WFSolver(H)
    energies = [energy] if n_energies == 1 else _batch_energies(n_energies)
    n_rhs = _wf_injected(solver, energies)
    tracer = Tracer()
    with use_tracer(tracer):
        if n_energies == 1:
            solver.solve(energy)
        else:
            solver.solve_batch(energies)
    counts = tracer.counter.counts
    which = {"energy": energy} if n_energies == 1 else {"n_energies": n_energies}
    return FlopValidation(
        kernel="wf" if n_energies == 1 else "wf_batched",
        analytic=n_energies * wf_factor_flops(n_blocks, block_size)
        + wf_backsub_flops(n_blocks, block_size, n_rhs),
        measured=counts.get("wf.factor", 0.0) + counts.get("wf.backsub", 0.0),
        params={"n_blocks": n_blocks, "block_size": block_size, **which,
                "n_rhs": n_rhs},
    )


def validate_sancho_rubio_flops(
    block_size: int = 4, energy: float = 0.3, n_energies: int = 1,
    scalar_coupling: bool = False,
) -> FlopValidation:
    """Run a real surface-GF solve and check its *iteration accounting*:
    the charge is ``sum_E formula(it_E)``, the formula being the reference
    step of :func:`repro.perf.sancho_rubio_flops` (8 GEMMs and one
    inversion at m).

    The lead is the folded chain of :func:`_chain_hamiltonian`, whose
    coupling is one bond (rank 1): the loop runs at m, six GEMMs and one
    stacked inversion a step.  ``scalar_coupling=True`` couples its cells
    by ``-I`` instead — the effective-mass grid form — and the lead takes
    the closed form of its mode basis: 0 steps on every energy, so the
    charge is the closing inversion alone.  The iteration counts are
    *measured* quantities (returned by
    :func:`repro.negf.sancho_rubio_batch`); the
    analytic side charges exactly that many decimation steps plus the
    final surface inversion, per energy.  ``n_energies > 1`` decimates a
    stack of that many energies instead of the one ``energy``: the
    active-set compaction gives every energy its own iteration sequence,
    so the charge is ``sum_E sancho_rubio_flops(m, it_E)``.

    Example
    -------
    >>> validate_sancho_rubio_flops(block_size=2).matches
    True
    >>> validate_sancho_rubio_flops(block_size=2, n_energies=6).matches
    True
    >>> validate_sancho_rubio_flops(block_size=3, scalar_coupling=True).matches
    True
    """
    import numpy as np

    from ..negf.surface_gf import sancho_rubio_batch

    H = _chain_hamiltonian(2, block_size)
    h01 = -np.eye(block_size) if scalar_coupling else H.upper[0]
    energies = [energy] if n_energies == 1 else _batch_energies(n_energies)
    tracer = Tracer()
    with use_tracer(tracer):
        _, iters = sancho_rubio_batch(energies, H.diagonal[0], h01)
    if n_energies == 1:
        which = {"energy": energy, "n_iterations": int(iters[0])}
    else:
        which = {"n_energies": n_energies,
                 "iterations": [int(i) for i in iters]}
    return FlopValidation(
        kernel="sancho_rubio" if n_energies == 1 else "sancho_rubio_batched",
        analytic=float(
            sum(sancho_rubio_flops(block_size, int(it)) for it in iters)
        ),
        measured=tracer.counter.counts.get("surface_gf.sancho", 0.0),
        params={"block_size": block_size, "scalar_coupling": scalar_coupling,
                **which},
    )


def validate_flops(verbose: bool = False) -> list:
    """Exercise every instrumented kernel at several small sizes.

    Returns the list of :class:`FlopValidation` results (one per kernel
    per size); ``all(v.matches for v in validate_flops())`` is the
    invariant the test suite pins.

    Example
    -------
    >>> all(v.matches for v in validate_flops())
    True
    """
    validations = [
        validate_rgf_flops(n_blocks=3, block_size=2),
        validate_rgf_flops(n_blocks=5, block_size=3),
        validate_rgf_flops(n_blocks=4, block_size=4, energy=0.8),
        validate_wf_flops(n_blocks=3, block_size=2),
        validate_wf_flops(n_blocks=5, block_size=3),
        validate_sancho_rubio_flops(block_size=2),
        validate_sancho_rubio_flops(block_size=4, energy=0.7),
        validate_rgf_flops(n_blocks=3, block_size=2, n_energies=5),
        validate_rgf_flops(n_blocks=4, block_size=3, n_energies=7),
        validate_wf_flops(n_blocks=3, block_size=2, n_energies=5),
        validate_wf_flops(n_blocks=4, block_size=3, n_energies=6),
        validate_sancho_rubio_flops(block_size=3, n_energies=6),
        validate_sancho_rubio_flops(
            block_size=4, n_energies=6, scalar_coupling=True
        ),
    ]
    if verbose:  # pragma: no cover - console convenience
        for v in validations:
            print(v)
    return validations
