"""Recursive Green's function (RGF) transport kernel.

For each (momentum, energy) sample the ballistic NEGF quantities follow
from selected blocks of G = [E - H - Sigma_L - Sigma_R]^{-1}:

* transmission       T(E) = Tr[Gamma_L G_{0,N-1} Gamma_R G_{0,N-1}^+]
* spectral functions A_L = G Gamma_L G^+,  A_R = G Gamma_R G^+
  (their diagonals give the charge injected from each contact)
* local DOS          rho_i = -Im diag(G) / pi = diag(A_L + A_R)_i / 2 pi

All of these need only the first and last block columns of G, which
:class:`repro.solvers.BlockTridiagLU` delivers in O(N m^3) — the defining
cost of the RGF algorithm.  The LDOS is the coherent-limit sum of the two
spectral densities, so no selected inversion runs.  The kernel is
deliberately a thin orchestration layer over whole stacks of energies:
after the LU every contraction is one GEMM plus an elementwise row sum
(``diag(G Gamma G^+)_i = sum_k (G Gamma)_ik conj(G)_ik``), never a
per-energy loop.  The tests validate it against dense inversion
(:mod:`repro.negf.dense_ref`) and against the analytic chain results.

:meth:`RGFSolver.solve_batch` returns *one* :class:`RGFResult` whose
fields carry a leading energy axis, plus the per-row ``finite`` mask the
kernel's health check reads (:class:`ResultStack`); ``stack[b]`` is the
row of energy b, so :meth:`RGFSolver.solve` is ``solve_batch([E])[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..observability.telemetry import get_monitor, trace_span
from ..resilience.health import finite_rows, get_sentinel
from ..solvers.block_tridiagonal import BlockTridiagLU, _diagonal_flops
from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from .self_energy import Contacts, LeadSelfEnergy, broadening, open_channels

__all__ = [
    "KernelSolver",
    "RGFResult",
    "RGFSolver",
    "assemble_system_blocks",
    "equal_width_groups",
    "sliver_stack",
]


def sliver_stack(ev: np.ndarray, vec: np.ndarray, width: int) -> np.ndarray:
    """Injection slivers ``W`` with ``Gamma ~ W W^+``, ``width`` columns each.

    ``ev``/``vec`` are the (stacked, ascending) ``numpy.linalg.eigh`` pairs
    of Gamma; the slivers are its ``width`` largest eigenpairs,
    ``vec * sqrt(ev)``, as one ``(..., m, width)`` array.
    """
    lo = ev.shape[-1] - width
    return vec[..., lo:] * np.sqrt(ev[..., None, lo:])


def equal_width_groups(*widths) -> list:
    """Index arrays splitting a stack into slices of equal injection widths.

    BLAS GEMM results are *not* bitwise invariant under right-hand-side
    column count (packing/blocking), so zero-padding slivers to a common
    width would make per-slice results depend on which energies share a
    stack.  Slices are solved in groups of exactly their own (per-contact)
    widths instead; ``widths`` are one integer array per contact.
    """
    key = widths[0]
    for w in widths[1:]:
        key = key * (w.max() + 1) + w
    if not key.size:
        return []
    # groups in ascending key order, each in stack order: a stable sort
    # cut where the key changes (plain ``np.unique`` loads ``numpy.ma``)
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    return np.split(order, np.flatnonzero(ranked[1:] != ranked[:-1]) + 1)


#: Rows of a block column contracted per GEMM by :func:`_contact_density`.
DENSITY_ROWS = 128


def _contact_density(column: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``diag(G Gamma G^+) / 2 pi`` from the contact's block column of G:
    a ``(B, rows, m) @ (B, m, m)`` GEMM per group of :data:`DENSITY_ROWS`
    rows, each reduced by :func:`_row_sums` before the next (no
    column-sized temporary).  At m = 1 the GEMM is a multiply, at a
    fraction of its cost: Gamma is Hermitian, so its one entry has a zero
    imaginary part, both cross terms of each complex product are exact
    zeros, and the multiply rounds as the GEMM does, bit for bit, fused
    or not (:data:`repro.solvers.block_tridiagonal._matmul`)."""
    product = np.multiply if gamma.shape[-1] == 1 else np.matmul
    groups = [column[:, lo:lo + DENSITY_ROWS]
              for lo in range(0, column.shape[1], DENSITY_ROWS)]
    return np.concatenate(
        [_row_sums(product(rows, gamma), rows) for rows in groups], axis=1
    ) / (2.0 * np.pi)


def _row_sums(weighted: np.ndarray, column: np.ndarray) -> np.ndarray:
    """``Re sum_k weighted_ik conj(column_ik)`` along the last axis.

    An elementwise product of the interleaved (re, im) views, accumulated
    into ``weighted`` in place (no third column-sized array), and one
    stacked GEMV against ones: numpy's reduce pays per row, which on
    m = 1 (rows of two floats) is most of the call.  Each energy of a
    stack is its own GEMV of fixed shape, so a row's bits do not depend on
    which energies share the stack.
    """
    real = column.real.dtype
    weighted = weighted.view(real)
    weighted *= column.view(real)
    return weighted @ np.ones(weighted.shape[-1], dtype=real)


def assemble_system_blocks(
    H: BlockTridiagonalHamiltonian,
    energy,
    sigma_l: np.ndarray,
    sigma_r: np.ndarray,
):
    """Blocks of A = E - H - Sigma in the (diag, upper, lower) layout.

    One energy with ``(m, m)`` self-energies gives 2-D diagonal blocks;
    an array of B energies with ``(B, m, m)`` self-energy stacks gives
    ``(B, m, m)`` diagonal stacks.  The couplings are energy independent
    and stay 2-D either way, except that a coupling that is exactly
    ``c·I`` comes out as the 0-d complex ``-c``
    (:meth:`BlockTridiagonalHamiltonian.couplings`), which
    :class:`repro.solvers.BlockTridiagLU` multiplies by; they are H's
    ``system_couplings`` (``repro.tb.hamiltonian.lu_couplings``),
    built in the LU's form once per skeleton.  The diagonal blocks of one size are
    views of one array, formed from H's stack of that size
    (``diagonal_stacks``) in one broadcast; when every slab has the same
    size, that array itself is returned as ``diag``.
    """
    e = np.asarray(energy, dtype=float)
    e = e.reshape((1,) + e.shape + (1, 1))
    diag = [None] * H.n_blocks
    # the blocks of one size are views of one array: a kernel stage frees
    # them as one chunk, the size of the block column it forms next
    for slabs, h in H.diagonal_stacks:
        m = h.shape[-1]
        h = h.reshape((len(slabs),) + (1,) * (e.ndim - 3) + (m, m))
        blocks = e * np.eye(m, dtype=complex) - h
        for i, a in zip(slabs.tolist(), blocks):
            diag[i] = a
    if len(H.diagonal_stacks) == 1:
        diag = blocks
    diag[0] -= sigma_l
    diag[-1] -= sigma_r
    return (diag, *H.system_couplings)


class ResultStack:
    """Kernel results of B energies as one object.

    Every field of a result dataclass deriving from this carries a
    leading energy axis, ``finite`` included — the per-row verdict of
    :meth:`checked`.  ``stack[b]`` is energy b's row (views of the
    arrays, numpy scalars for the per-energy numbers), ``len`` and
    iteration work as on a list of rows, and a slice, mask or index
    array gives a sub-stack.
    """

    @classmethod
    def checked(cls, site=None, **arrays):
        """The stack of the field ``arrays`` with its ``finite`` mask.

        ``finite[b]`` is True when row b of every float field is free of
        NaN/Inf (:func:`repro.resilience.health.finite_rows`: one
        ``isfinite`` per field, whatever B).  With a ``site``, a live
        sentinel trips ``<site>:nonfinite`` counting the rows that are
        not finite, so its ledger reads the same however the energies
        were split into stacks.
        """
        finite = finite_rows(
            *(v for v in arrays.values() if v.dtype.kind == "f")
        )
        sentinel = get_sentinel()
        if site is not None and sentinel.enabled and not finite.all():
            sentinel.trip(
                site, "nonfinite", detail=f"batch of {finite.size}",
                count=finite.size - int(np.count_nonzero(finite)),
            )
        return cls(**arrays, finite=finite)

    @classmethod
    def concatenate(cls, stacks):
        """One stack of ``cls``'s fields read off ``stacks`` in order: one
        ``concatenate`` per field (a lone stack is returned as is)."""
        if len(stacks) == 1:
            return stacks[0]
        return cls(**{
            f.name: np.concatenate([getattr(s, f.name) for s in stacks])
            for f in fields(cls)
        })

    def __len__(self):
        return len(self.finite)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, index):
        return type(self)(**{k: v[index] for k, v in vars(self).items()})


@dataclass
class RGFResult(ResultStack):
    """Observables of RGF solves at B energies of one k-point, stacked.

    Attributes
    ----------
    energy : ndarray, shape (B,)
    transmission : ndarray, shape (B,)
        T(E) from left to right.
    dos : ndarray, shape (B, n_orbitals)
        Local density of states per orbital, -Im diag(G)/pi  (1/eV),
        read off ``spectral_left + spectral_right`` (the coherent limit).
    spectral_left, spectral_right : ndarray, shape (B, n_orbitals)
        diag(A_L)/2pi and diag(A_R)/2pi per orbital (1/eV): energy-resolved
        carrier density injected from each contact.
    n_channels_left, n_channels_right : ndarray of int, shape (B,)
        Open lead channels at each energy.
    finite : ndarray of bool, shape (B,)
        Rows whose every float field is NaN/Inf-free.
    """

    energy: np.ndarray
    transmission: np.ndarray
    dos: np.ndarray
    spectral_left: np.ndarray
    spectral_right: np.ndarray
    n_channels_left: np.ndarray
    n_channels_right: np.ndarray
    finite: np.ndarray


class KernelSolver:
    """What both transport kernels share: a device Hamiltonian, its
    contacts and the entry points around the subclass's ``kernel_stage``
    (the contacts, then the stage, on one stack of energies).

    Parameters
    ----------
    hamiltonian : BlockTridiagonalHamiltonian
        Device Hamiltonian (potential already folded in).
    lead_left, lead_right : (h00, h01) tuples or None
        Lead cell blocks.  None uses the device's own end blocks
        (homogeneous contact approximation): h00 = H.diagonal[end],
        h01 = adjacent upper block — exact for devices whose end slabs
        repeat the lead cell at flat potential.
    eta : float
        Retarded infinitesimal (eV).
    surface_method : {"sancho", "robust"}
        Surface-GF algorithm for the contacts.
    """

    #: The kernel's name in its trace spans (``<kernel>.solve_batch``).
    kernel = ""

    def __init__(
        self,
        hamiltonian: BlockTridiagonalHamiltonian,
        lead_left=None,
        lead_right=None,
        eta: float = 1e-6,
        surface_method: str = "sancho",
    ):
        if hamiltonian.n_blocks < 2:
            raise ValueError("transport needs at least 2 slabs")
        self.H = hamiltonian
        self.contacts = Contacts(
            hamiltonian, lead_left, lead_right, eta=eta,
            method=surface_method,
        )

    def self_energies(self, energy: float) -> tuple[LeadSelfEnergy, LeadSelfEnergy]:
        """Contact self-energies at one energy (a stack of one)."""
        sigs_l, sigs_r = self.contacts.self_energies([energy])
        return sigs_l[0], sigs_r[0]

    def transmission(self, energy: float) -> float:
        """T(E) of :meth:`solve`."""
        return self.solve(energy).transmission

    def solve(self, energy: float):
        """Every observable of the kernel at one energy.

        A single energy *is* a stack of one: this is
        ``solve_batch([energy])[0]``, bit for bit, under any chunking.
        """
        energy = float(energy)
        with trace_span(f"{self.kernel}.solve", category="kernel",
                        energy=energy):
            return self._solve_batch(np.array([energy]))[0]

    def solve_batch(self, energies):
        """Solves of a whole stack of energies in stacked calls: one
        :class:`ResultStack` (``[]`` for no energy).

        One sequence of ``(B, m, m)`` stacked factorisations and sweeps
        (:class:`repro.solvers.BlockTridiagLU` on stacks plus the stacked
        surface-GF contacts), which amortises the Python dispatch
        overhead of small blocks over the stack.  Every stacked kernel is
        per-slice bit-identical to its stack-of-one call, so the row of
        an energy does not depend on which energies share its stack.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        if energies.size == 0:
            return []
        with trace_span(
            f"{self.kernel}.solve_batch", category="kernel",
            n_energies=int(energies.size),
        ):
            return self._solve_batch(energies)

    def _solve_batch(self, energies: np.ndarray):
        """Solve one stack: the contacts, then ``kernel_stage``."""
        return self.kernel_stage(
            energies, *self.contacts.sigma_stacks(energies)
        )


class RGFSolver(KernelSolver):
    """Ballistic NEGF solver for a block-tridiagonal device Hamiltonian.

    Parameters are those of :class:`KernelSolver`.  :meth:`solve` /
    :meth:`solve_batch` return :class:`RGFResult` stacks: the
    transmission, LDOS and contact spectral densities of each energy,
    with block-LU and surface-GF flops charged per energy.
    """

    kernel = "rgf"

    def kernel_stage(self, energies, sigma_l, sigma_r) -> RGFResult:
        """Everything after the contacts: factor, both edge columns, contract.

        ``sigma_l`` / ``sigma_r`` are the ``(B, m, m)`` self-energy stacks
        of :meth:`repro.negf.Contacts.sigma_stacks` at ``energies``; a
        benchmark that excludes the contacts evaluates them once and
        times this call.  Only the first and last block columns of G are
        formed.  Between here and the result stack every step is a
        stacked LAPACK/BLAS/ufunc call: the contact spectral densities
        are a GEMM per row group of a block column plus an elementwise
        row-sum, ``diag(G Gamma G^+)_i = sum_k (G Gamma)_ik conj(G)_ik``,
        the LDOS their sum (the coherent limit, as in
        :meth:`repro.wf.WFSolver.kernel_stage`) — charged the reference
        selected inversion it stands for, ``block_lu.diagonal`` — and the
        open-channel counts one stacked ``eigvalsh`` per contact.
        The run's monitor checks the stack's invariants, one reduction
        each (:meth:`repro.observability.InvariantMonitor.check_stack`).
        One column-sized array is alive at a time besides
        the factor's ``dinv`` (docs/PARALLELISM.md "The stack budget").
        """
        energies = np.array(energies, dtype=float)
        n = self.H.n_blocks
        # the contacts' broadening first: allocated after the factor, it
        # would split the freed diagonal, the one chunk a column fits in
        gam_l, gam_r = broadening(sigma_l), broadening(sigma_r)
        lu = BlockTridiagLU(
            *assemble_system_blocks(self.H, energies, sigma_l, sigma_r)
        )
        # one column-sized array at a time: each contact's block column of
        # G is contracted before the next is formed
        spectral_left = _contact_density(lu.block_column(0), gam_l)
        coln = lu.block_column(n - 1)  # G_{:,N-1}
        spectral_right = _contact_density(coln, gam_r)
        g_0n = coln[:, : lu.sizes[0]]
        prod = gam_l @ g_0n @ gam_r @ np.conj(np.swapaxes(g_0n, -2, -1))
        del coln, g_0n
        lu._charge("block_lu.diagonal", _diagonal_flops)
        stack = RGFResult.checked(
            "rgf",
            energy=energies,
            transmission=np.trace(prod, axis1=-2, axis2=-1).real,
            # coherent limit: A_L + A_R = i(G - G^+) = -2 Im G, so
            # -Im diag(G)/pi = (A_L + A_R)_ii / (2 pi) = sL + sR
            dos=spectral_left + spectral_right,
            spectral_left=spectral_left,
            spectral_right=spectral_right,
            n_channels_left=open_channels(np.linalg.eigvalsh(gam_l)),
            n_channels_right=open_channels(np.linalg.eigvalsh(gam_r)),
        )
        get_monitor().check_stack("rgf", stack, gam_l, gam_r)
        return stack
