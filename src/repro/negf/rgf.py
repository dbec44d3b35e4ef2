"""Recursive Green's function (RGF) transport kernel.

For each (momentum, energy) sample the ballistic NEGF quantities follow
from selected blocks of G = [E - H - Sigma_L - Sigma_R]^{-1}:

* transmission       T(E) = Tr[Gamma_L G_{0,N-1} Gamma_R G_{0,N-1}^+]
* spectral functions A_L = G Gamma_L G^+,  A_R = G Gamma_R G^+
  (their diagonals give the charge injected from each contact)
* local DOS          rho_i = -Im diag(G) / pi

All of these need only the first/last block columns and the block diagonal
of G, which :class:`repro.solvers.BlockTridiagLU` delivers in O(N m^3) —
the defining cost of the RGF algorithm.  The kernel is deliberately a thin
orchestration layer over whole stacks of energies: after the LU every
contraction is one GEMM plus an elementwise row sum
(``diag(G Gamma G^+)_i = sum_k (G Gamma)_ik conj(G)_ik``), never a
per-energy loop.  The tests validate it against dense inversion
(:mod:`repro.negf.dense_ref`) and against the analytic chain results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability.invariants import get_monitor
from ..observability.tracer import trace_span
from ..resilience.health import get_sentinel
from ..solvers.block_tridiagonal import BlockTridiagLU
from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from .self_energy import Contacts, LeadSelfEnergy, broadening, open_channels

__all__ = [
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
    return [np.flatnonzero(key == k) for k in np.unique(key)]


def _contact_density(column: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """``diag(G Gamma G^+) / 2 pi`` from the contact's block column of G:
    one ``(B, sum(m), m) @ (B, m, m)`` GEMM, then :func:`_row_sums`."""
    return _row_sums(column @ gamma, column) / (2.0 * np.pi)


def _row_sums(weighted: np.ndarray, column: np.ndarray) -> np.ndarray:
    """``Re sum_k weighted_ik conj(column_ik)`` along the last axis.

    An elementwise product of the interleaved (re, im) views, accumulated
    into ``weighted`` in place (no third column-sized array), and one
    contiguous row sum.
    """
    real = column.real.dtype
    weighted = weighted.view(real)
    weighted *= column.view(real)
    return weighted.sum(axis=-1)


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
    and stay 2-D either way.
    """
    n = H.n_blocks
    e = np.asarray(energy, dtype=float)
    e = e.reshape(e.shape + (1, 1))
    diag = []
    for i, h in enumerate(H.diagonal):
        a = e * np.eye(h.shape[0], dtype=complex) - h
        if i == 0:
            a = a - sigma_l
        if i == n - 1:
            a = a - sigma_r
        diag.append(a)
    upper = [-u for u in H.upper]
    lower = [-u.conj().T for u in H.upper]
    return diag, upper, lower


@dataclass
class RGFResult:
    """Observables of one RGF solve at a single (k, E) point.

    Attributes
    ----------
    energy : float
    transmission : float
        T(E) from left to right.
    dos : ndarray
        Local density of states per orbital, -Im diag(G)/pi  (1/eV).
    spectral_left, spectral_right : ndarray
        diag(A_L)/2pi and diag(A_R)/2pi per orbital (1/eV): energy-resolved
        carrier density injected from each contact.
    n_channels_left, n_channels_right : int
        Open lead channels at this energy.
    """

    energy: float
    transmission: float
    dos: np.ndarray
    spectral_left: np.ndarray
    spectral_right: np.ndarray
    n_channels_left: int
    n_channels_right: int


class RGFSolver:
    """Ballistic NEGF solver for a block-tridiagonal device Hamiltonian.

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
    surface_method : {"sancho", "eigen", "robust"}
        Surface-GF algorithm for the contacts.
    """

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

    # ------------------------------------------------------------------
    def self_energies(self, energy: float) -> tuple[LeadSelfEnergy, LeadSelfEnergy]:
        """Contact self-energies at one energy (a stack of one)."""
        sigs_l, sigs_r = self.contacts.self_energies([energy])
        return sigs_l[0], sigs_r[0]

    def transmission(self, energy: float) -> float:
        """T(E) only (skips the spectral-function sweeps)."""
        sig_l, sig_r = self.self_energies(energy)
        lu = BlockTridiagLU(
            *assemble_system_blocks(self.H, energy, sig_l.sigma, sig_r.sigma)
        )
        g_0n = lu.corner_block("upper-right")  # G_{0, N-1}
        t = np.trace(sig_l.gamma @ g_0n @ sig_r.gamma @ g_0n.conj().T)
        return float(t.real)

    def solve(self, energy: float) -> RGFResult:
        """Full RGF solve: transmission, LDOS and contact spectral densities.

        A single energy *is* a stack of one: this is
        ``solve_batch([energy])[0]``, bit for bit, under any chunking.
        """
        energy = float(energy)
        with trace_span("rgf.solve", category="kernel", energy=energy):
            return self._solve_batch(np.array([energy]))[0]

    # ------------------------------------------------------------------
    def solve_batch(self, energies) -> list[RGFResult]:
        """RGF solves for a whole stack of energies in stacked calls.

        One sequence of ``(B, m, m)`` stacked factorisations and sweeps
        (:class:`repro.solvers.BlockTridiagLU` on stacks plus the stacked
        Sancho-Rubio decimation), which amortises the Python dispatch
        overhead of small blocks over the stack.  Every stacked kernel is
        per-slice bit-identical to its stack-of-one call, so the result
        for an energy does not depend on which energies share its stack.
        Block-LU and surface-GF flops are charged per energy.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        if energies.size == 0:
            return []
        with trace_span(
            "rgf.solve_batch", category="kernel",
            n_energies=int(energies.size),
        ):
            return self._solve_batch(energies)

    # -- the one stacked implementation --------------------------------

    def _results(self, energies, t, dos, spectral_l, spectral_r,
                 gam_l, gam_r) -> list:
        """Per-energy result objects, invariants checked.

        The open-channel counts are one stacked ``eigvalsh`` per contact;
        the only per-energy work besides building the result objects is
        the invariant checks, and only under a live monitor.
        """
        n_l = open_channels(np.linalg.eigvalsh(gam_l)).tolist()
        n_r = open_channels(np.linalg.eigvalsh(gam_r)).tolist()
        energies = energies.tolist()
        t = t.tolist()
        monitor = get_monitor()
        if monitor.enabled:
            for b, energy in enumerate(energies):
                monitor.check_gamma(gam_l[b], kernel="rgf", side="left",
                                    energy=energy)
                monitor.check_gamma(gam_r[b], kernel="rgf", side="right",
                                    energy=energy)
                # below the band edge (zero open channels) eta-broadening
                # leaves a tiny positive T; the bound only binds with modes
                if min(n_l[b], n_r[b]) > 0:
                    monitor.check_transmission(
                        t[b], min(n_l[b], n_r[b]), kernel="rgf",
                        energy=energy,
                    )
                monitor.check_density(spectral_l[b], kernel="rgf",
                                      side="left", energy=energy)
                monitor.check_density(spectral_r[b], kernel="rgf",
                                      side="right", energy=energy)
        return [
            RGFResult(
                energy=energy,
                transmission=t[b],
                dos=dos[b],
                spectral_left=spectral_l[b],
                spectral_right=spectral_r[b],
                n_channels_left=n_l[b],
                n_channels_right=n_r[b],
            )
            for b, energy in enumerate(energies)
        ]

    def _solve_batch(self, energies: np.ndarray) -> list:
        """Solve one stack: the contacts, then :meth:`kernel_stage`."""
        return self.kernel_stage(
            energies, *self.contacts.sigma_stacks(energies)
        )

    def kernel_stage(self, energies, sigma_l, sigma_r) -> list:
        """Everything after the contacts: factor, sweep, contract.

        ``sigma_l`` / ``sigma_r`` are the ``(B, m, m)`` self-energy stacks
        of :meth:`repro.negf.Contacts.sigma_stacks` at ``energies``; a
        benchmark that excludes the contacts evaluates them once and
        times this call.  Between here and the result list every step is
        a stacked LAPACK/BLAS/ufunc call: the contact spectral densities
        are one GEMM per block column plus an elementwise row-sum,
        ``diag(G Gamma G^+)_i = sum_k (G Gamma)_ik conj(G)_ik``.
        """
        energies = np.asarray(energies, dtype=float)
        n = self.H.n_blocks
        lu = BlockTridiagLU(
            *assemble_system_blocks(self.H, energies, sigma_l, sigma_r)
        )
        col0 = lu.block_column(0)  # G_{:,0}
        coln = lu.block_column(n - 1)  # G_{:,N-1}
        gdiag = lu.diagonal_of_inverse()

        gam_l, gam_r = broadening(sigma_l), broadening(sigma_r)
        g_0n = coln[:, : lu.sizes[0]]
        prod = gam_l @ g_0n @ gam_r @ np.conj(np.swapaxes(g_0n, -2, -1))
        t = np.trace(prod, axis1=-2, axis2=-1).real
        spectral_l = _contact_density(col0, gam_l)
        spectral_r = _contact_density(coln, gam_r)
        dos = -np.concatenate(
            [np.diagonal(g, axis1=1, axis2=2).imag for g in gdiag], axis=1
        ) / np.pi

        sentinel = get_sentinel()
        if sentinel.enabled:
            sentinel.check_finite(
                "rgf", t, spectral_l, spectral_r, dos,
                detail=f"batch of {len(energies)}",
            )
        return self._results(
            energies, t, dos, spectral_l, spectral_r, gam_l, gam_r
        )
