"""Wave-function (QTBM) transport kernel.

OMEN's headline algorithm: instead of the O(N m^3) Green's-function
recursion, scattering states are computed directly.  With the contacts
folded in as self-energies, the retarded Green's function applied to the
per-channel injection vectors gives the scattering states:

    psi_m = [E - H - Sigma_L - Sigma_R]^{-1} w_m,
    Gamma_c = sum_m w_m w_m^+   (rank factorisation over open channels),

so one block-tridiagonal LU factorisation per energy plus one cheap
back-substitution per injected channel replaces the m-column block sweeps
of the Green's-function recursion.  The payoff grows with cross-section:
the number of open channels (tens) is far below the block size m
(thousands), which is exactly the algorithmic advantage the SC'11 paper
quantifies (experiment F2 reproduces that comparison).

Everything observable is built from the scattering states:

* transmission  T = sum_m psi_m^+ Gamma_R psi_m          (left-injected)
* spectral density diag(A_L)/2pi = sum_m |psi_m|^2 / 2pi
* reflection     R = n_channels - T (checked as a unitarity test).

The energy sweep (:meth:`WFSolver.solve_batch`) factors whole stacks of
energies with the stacked block LU (:class:`repro.solvers.BlockTridiagLU`)
and evaluates every observable over the energy axis.  It returns *one*
:class:`WFResult` whose fields carry a leading energy axis, plus the
per-row ``finite`` mask the kernel's health check reads
(:class:`repro.negf.rgf.ResultStack`); ``stack[b]`` is the row of energy
b, so a single energy (:meth:`WFSolver.solve`) is ``solve_batch([E])[0]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability.telemetry import get_monitor, get_tracer
from ..solvers.block_tridiagonal import BlockTridiagLU, block_product
from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from ..negf.rgf import (
    KernelSolver,
    ResultStack,
    assemble_system_blocks,
    equal_width_groups,
    sliver_stack,
)
from ..negf.self_energy import broadening, open_channels

__all__ = ["WFResult", "WFSolver"]


@dataclass
class WFResult(ResultStack):
    """Observables of wave-function solves at B energies, stacked.

    Mirrors :class:`repro.negf.RGFResult` (same fields, same leading
    energy axis) so the two kernels are drop-in interchangeable for the
    integration and SCF layers, plus ``reflection`` and
    ``interface_currents``.

    ``interface_currents`` (shape ``(B, N - 1)``) resolves the
    left-injected probability current across every slab interface
    (arbitrary units proportional to T): coherent ballistic transport
    conserves it, so all N-1 entries of a row are equal — the strongest
    internal-consistency check a transport kernel offers, exercised by
    the tests.
    """

    energy: np.ndarray
    transmission: np.ndarray
    reflection: np.ndarray
    dos: np.ndarray
    spectral_left: np.ndarray
    spectral_right: np.ndarray
    n_channels_left: np.ndarray
    n_channels_right: np.ndarray
    interface_currents: np.ndarray
    finite: np.ndarray

    @property
    def current_conservation_defect(self):
        """|T + R - n_open_left| per row: must vanish in coherent transport."""
        return abs(self.transmission + self.reflection - self.n_channels_left)

    @property
    def interface_current_spread(self):
        """max - min of the interface currents per row (0 = conserved)."""
        return np.ptp(self.interface_currents, axis=-1)


class WFSolver(KernelSolver):
    """Scattering-state (wave-function) solver for ballistic transport.

    Parameters are those of :class:`repro.negf.rgf.KernelSolver`, plus
    ``injection_tol_ev``.  :meth:`solve` / :meth:`solve_batch` return
    :class:`WFResult` stacks, row b of a stack ``solve(E_b)`` bit for
    bit.  Flops follow the Gordon Bell convention: ``wf.factor`` and
    ``wf.backsub`` are charged the analytic banded-algorithm cost at the
    *actual* per-energy channel counts (:meth:`kernel_stage`), so the
    measured counts of a stack equal the sum of its energies' charges.
    """

    kernel = "wf"

    def __init__(self, hamiltonian: BlockTridiagonalHamiltonian,
                 lead_left=None, lead_right=None, eta: float = 1e-6,
                 surface_method: str = "sancho",
                 injection_tol_ev: float | None = None):
        super().__init__(hamiltonian, lead_left, lead_right, eta,
                         surface_method)
        #: None = exact mode (every Gamma eigenvector injected, WF == NEGF
        #: to machine precision); a float = economical production mode,
        #: injecting only channels with Gamma eigenvalue above this
        #: absolute threshold (eV) — the open channels.  This is the knob
        #: that realises the paper's "few RHS per energy" claim.
        self.injection_tol_ev = injection_tol_ev

    # ------------------------------------------------------------------
    def _charge_flops(self, n_factor: int, n_rhs: int) -> None:
        """Gordon Bell convention: a factorisation is charged its
        analytic banded-algorithm cost at the actual block sizes (8 m^3
        per block) and the triangular sweeps 16 m^2 per block per
        injected channel, independent of the backend that executes them."""
        tracer = get_tracer()
        if not tracer.enabled:
            return
        sizes = [float(s) for s in self.H.block_sizes]
        if n_factor:
            tracer.add_flops(
                "wf.factor", n_factor * sum(8.0 * s ** 3 for s in sizes)
            )
        if n_rhs:
            tracer.add_flops(
                "wf.backsub", n_rhs * sum(16.0 * s ** 2 for s in sizes)
            )

    def _injection(self, gamma: np.ndarray):
        """Stacked eigendecomposition of a ``(B, m, m)`` broadening stack.

        Returns ``(ev, vec, width)``: the ascending ``eigh`` pairs and,
        per slice, how many of the largest are injected
        (:func:`repro.negf.rgf.sliver_stack` builds the vectors) —
        everything above ``1e-10 * lambda_max`` in exact mode, the
        channels above ``injection_tol_ev`` otherwise.
        """
        ev, vec = np.linalg.eigh(gamma)
        if self.injection_tol_ev is None:
            cut = 1e-10 * np.maximum(ev.max(axis=-1, keepdims=True), 1e-300)
        else:
            cut = self.injection_tol_ev
        return ev, vec, np.sum(ev > cut, axis=-1)

    # -- the one observables function, over the energy axis ------------

    def _observables(self, psi_l, gam_r, hops) -> tuple:
        """``(T, spectral_left, interface_currents)`` of a stack from its
        left-injected scattering states.

        ``psi_l`` is the ``(B, n_total, c)`` stack of B energies that
        inject the same number of channels per contact, ``hops`` the slab
        couplings (:meth:`BlockTridiagonalHamiltonian.couplings`); every
        observable is a stacked GEMM/ufunc call over the energy axis.
        The states are consumed: their last use squares them in place.
        """
        offsets = self.H.block_offsets().tolist()
        # T = sum_m psi_m^+ Gamma_R psi_m over left-injected states
        t = _transmission(psi_l[:, offsets[-2]:], gam_r)
        currents = _interface_currents(psi_l, hops, offsets)
        return t, _row_norms(psi_l) / (2.0 * np.pi), currents

    def kernel_stage(self, energies, sigma_l, sigma_r) -> WFResult:
        """Everything after the contacts: inject, factor, solve, contract.

        ``sigma_l`` / ``sigma_r`` are the ``(B, m, m)`` self-energy stacks
        of :meth:`repro.negf.Contacts.sigma_stacks` at ``energies``; a
        benchmark that excludes the contacts evaluates them once and
        times this call.  Gamma, the open-channel counts and the
        injection vectors come from one stacked ``eigh`` per contact.
        Energies injecting the same number of channels per contact are
        factored and solved together at exactly that right-hand-side
        width (:func:`repro.negf.rgf.equal_width_groups`: zero-padding
        to a stack-wide width would make an energy's bits depend on its
        stack-mates), so the row of an energy never depends on which
        energies share its stack; each group scatters its observables
        into the rows of the preallocated stack arrays.
        """
        energies = np.array(energies, dtype=float)
        n = self.H.n_blocks
        gam_l, gam_r = broadening(sigma_l), broadening(sigma_r)
        ev_l, vec_l, width_l = self._injection(gam_l)
        ev_r, vec_r, width_r = self._injection(gam_r)
        n_open_l, n_open_r = open_channels(ev_l), open_channels(ev_r)
        self._charge_flops(energies.size, int(width_l.sum() + width_r.sum()))
        rows, size = energies.size, self.H.total_size
        t = np.empty(rows)
        spectral_l, spectral_r = np.empty((rows, size)), np.empty((rows, size))
        currents = np.empty((rows, n - 1))
        hops = self.H.couplings()
        for idx in equal_width_groups(width_l, width_r):
            lu = BlockTridiagLU(
                *assemble_system_blocks(
                    self.H, energies[idx], sigma_l[idx], sigma_r[idx]
                ),
                instrument=False,
            )
            # one state stack at a time: the left one is reduced before
            # the right one is formed
            t[idx], spectral_l[idx], currents[idx] = self._observables(
                lu.block_column(
                    0, sliver_stack(ev_l[idx], vec_l[idx], width_l[idx[0]])
                ),
                gam_r[idx], hops,
            )
            spectral_r[idx] = _row_norms(lu.block_column(
                n - 1, sliver_stack(ev_r[idx], vec_r[idx], width_r[idx[0]])
            )) / (2.0 * np.pi)
            del lu  # the next group factors without this one's dinv
        stack = WFResult.checked(
            "wf",
            energy=energies,
            transmission=t,
            reflection=np.maximum(n_open_l - t, 0.0),
            # coherent limit: A_L + A_R = i(G - G^+) = -2 Im G, so
            # -Im diag(G)/pi = (A_L + A_R)_ii / (2 pi) = sL + sR
            dos=spectral_l + spectral_r,
            spectral_left=spectral_l,
            spectral_right=spectral_r,
            n_channels_left=n_open_l,
            n_channels_right=n_open_r,
            interface_currents=currents,
        )
        get_monitor().check_stack("wf", stack, gam_l, gam_r)
        return stack


def _transmission(block_r: np.ndarray, gam_r: np.ndarray) -> np.ndarray:
    """``T = sum_m psi_m^+ Gamma_R psi_m`` per energy of a stack, from the
    last-slab block ``(B, m, c)`` of its left-injected states: one
    ``Gamma_R @ psi`` GEMM and an elementwise sum."""
    return _inner_real(block_r, gam_r @ block_r)


def _interface_currents(psi_l: np.ndarray, hops, offsets) -> np.ndarray:
    """Left-injected current across every slab interface, ``(B, N - 1)``:
    one ``hop @ psi`` GEMM per interface for the whole stack (a multiply
    for a 0-d ``c·I`` hop: :func:`repro.solvers.block_tridiagonal.
    block_product`) and an elementwise inner product; equals T at each
    interface in coherent transport."""
    currents = np.empty((len(psi_l), len(hops)))
    for i, hop in enumerate(hops):
        currents[:, i] = -2.0 * _inner_imag(
            psi_l[:, offsets[i] : offsets[i + 1]],
            block_product(hop, psi_l[:, offsets[i + 1] : offsets[i + 2]]),
        )
    return currents


def _inner_real(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re sum conj(a) b`` over each slice of two ``(B, m, c)`` stacks."""
    return (
        a.real * b.real + a.imag * b.imag
    ).reshape(len(a), -1).sum(axis=1)


def _inner_imag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Im sum conj(a) b`` over each slice of two ``(B, m, c)`` stacks."""
    return (
        a.real * b.imag - a.imag * b.real
    ).reshape(len(a), -1).sum(axis=1)


def _row_norms(psi: np.ndarray) -> np.ndarray:
    """``sum_m |psi_im|^2`` of a ``(B, n, c)`` stack of states, squared in
    place through its interleaved (re, im) view (no state-sized copy).

    ``np.multiply``, not ``np.square``: right after an OpenBLAS GEMM the
    float reduction runs ~10x slower on AVX-512 Xeons until a
    vector-dispatched ufunc has run, and ``multiply`` is one, ``square``
    is not (docs/PARALLELISM.md "The stack budget").  The rows are summed
    by a stacked GEMV against ones, as in :func:`repro.negf.rgf._row_sums`."""
    v = psi.view(float)
    return np.multiply(v, v, out=v) @ np.ones(v.shape[-1])
