"""Wave-function (QTBM) transport kernel.

OMEN's headline algorithm: instead of the O(N m^3) Green's-function
recursion, scattering states are computed directly.  With the contacts
folded in as self-energies, the retarded Green's function applied to the
per-channel injection vectors gives the scattering states:

    psi_m = [E - H - Sigma_L - Sigma_R]^{-1} w_m,
    Gamma_c = sum_m w_m w_m^+   (rank factorisation over open channels),

so one *sparse LU factorisation* per energy plus one cheap back-substitution
per open channel replaces the dense block recursion.  The payoff grows with
cross-section: the number of open channels (tens) is far below the block
size m (thousands), which is exactly the algorithmic advantage the SC'11
paper quantifies (experiment F2 reproduces that comparison).

Everything observable is built from the scattering states:

* transmission  T = sum_m psi_m^+ Gamma_R psi_m          (left-injected)
* spectral density diag(A_L)/2pi = sum_m |psi_m|^2 / 2pi
* reflection     R = n_channels - T (checked as a unitarity test).

The energy sweep (:meth:`WFSolver.solve_batch`) factors whole stacks of
energies with the stacked block LU and evaluates every observable over
the energy axis; the scalar :meth:`WFSolver.solve` — SuperLU on the CSR
matrix (default) or LAPACK banded, the kernels benchmarked in F8 — is the
reference, feeding the same observables function a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..observability.invariants import get_monitor
from ..observability.tracer import get_tracer, trace_span
from ..resilience.health import get_sentinel
from ..solvers.banded import BandedLU, SparseLU
from ..solvers.block_tridiagonal import BlockTridiagLU
from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from ..negf.rgf import (
    assemble_system_blocks,
    equal_width_groups,
    sliver_stack,
)
from ..negf.self_energy import (
    Contacts,
    LeadSelfEnergy,
    broadening,
    open_channels,
)

__all__ = ["WFResult", "WFSolver"]


@dataclass
class WFResult:
    """Observables of one wave-function solve at a single (k, E) point.

    Mirrors :class:`repro.negf.RGFResult` so the two kernels are drop-in
    interchangeable for the integration and SCF layers.

    ``interface_currents`` resolves the left-injected probability current
    across every slab interface (arbitrary units proportional to T):
    coherent ballistic transport conserves it, so all N-1 entries are
    equal — the strongest internal-consistency check a transport kernel
    offers, exercised by the tests.
    """

    energy: float
    transmission: float
    reflection: float
    dos: np.ndarray
    spectral_left: np.ndarray
    spectral_right: np.ndarray
    n_channels_left: int
    n_channels_right: int
    interface_currents: np.ndarray | None = None

    @property
    def current_conservation_defect(self) -> float:
        """|T + R - n_open_left|: must vanish in coherent transport."""
        return abs(self.transmission + self.reflection - self.n_channels_left)

    @property
    def interface_current_spread(self) -> float:
        """max - min of the interface currents (0 = perfectly conserved)."""
        if self.interface_currents is None or self.interface_currents.size == 0:
            return 0.0
        return float(
            self.interface_currents.max() - self.interface_currents.min()
        )


class WFSolver:
    """Scattering-state (wave-function) solver for ballistic transport.

    Parameters mirror :class:`repro.negf.RGFSolver`; ``factorization``
    selects the linear-solver backend ("sparse" = SuperLU, "banded" =
    LAPACK band solver).
    """

    def __init__(
        self,
        hamiltonian: BlockTridiagonalHamiltonian,
        lead_left=None,
        lead_right=None,
        eta: float = 1e-6,
        surface_method: str = "sancho",
        factorization: str = "sparse",
        injection_tol_ev: float | None = None,
    ):
        if hamiltonian.n_blocks < 2:
            raise ValueError("transport needs at least 2 slabs")
        if factorization not in ("sparse", "banded"):
            raise ValueError("factorization must be 'sparse' or 'banded'")
        self.H = hamiltonian
        self.factorization = factorization
        #: None = exact mode (every Gamma eigenvector injected, WF == NEGF
        #: to machine precision); a float = economical production mode,
        #: injecting only channels with Gamma eigenvalue above this
        #: absolute threshold (eV) — the open channels.  This is the knob
        #: that realises the paper's "few RHS per energy" claim.
        self.injection_tol_ev = injection_tol_ev
        self.contacts = Contacts(
            hamiltonian, lead_left, lead_right, eta=eta,
            method=surface_method,
        )

    # ------------------------------------------------------------------
    def self_energies(self, energy: float) -> tuple[LeadSelfEnergy, LeadSelfEnergy]:
        """Contact self-energies at one energy (a stack of one)."""
        sigs_l, sigs_r = self.contacts.self_energies([energy])
        return sigs_l[0], sigs_r[0]

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

    # -- the scalar SuperLU / banded reference -------------------------

    def _factor(self, energy: float):
        """One energy's stack-of-one broadenings and the SuperLU/banded
        factorisation of its system matrix."""
        sigma_l, sigma_r = self.contacts.sigma_stacks([energy])
        diag, upper, lower = assemble_system_blocks(
            self.H, energy, sigma_l[0], sigma_r[0]
        )
        self._charge_flops(1, 0)
        if self.factorization == "banded":
            lu = BandedLU(diag, upper, lower)
        else:
            from ..tb.hamiltonian import BlockTridiagonalHamiltonian as BTH
            import scipy.sparse as sp

            # reuse the CSR assembly of the Hamiltonian container (BTH
            # assumes hermitian coupling = upper^H, which matches `lower`)
            lu = SparseLU(sp.csc_matrix(BTH(diag, upper).to_csr()))
        return lu, broadening(sigma_l), broadening(sigma_r)

    def _scattering_states(self, lu, gamma: np.ndarray, offset: int):
        """psi_m = A^{-1} w_m for every injected channel of one contact,
        as a ``(1, n_total, c)`` stack, and the contact's open channels."""
        ev, vec, width = self._injection(gamma)
        w = sliver_stack(ev[0], vec[0], int(width[0]))
        rhs = np.zeros((self.H.total_size, w.shape[1]), dtype=complex)
        rhs[offset : offset + w.shape[0]] = w
        self._charge_flops(0, w.shape[1])
        return np.ascontiguousarray(lu.solve(rhs))[None], open_channels(ev)

    def solve(self, energy: float) -> WFResult:
        """Scattering states, transmission and spectral densities at E.

        The SuperLU/banded reference of :meth:`solve_batch`: one scalar
        factorisation, then the same stacked :meth:`_observables` on a
        stack of one.
        """
        energy = float(energy)
        with trace_span("wf.solve", category="kernel", energy=energy):
            lu, gam_l, gam_r = self._factor(energy)
            psi_l, n_open_l = self._scattering_states(lu, gam_l, 0)
            psi_r, n_open_r = self._scattering_states(
                lu, gam_r, int(self.H.block_offsets()[-2])
            )
            return self._observables(
                np.array([energy]), psi_l, psi_r, gam_l, gam_r,
                n_open_l, n_open_r,
            )[0]

    def transmission(self, energy: float) -> float:
        """T(E) only (still one factorisation + n_open back-substitutions)."""
        lu, gam_l, gam_r = self._factor(float(energy))
        psi_l, _ = self._scattering_states(lu, gam_l, 0)
        last = int(self.H.block_offsets()[-2])
        return float(_transmission(psi_l[:, last:], gam_r)[0])

    # -- the one observables function, over the energy axis ------------

    def _observables(self, energies, psi_l, psi_r, gam_l, gam_r,
                     n_open_l, n_open_r) -> list:
        """All WF observables of a stack from its scattering states.

        ``psi_l`` / ``psi_r`` are the ``(B, n_total, c)`` left- and
        right-injected states of B energies that inject the same number
        of channels per contact; every observable is a stacked
        GEMM/ufunc call over the energy axis.  The states are consumed:
        their last use squares them in place.
        """
        offsets = self.H.block_offsets().tolist()
        # T = sum_m psi_m^+ Gamma_R psi_m over left-injected states
        t = _transmission(psi_l[:, offsets[-2]:], gam_r)
        reflection = np.maximum(n_open_l - t, 0.0)

        currents = _interface_currents(psi_l, self.H.upper, offsets)

        spectral_l = _row_norms(psi_l) / (2.0 * np.pi)
        spectral_r = _row_norms(psi_r) / (2.0 * np.pi)
        # -Im diag(G)/pi = (A_L + A_R)_ii / (2 pi) * 2 in the coherent limit
        dos = 2.0 * (spectral_l + spectral_r)

        sentinel = get_sentinel()
        if sentinel.enabled:
            sentinel.check_finite(
                "wf", t, spectral_l, spectral_r, currents,
                detail=f"batch of {len(energies)}",
            )
        energies, t, reflection = (
            energies.tolist(), t.tolist(), reflection.tolist()
        )
        n_open_l, n_open_r = n_open_l.tolist(), n_open_r.tolist()
        monitor = get_monitor()
        if monitor.enabled:
            for b, energy in enumerate(energies):
                monitor.check_gamma(gam_l[b], kernel="wf", side="left",
                                    energy=energy)
                monitor.check_gamma(gam_r[b], kernel="wf", side="right",
                                    energy=energy)
                if min(n_open_l[b], n_open_r[b]) > 0:
                    monitor.check_transmission(
                        t[b], min(n_open_l[b], n_open_r[b]), kernel="wf",
                        energy=energy,
                    )
                    monitor.check_current_conservation(
                        currents[b], t[b], kernel="wf", energy=energy,
                    )
                monitor.check_density(spectral_l[b], kernel="wf",
                                      side="left", energy=energy)
                monitor.check_density(spectral_r[b], kernel="wf",
                                      side="right", energy=energy)
        return [
            WFResult(
                energy=energy,
                transmission=t[b],
                reflection=reflection[b],
                dos=dos[b],
                spectral_left=spectral_l[b],
                spectral_right=spectral_r[b],
                n_channels_left=n_open_l[b],
                n_channels_right=n_open_r[b],
                interface_currents=currents[b],
            )
            for b, energy in enumerate(energies)
        ]

    # ------------------------------------------------------------------
    def solve_batch(self, energies) -> list[WFResult]:
        """WF solves for a batch of energies via stacked block-LU calls.

        Semantically ``[self.solve(E) for E in energies]``.  The batched
        path factors the system matrices with the stacked
        :class:`repro.solvers.BlockTridiagLU` (instead of B
        SuperLU/banded factorisations) and solves the injection RHS of
        all energies of equal channel counts together
        (:meth:`kernel_stage`).  Flops follow the Gordon Bell convention
        of the per-point path: ``wf.factor`` and ``wf.backsub`` are
        charged the analytic banded-algorithm cost at the *actual*
        per-energy channel counts, independent of the executing backend
        — so the batched measured counts equal the sum of the per-point
        charges, and the uninstrumented batched LU adds nothing on top.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        if energies.size == 0:
            return []
        with trace_span(
            "wf.solve_batch", category="kernel",
            n_energies=int(energies.size),
        ):
            return self.kernel_stage(
                energies, *self.contacts.sigma_stacks(energies)
            )

    def kernel_stage(self, energies, sigma_l, sigma_r) -> list[WFResult]:
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
        stack-mates), so the result for an energy never depends on which
        energies share its stack.
        """
        energies = np.asarray(energies, dtype=float)
        n = self.H.n_blocks
        gam_l, gam_r = broadening(sigma_l), broadening(sigma_r)
        ev_l, vec_l, width_l = self._injection(gam_l)
        ev_r, vec_r, width_r = self._injection(gam_r)
        n_open_l, n_open_r = open_channels(ev_l), open_channels(ev_r)
        self._charge_flops(energies.size, int(width_l.sum() + width_r.sum()))
        results: list = [None] * energies.size
        for idx in equal_width_groups(width_l, width_r):
            lu = BlockTridiagLU(
                *assemble_system_blocks(
                    self.H, energies[idx], sigma_l[idx], sigma_r[idx]
                ),
                instrument=False,
            )
            psi_l = lu.block_column(
                0, sliver_stack(ev_l[idx], vec_l[idx], width_l[idx[0]])
            )
            psi_r = lu.block_column(
                n - 1, sliver_stack(ev_r[idx], vec_r[idx], width_r[idx[0]])
            )
            group = self._observables(
                energies[idx], psi_l, psi_r, gam_l[idx], gam_r[idx],
                n_open_l[idx], n_open_r[idx],
            )
            for b, res in zip(idx.tolist(), group):
                results[b] = res
        return results


def _transmission(block_r: np.ndarray, gam_r: np.ndarray) -> np.ndarray:
    """``T = sum_m psi_m^+ Gamma_R psi_m`` per energy of a stack, from the
    last-slab block ``(B, m, c)`` of its left-injected states: one
    ``Gamma_R @ psi`` GEMM and an elementwise sum."""
    return _inner_real(block_r, gam_r @ block_r)


def _interface_currents(psi_l: np.ndarray, hops, offsets) -> np.ndarray:
    """Left-injected current across every slab interface, ``(B, N - 1)``:
    one ``hop @ psi`` GEMM per interface for the whole stack and an
    elementwise inner product; equals T at each interface in coherent
    transport."""
    currents = np.empty((len(psi_l), len(hops)))
    for i, hop in enumerate(hops):
        currents[:, i] = -2.0 * _inner_imag(
            psi_l[:, offsets[i] : offsets[i + 1]],
            hop @ psi_l[:, offsets[i + 1] : offsets[i + 2]],
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
    place through its interleaved (re, im) view (no state-sized copy)."""
    v = psi.view(float)
    return np.square(v, out=v).sum(axis=-1)
