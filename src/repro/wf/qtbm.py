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

The factorisation backend is selectable: SuperLU on the CSR matrix
(default) or LAPACK banded — the same kernels benchmarked in F8.
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
from ..negf.rgf import assemble_system_blocks
from ..negf.self_energy import Contacts, LeadSelfEnergy

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
        sigma_cache=None,
        lead_tokens=None,
        precision=None,
    ):
        if hamiltonian.n_blocks < 2:
            raise ValueError("transport needs at least 2 slabs")
        if factorization not in ("sparse", "banded"):
            raise ValueError("factorization must be 'sparse' or 'banded'")
        from ..solvers.precision import resolve_precision

        if resolve_precision(precision) != "fp64":
            # the WF path runs on sparse/banded LAPACK factorisations,
            # which the per-kernel validation showed gain nothing from
            # complex64 — only the dense block kernels of RGF do
            raise ValueError(
                "WFSolver supports precision='fp64' only; use "
                "solver='rgf' for mixed- or single-precision transport"
            )
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
            method=surface_method, cache=sigma_cache, tokens=lead_tokens,
        )

    # ------------------------------------------------------------------
    def self_energies(self, energy: float) -> tuple[LeadSelfEnergy, LeadSelfEnergy]:
        """Contact self-energies at one energy (a stack of one)."""
        sigs_l, sigs_r = self.contacts.self_energies([energy])
        return sigs_l[0], sigs_r[0]

    def _factor(self, energy, sig_l, sig_r):
        diag, upper, lower = assemble_system_blocks(
            self.H, energy, sig_l.sigma, sig_r.sigma
        )
        tracer = get_tracer()
        if tracer.enabled:
            # Gordon Bell convention: the banded/sparse factorisation is
            # charged its analytic cost at the actual block sizes (8 m^3
            # per block), independent of the backend that executes it
            tracer.add_flops(
                "wf.factor",
                sum(8.0 * float(d.shape[0]) ** 3 for d in diag),
            )
        if self.factorization == "banded":
            return BandedLU(diag, upper, lower)
        from ..tb.hamiltonian import BlockTridiagonalHamiltonian as BTH
        import scipy.sparse as sp

        # reuse the CSR assembly of the Hamiltonian container
        A = BTH(diag, upper).to_csr()
        # BTH assumes hermitian coupling = upper^H, which matches `lower`
        return SparseLU(sp.csc_matrix(A))

    def _injection(self, sigma: LeadSelfEnergy) -> np.ndarray:
        if self.injection_tol_ev is None:
            return sigma.injection_vectors(tol=1e-10)
        gamma = sigma.gamma
        ev, U = np.linalg.eigh(gamma)
        keep = ev > self.injection_tol_ev
        return U[:, keep] * np.sqrt(ev[keep])[None, :]

    def _scattering_states(self, lu, sigma: LeadSelfEnergy, offset: int):
        """psi_m = A^{-1} w_m for every open channel of one contact."""
        W = self._injection(sigma)
        n = self.H.total_size
        if W.shape[1] == 0:
            return np.zeros((n, 0), dtype=complex)
        rhs = np.zeros((n, W.shape[1]), dtype=complex)
        rhs[offset : offset + W.shape[0], :] = W
        tracer = get_tracer()
        if tracer.enabled:
            # 16 m^2 per block per injected channel (triangular sweeps)
            tracer.add_flops(
                "wf.backsub",
                W.shape[1]
                * sum(16.0 * float(s) ** 2 for s in self.H.block_sizes),
            )
        return lu.solve(rhs)

    def solve(self, energy: float) -> WFResult:
        """Scattering states, transmission and spectral densities at E."""
        with trace_span("wf.solve", category="kernel", energy=float(energy)):
            return self._solve(energy)

    def _solve(self, energy: float) -> WFResult:
        sig_l, sig_r = self.self_energies(energy)
        lu = self._factor(energy, sig_l, sig_r)
        offsets = self.H.block_offsets()
        last = int(offsets[-2])

        psi_l = self._scattering_states(lu, sig_l, 0)
        psi_r = self._scattering_states(lu, sig_r, last)
        return self._observables(energy, psi_l, psi_r, sig_l, sig_r)

    def _observables(self, energy, psi_l, psi_r, sig_l, sig_r) -> WFResult:
        """All WF observables from the scattering states of one energy."""
        offsets = self.H.block_offsets()
        last = int(offsets[-2])
        gam_l = sig_l.gamma
        gam_r = sig_r.gamma
        m_r = gam_r.shape[0]

        # T = sum_m psi_m^+ Gamma_R psi_m over left-injected states
        block_r = psi_l[last : last + m_r, :]
        transmission = float(
            np.einsum("im,ij,jm->", block_r.conj(), gam_r, block_r).real
        )
        n_open_l = sig_l.n_open_channels()
        reflection = max(n_open_l - transmission, 0.0)

        spectral_l = (np.abs(psi_l) ** 2).sum(axis=1) / (2.0 * np.pi)
        spectral_r = (np.abs(psi_r) ** 2).sum(axis=1) / (2.0 * np.pi)
        # -Im diag(G)/pi = (A_L + A_R)_ii / (2 pi) * 2 in the coherent limit
        dos = 2.0 * (spectral_l + spectral_r)

        # spatially resolved left-injected current across every interface;
        # equals T at each of them in coherent transport
        currents = np.empty(self.H.n_blocks - 1)
        for i, hop in enumerate(self.H.upper):
            a = psi_l[offsets[i] : offsets[i + 1], :]
            b = psi_l[offsets[i + 1] : offsets[i + 2], :]
            currents[i] = -2.0 * float(
                np.imag(np.einsum("im,ij,jm->", a.conj(), hop, b))
            )

        n_open_r = sig_r.n_open_channels()
        sentinel = get_sentinel()
        if sentinel.enabled:
            sentinel.check_finite(
                "wf", transmission, spectral_l, spectral_r, currents,
                detail=f"E={energy:.6g}",
            )
        monitor = get_monitor()
        if monitor.enabled:
            monitor.check_gamma(gam_l, kernel="wf", side="left",
                                energy=energy)
            monitor.check_gamma(gam_r, kernel="wf", side="right",
                                energy=energy)
            if min(n_open_l, n_open_r) > 0:
                monitor.check_transmission(
                    transmission, min(n_open_l, n_open_r), kernel="wf",
                    energy=energy,
                )
                monitor.check_current_conservation(
                    currents, transmission, kernel="wf",
                    energy=energy,
                )
            monitor.check_density(spectral_l, kernel="wf", side="left",
                                  energy=energy)
            monitor.check_density(spectral_r, kernel="wf", side="right",
                                  energy=energy)
        return WFResult(
            energy=energy,
            transmission=transmission,
            reflection=reflection,
            dos=dos,
            spectral_left=spectral_l,
            spectral_right=spectral_r,
            n_channels_left=n_open_l,
            n_channels_right=n_open_r,
            interface_currents=currents,
        )

    def transmission(self, energy: float) -> float:
        """T(E) only (still one factorisation + n_open back-substitutions)."""
        sig_l, sig_r = self.self_energies(energy)
        lu = self._factor(energy, sig_l, sig_r)
        offsets = self.H.block_offsets()
        last = int(offsets[-2])
        psi_l = self._scattering_states(lu, sig_l, 0)
        gam_r = sig_r.gamma
        block_r = psi_l[last : last + gam_r.shape[0], :]
        return float(np.einsum("im,ij,jm->", block_r.conj(), gam_r, block_r).real)

    # ------------------------------------------------------------------
    def solve_batch(self, energies) -> list[WFResult]:
        """WF solves for a batch of energies via stacked block-LU calls.

        Semantically ``[self.solve(E) for E in energies]``.  The batched
        path factors all B system matrices with one
        stacked :class:`repro.solvers.BlockTridiagLU` (instead of B
        SuperLU/banded factorisations) and solves the injection RHS of
        every energy together, zero-padding each energy's channel block
        to the batch-wide maximum (padding columns are exactly zero and
        are sliced away before any observable).  Flops follow the Gordon
        Bell convention of the per-point path: ``wf.factor`` and
        ``wf.backsub`` are charged the analytic banded-algorithm cost at
        the *actual* per-energy channel counts, independent of the
        executing backend — so the batched measured counts equal the sum
        of the per-point charges, and the uninstrumented batched LU adds
        nothing on top.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        if energies.size == 0:
            return []
        with trace_span(
            "wf.solve_batch", category="kernel",
            n_energies=int(energies.size),
        ):
            return self._solve_batch(energies)

    def _solve_batch(self, energies: np.ndarray) -> list[WFResult]:
        n_batch = energies.size
        sigs_l, sigs_r = self.contacts.self_energies(energies)
        n = self.H.n_blocks
        diag, upper, lower = assemble_system_blocks(
            self.H, energies,
            np.stack([s.sigma for s in sigs_l]),
            np.stack([s.sigma for s in sigs_r]),
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_flops(
                "wf.factor",
                n_batch * sum(8.0 * float(s) ** 3 for s in self.H.block_sizes),
            )
        lu = BlockTridiagLU(diag, upper, lower, instrument=False)

        W_l = [self._injection(s) for s in sigs_l]
        W_r = [self._injection(s) for s in sigs_r]
        if tracer.enabled:
            per_block = sum(16.0 * float(s) ** 2 for s in self.H.block_sizes)
            n_rhs_total = sum(w.shape[1] for w in W_l + W_r)
            if n_rhs_total:
                tracer.add_flops("wf.backsub", n_rhs_total * per_block)

        psi_l = self._batched_states(lu, W_l, block=0)
        psi_r = self._batched_states(lu, W_r, block=n - 1)

        results = []
        for b, energy in enumerate(energies):
            res = self._observables(
                float(energy),
                psi_l[b, :, : W_l[b].shape[1]],
                psi_r[b, :, : W_r[b].shape[1]],
                sigs_l[b],
                sigs_r[b],
            )
            results.append(res)
        return results

    def _batched_states(self, lu, W_list, block: int) -> np.ndarray:
        """Stacked scattering states (B, n_total, r_max) of one contact.

        ``W_list[b]`` holds energy b's injection vectors; all energies
        solve together against a common RHS width r_max (zero columns
        for energies with fewer open channels — A x = 0 gives x = 0
        exactly, so the padding never leaks into real columns).
        """
        n_batch = len(W_list)
        r_max = max((w.shape[1] for w in W_list), default=0)
        n_total = self.H.total_size
        if r_max == 0:
            return np.zeros((n_batch, n_total, 0), dtype=complex)
        rhs = [
            np.zeros((n_batch, int(m), r_max), dtype=complex)
            for m in self.H.block_sizes
        ]
        for b, W in enumerate(W_list):
            if W.shape[1]:
                rhs[block][b, : W.shape[0], : W.shape[1]] = W
        x = lu.solve(rhs)
        return np.concatenate(x, axis=1)
