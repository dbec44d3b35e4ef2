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

from ..errors import PrecisionEscalationError
from ..observability.invariants import get_monitor
from ..observability.metrics import get_metrics
from ..observability.tracer import trace_span
from ..resilience.health import get_sentinel
from ..solvers.block_tridiagonal import BlockTridiagLU
from ..solvers.precision import (
    W_TOL,
    refined_sliver_solve,
    resolve_precision,
)
from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from .self_energy import Contacts, LeadSelfEnergy, broadening, open_channels

__all__ = [
    "RGFResult",
    "RGFSolver",
    "assemble_system_blocks",
    "equal_width_groups",
    "injection_slivers",
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


def injection_slivers(gamma_stack: np.ndarray, tol: float = W_TOL) -> list:
    """Per-slice injection slivers ``W_b`` with ``Gamma_b ~ W_b W_b^+``.

    Batched eigendecomposition of the broadening stacks; eigenpairs
    below ``tol * lambda_max`` (finite-eta leakage of closed channels,
    not physics) are dropped.  Returns one 2-D ``(m, c_b)`` array per
    slice — widths deliberately stay ragged (callers group slices of
    equal width, see :func:`equal_width_groups`).  A slice with no
    channel above the cutoff gets a single zero column (all its
    observables are exact zeros).
    """
    ev, vec = np.linalg.eigh(gamma_stack)
    scale = np.maximum(ev.max(axis=1), 1e-300)
    widths = np.sum(ev > tol * scale[:, None], axis=1)
    return [
        sliver_stack(ev[b], vec[b], c) if c
        else np.zeros((ev.shape[1], 1), dtype=vec.dtype)
        for b, c in enumerate(widths)
    ]


def _grouped_refine(lu32, diag64, upper64, lower64, j, w_list, diag32):
    """Refined sliver solves grouped by injection width.

    Partitions the batch into groups of equal sliver column count (a
    deterministic per-slice property of Gamma) and runs one
    :func:`~repro.solvers.precision.refined_sliver_solve` per group at
    exactly that width — the construction that keeps every slice's
    result bitwise independent of which energies share a chunk.

    Returns ``(x_front, row_norms, escalate, reasons)``: the block-0
    solution column per slice (feeds the transmission product), the
    per-slice concatenated row norms ``sum_c |x_i|^2`` (the spectral
    density up to ``1/2pi``), and the per-slice escalation flags and
    reason strings.
    """
    n_batch = len(w_list)
    total_m = int(np.sum(lu32.sizes))
    row_norms = np.empty((n_batch, total_m))
    x_front: list = [None] * n_batch
    escalate = np.zeros(n_batch, dtype=bool)
    reasons = np.empty(n_batch, dtype=object)
    reasons[:] = ""
    for idx in equal_width_groups(np.array([w.shape[1] for w in w_list])):
        rhs = np.stack([w_list[b] for b in idx])
        ref = refined_sliver_solve(
            lu32, diag64, upper64, lower64, j, rhs,
            diag32=diag32, take=idx,
        )
        row_norms[idx] = np.concatenate(
            [np.add.reduce(np.abs(xi) ** 2, axis=2) for xi in ref.x],
            axis=1,
        )
        for k, b in enumerate(idx):
            x_front[b] = ref.x[0][k]
        escalate[idx] = ref.escalate
        reasons[idx] = ref.reasons
    return x_front, row_norms, escalate, reasons


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
    precision : {"fp64", "mixed", "fp32"} or None
        Numeric execution mode.  ``None``/``"fp64"`` is the historical
        complex128 path, bit-identical to every prior release.
        ``"mixed"`` factors in complex64 and certifies each energy with
        double-precision iterative refinement (sliver observables;
        self-energies stay fp64); uncertifiable energies come back as
        ``None`` from :meth:`solve_batch` and raise
        :class:`~repro.errors.PrecisionEscalationError` from
        :meth:`solve` so the caller's degradation ladder re-solves them
        on the FP64 path.  ``"fp32"`` is pure complex64 screening
        (including the decimation) with no certification.  The raw
        solver never reads ``REPRO_PRECISION`` — only
        :class:`~repro.core.TransportCalculation` consumes the
        environment, mirroring ``REPRO_BACKEND``.
    refine_faults : iterable of float or None
        Deterministic fault injection for the chaos campaign: mixed-mode
        energies in this set are treated as refinement stalls (escalated
        with ``injected=True``) regardless of their actual residual.
    """

    def __init__(
        self,
        hamiltonian: BlockTridiagonalHamiltonian,
        lead_left=None,
        lead_right=None,
        eta: float = 1e-6,
        surface_method: str = "sancho",
        precision=None,
        refine_faults=None,
    ):
        if hamiltonian.n_blocks < 2:
            raise ValueError("transport needs at least 2 slabs")
        self.precision = resolve_precision(precision)
        if self.precision == "fp32":
            # round the operator once, up front: the screening operator
            # *is* the complex64 Hamiltonian
            hamiltonian = BlockTridiagonalHamiltonian(
                diagonal=[
                    np.ascontiguousarray(d, dtype=np.complex64)
                    for d in hamiltonian.diagonal
                ],
                upper=[
                    np.ascontiguousarray(u, dtype=np.complex64)
                    for u in hamiltonian.upper
                ],
            )
        self.H = hamiltonian
        self.refine_faults = (
            frozenset(float(e) for e in refine_faults)
            if refine_faults
            else frozenset()
        )
        self.contacts = Contacts(
            hamiltonian, lead_left, lead_right, eta=eta,
            method=surface_method,
            dtype=np.complex64 if self.precision == "fp32" else None,
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
        In ``precision="mixed"`` an uncertifiable energy raises
        :class:`~repro.errors.PrecisionEscalationError` — the caller
        (typically the transport degradation ladder) re-solves it on a
        FP64 solver, bit-identically to a pure-FP64 run.
        """
        energy = float(energy)
        with trace_span("rgf.solve", category="kernel", energy=energy):
            results, reasons = self._solve_batch(np.array([energy]))
        if results[0] is None:
            reason, injected = reasons[0]
            raise PrecisionEscalationError(
                f"mixed-precision refinement could not certify "
                f"E={energy:.6g} ({reason})",
                energy=energy,
                reason=reason,
                injected=injected,
            )
        return results[0]

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

        In ``precision="mixed"`` the returned list holds ``None`` at
        energies whose refinement could not be certified — the caller
        re-solves exactly those points on the FP64 path.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        if energies.size == 0:
            return []
        with trace_span(
            "rgf.solve_batch", category="kernel",
            n_energies=int(energies.size),
        ):
            return self._solve_batch(energies)[0]

    # -- typed escalation to full FP64 ---------------------------------

    def fp64_solver(self) -> "RGFSolver":
        """The full-FP64 escalation twin of this solver (cached).

        Shares the Hamiltonian, leads, eta and surface method (mixed-mode
        self-energies are already full FP64, so the twin recomputes the
        very same ones bit-for-bit).  A pure-FP64 solver is its own twin.
        """
        if self.precision == "fp64":
            return self
        twin = getattr(self, "_fp64_twin", None)
        if twin is None:
            c = self.contacts
            twin = RGFSolver(
                self.H, lead_left=c.left, lead_right=c.right, eta=c.eta,
                surface_method=c.method, precision="fp64",
            )
            self._fp64_twin = twin
        return twin

    def solve_escalating(self, energy: float) -> RGFResult:
        """:meth:`solve`, with an escalated energy re-solved in FP64."""
        return self.solve_batch_escalating([energy])[0]

    def solve_batch_escalating(self, energies) -> list[RGFResult]:
        """:meth:`solve_batch`, with escalated energies re-solved in FP64.

        The re-solve runs wherever the escalation was detected (worker
        or parent), so the ``precision.fp64_escalations`` counter is
        incremented exactly once per escalated energy no matter which
        execution backend dispatched it — and the answer is bit-identical
        to what a pure-FP64 run produces for that energy.
        """
        energies = np.asarray(energies, dtype=float).ravel()
        results = self.solve_batch(energies)
        metrics = get_metrics()
        for i, res in enumerate(results):
            if res is None:
                metrics.inc("precision.fp64_escalations", 1.0)
                results[i] = self.fp64_solver().solve(float(energies[i]))
        return results

    # -- the one stacked implementation --------------------------------

    def _results(self, energies, t, dos, spectral_l, spectral_r,
                 gam_l, gam_r, skip=None) -> list:
        """Per-energy result objects (None where ``skip``), invariants checked.

        The open-channel counts are one stacked ``eigvalsh`` per contact;
        the only per-energy work besides building the result objects is
        the invariant checks, and only under a live monitor.
        """
        n_l = open_channels(np.linalg.eigvalsh(gam_l)).tolist()
        n_r = open_channels(np.linalg.eigvalsh(gam_r)).tolist()
        energies = energies.tolist()
        t = t.tolist()
        if skip is None:
            skip = [False] * len(energies)
        monitor = get_monitor()
        if monitor.enabled:
            for b, energy in enumerate(energies):
                if skip[b]:
                    continue
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
            None if skip[b] else RGFResult(
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

    def _solve_batch(self, energies: np.ndarray):
        """Solve one stack; returns ``(results, reasons)``.

        ``reasons`` is None outside mixed precision (nothing escalates);
        in mixed precision ``results[b]`` is None for escalated slices
        and ``reasons[b] = (reason, injected)``.
        """
        sigmas = self.contacts.sigma_stacks(energies)
        if self.precision == "mixed":
            return self._mixed_stage(energies, *sigmas)
        return self.kernel_stage(energies, *sigmas), None

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
            *assemble_system_blocks(self.H, energies, sigma_l, sigma_r),
            dtype=np.complex64 if self.precision == "fp32" else None,
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

    def _mixed_stage(self, energies, sigma_l, sigma_r):
        """complex64 factorisation + fp64-refined sliver observables.

        Per batch slice:

        * self-energies stay full FP64 (the per-kernel validation showed
          the decimation cannot be certified in fp32),
        * the system matrix is assembled in fp64, rounded once to
          complex64 and factored by the stacked block LU,
        * transmission and contact spectral densities come from two
          refined injection-sliver solves (``j=0`` with W_L, ``j=N-1``
          with W_R): ``T = ||W_L^+ G_{0,N-1} W_R||_F^2``, spectral
          densities are sliver row norms — certified to the
          backward-error target by fp64 iterative refinement,
        * the LDOS is the fp32 selected inversion (declared loose
          tolerance; it never feeds the current integral).

        Returns ``(results, reasons)`` as :meth:`_solve_batch` documents.
        """
        n = self.H.n_blocks
        diag64, upper64, lower64 = assemble_system_blocks(
            self.H, energies, sigma_l, sigma_r
        )
        diag32 = [
            np.ascontiguousarray(d, dtype=np.complex64) for d in diag64
        ]
        lu32 = BlockTridiagLU(diag32, upper64, lower64, dtype=np.complex64)

        gam_l, gam_r = broadening(sigma_l), broadening(sigma_r)
        w_l = injection_slivers(gam_l)
        w_r = injection_slivers(gam_r)
        x0_l, spectral_l, esc_l, reas_l = _grouped_refine(
            lu32, diag64, upper64, lower64, 0, w_l, diag32
        )
        x0_r, spectral_r, esc_r, reas_r = _grouped_refine(
            lu32, diag64, upper64, lower64, n - 1, w_r, diag32
        )

        # T = ||W_L^+ G_{0,N-1} W_R||_F^2; per-slice 2-D GEMMs because
        # the sliver widths are ragged by design (see injection_slivers)
        t = np.empty(energies.size)
        for b in range(energies.size):
            twl = w_l[b].conj().T @ x0_r[b]
            t[b] = float(np.add.reduce(np.abs(twl) ** 2, axis=(0, 1)))
        spectral_l = spectral_l / (2.0 * np.pi)
        spectral_r = spectral_r / (2.0 * np.pi)
        gdiag = lu32.diagonal_of_inverse()
        dos = -np.concatenate(
            [np.diagonal(g, axis1=1, axis2=2).imag for g in gdiag], axis=1
        ).astype(np.float64) / np.pi

        escalate = esc_l | esc_r
        reasons = []
        for b in range(energies.size):
            if esc_l[b]:
                reasons.append((str(reas_l[b]), False))
            elif esc_r[b]:
                reasons.append((str(reas_r[b]), False))
            else:
                reasons.append(("", False))
        metrics = get_metrics()
        if self.refine_faults:
            for b, energy in enumerate(energies):
                if float(energy) in self.refine_faults and not escalate[b]:
                    escalate[b] = True
                    reasons[b] = ("stall", True)
                    metrics.inc("precision.injected_stalls", 1.0)

        ok = ~escalate
        sentinel = get_sentinel()
        if sentinel.enabled and ok.any():
            sentinel.check_finite(
                "rgf", t[ok], spectral_l[ok], spectral_r[ok], dos[ok],
                detail=f"mixed batch of {int(ok.sum())}",
            )
        if metrics.enabled and ok.any():
            metrics.inc("precision.points_certified", float(ok.sum()))
        return self._results(
            energies, t, dos, spectral_l, spectral_r, gam_l, gam_r,
            skip=escalate,
        ), reasons
