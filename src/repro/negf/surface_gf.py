"""Surface Green's functions of semi-infinite contact leads.

The open boundary conditions of both transport kernels enter through the
retarded surface Green's function g of each semi-infinite lead.  Two
independent algorithms are implemented (they cross-validate each other in
the tests, and their speed/robustness trade-off is an ablation benchmark):

* :func:`sancho_rubio_batch` — the decimation scheme of Lopez Sancho,
  Lopez Sancho & Rubio (J. Phys. F 15, 851 (1985)): quadratically
  convergent fixed point, needs only matrix products and inverses, robust
  everywhere (the production default), run on a whole stack of energies;
  :func:`sancho_rubio` is its stack of one;
* :func:`eigen_surface_gf` — the complex-band/transfer-matrix method: one
  generalized eigenproblem yields all propagating and evanescent lead
  modes, from which the Bloch propagation matrix F and g follow in closed
  form.  Also exposes the lead mode data (:func:`lead_modes`) used for
  channel counting.

Conventions
-----------
A lead is an infinite repetition of cells with on-site block ``h00`` and
coupling ``h01`` = <cell n | H | cell n+1>.

* ``side="left"``: the lead occupies cells ..., -2, -1 and couples to
  device slab 0; its surface GF obeys ``g = [E - h00 - h01^+ g h01]^{-1}``.
* ``side="right"``: the lead occupies cells N, N+1, ... and couples to
  device slab N-1; ``g = [E - h00 - h01 g h01^+]^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from ..errors import SurfaceGFConvergenceError
from ..observability.metrics import get_metrics, metric_key
from ..observability.tracer import get_tracer
from ..perf.flops import sancho_rubio_flops
from ..resilience.health import get_sentinel

__all__ = [
    "sancho_rubio",
    "sancho_rubio_batch",
    "eigen_surface_gf",
    "lead_modes",
    "LeadModes",
]

# pre-flattened histogram keys: this observe runs once per self-energy
# evaluation, i.e. twice per energy point per SCF iteration
_ITER_KEYS = {
    side: metric_key("surface_gf.iterations", {"side": side})
    for side in ("left", "right")
}


def _surface_health_check(g, energies, eta, h00, h01, side) -> None:
    """Post-solve sentinel on a ``(B, m, m)`` stack: finiteness plus the
    *physical* fixed-point residual ``(z - h00)g - h01~ g h01~ g - I``
    (with ``h01~`` the side-appropriate coupling) — a converged-looking
    decimation whose g does not satisfy its own defining equation is
    silently wrong.  Three extra GEMMs against the ~8 per decimation
    iteration: ~1-2% overhead.
    """
    sentinel = get_sentinel()
    if not sentinel.enabled:
        return
    finite = np.isfinite(g)
    if not finite.all():
        bad = float(energies[~finite.all(axis=(1, 2))][0])
        sentinel.trip("surface_gf", "nonfinite", detail=f"side={side} E={bad:.6g}")
        return
    eye = np.eye(h00.shape[-1])
    z = (energies + 1j * eta)[:, None, None] * eye
    t1 = (z - h00) @ g
    if side == "left":
        t2 = h01.conj().T @ g @ h01 @ g
    else:
        t2 = h01 @ g @ h01.conj().T @ g
    r = t1 - t2 - eye
    # backward-relative: near a band edge g ~ 1/eta blows up the absolute
    # residual by rounding alone; scale by the terms that produced it
    scale = max(1.0, float(np.abs(t1).max()), float(np.abs(t2).max()))
    res = float(np.abs(r).max()) / scale
    sentinel.check_residual(
        "surface_gf", res, detail=f"side={side} fixed-point residual"
    )


def _decimation_dtype(dtype) -> tuple[np.dtype, float]:
    """Resolve the working dtype of a decimation and its tolerance floor.

    complex64 iterations plateau at ``~u32 * ||h01||`` instead of
    converging to 1e-14, so the fixed-point tolerance is floored at
    ``100 * eps(float32) ~ 1.2e-5`` — comfortably above the measured
    rounding plateau (~5e-7) while still deep in the quadratic regime.
    """
    cdt = np.dtype(np.complex128 if dtype is None else dtype)
    if cdt == np.dtype(np.complex64):
        return cdt, 100.0 * float(np.finfo(np.float32).eps)
    if cdt != np.dtype(np.complex128):
        raise ValueError(
            f"surface-GF dtype must be complex64 or complex128, got {cdt}"
        )
    return cdt, 0.0


def sancho_rubio(
    energy: float,
    h00: np.ndarray,
    h01: np.ndarray,
    side: str = "left",
    eta: float = 1e-6,
    tol: float = 1e-14,
    max_iter: int = 200,
    dtype=None,
) -> tuple[np.ndarray, int]:
    """Retarded surface Green's function at one energy.

    A single energy is a stack of one of :func:`sancho_rubio_batch`
    (same parameters, same errors, same flop charge).

    Returns
    -------
    (g, n_iter) : (ndarray, int)
        Surface GF and the number of decimation steps used.
    """
    g, iters = sancho_rubio_batch(
        [energy], h00, h01, side=side, eta=eta, tol=tol,
        max_iter=max_iter, dtype=dtype,
    )
    return g[0], int(iters[0])


def sancho_rubio_batch(
    energies,
    h00: np.ndarray,
    h01: np.ndarray,
    side: str = "left",
    eta: float = 1e-6,
    tol: float = 1e-14,
    max_iter: int = 200,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Retarded surface Green's functions by decimation, stacked.

    The decimation fixed point is independent per energy, so B energies
    run as one sequence of ``(B, m, m)`` stacked solves and matmuls.
    Converged energies are *compacted out* of the active set, so every
    energy executes exactly the iteration sequence it would run alone —
    same per-slice LAPACK calls, same iteration count, and hence the
    flop charge ``sum_E sancho_rubio_flops(m, it_E)``.

    Parameters
    ----------
    energies : array-like of float
        Real energies E (eV); the retarded limit is taken as E + i*eta.
    h00, h01 : ndarray
        Lead cell blocks (see module conventions).
    side : {"left", "right"}
        Which contact the lead terminates.
    eta : float
        Positive infinitesimal (eV).
    tol : float
        Convergence threshold on ||alpha||_F.
    max_iter : int
        Iteration cap; each iteration doubles the decimated length, so 200
        covers 2^200 cells — non-convergence indicates eta = 0 exactly at a
        band edge.
    dtype : dtype-like, optional
        Working precision; ``None`` is complex128.  complex64 (the
        ``precision="fp32"`` screening mode) floors ``tol`` above the
        single-precision rounding plateau so the fixed point still
        terminates.

    Returns
    -------
    (g, n_iter) : (ndarray (B, m, m), ndarray (B,) int)
        Surface GFs and per-energy decimation step counts.

    Raises
    ------
    SurfaceGFConvergenceError
        If *any* energy fails to converge within ``max_iter`` or goes
        non-finite (reported for the first offending energy).
    """
    cdt, tol_floor = _decimation_dtype(dtype)
    tol = max(tol, tol_floor)
    if side == "left":
        alpha0 = np.array(h01.conj().T, dtype=cdt)
    elif side == "right":
        alpha0 = np.array(h01, dtype=cdt)
    else:
        raise ValueError("side must be 'left' or 'right'")
    if eta <= 0:
        raise ValueError("eta must be positive for a retarded GF")
    energies = np.asarray(energies, dtype=float).ravel()
    n_batch = energies.size
    m = h00.shape[0]
    if n_batch == 0:
        return np.empty((0, m, m), dtype=cdt), np.empty(0, dtype=int)
    eye = np.eye(m)
    z = np.asarray((energies + 1j * eta)[:, None, None] * eye, dtype=cdt)
    eye_stack = np.broadcast_to(np.eye(m, dtype=cdt), (n_batch, m, m))
    alpha = np.ascontiguousarray(
        np.broadcast_to(alpha0, (n_batch, m, m))
    )
    beta = np.ascontiguousarray(
        np.broadcast_to(alpha0.conj().T, (n_batch, m, m))
    )
    eps_s = np.ascontiguousarray(
        np.broadcast_to(np.asarray(h00, dtype=cdt), (n_batch, m, m))
    )
    eps = eps_s.copy()
    active = np.arange(n_batch)
    iters = np.zeros(n_batch, dtype=int)
    g_out = np.empty((n_batch, m, m), dtype=cdt)
    for it in range(1, max_iter + 1):
        g_bulk = np.linalg.solve(z - eps, eye_stack[: active.size])
        agb = alpha @ g_bulk @ beta
        eps_s = eps_s + agb
        eps = eps + agb + beta @ g_bulk @ alpha
        alpha = alpha @ g_bulk @ alpha
        beta = beta @ g_bulk @ beta
        norms = np.sqrt(
            np.add.reduce((alpha.conj() * alpha).real, axis=(1, 2))
        )
        finite = np.isfinite(norms)
        if not finite.all():
            # poisoned input (NaN/Inf lead blocks): the fixed point can
            # never contract — fail fast instead of burning max_iter
            bad = float(energies[active[~finite][0]])
            sentinel = get_sentinel()
            if sentinel.enabled:
                sentinel.trip(
                    "surface_gf", "nonfinite",
                    detail=f"decimation diverged, side={side} E={bad:.6g}",
                )
            raise SurfaceGFConvergenceError(
                f"Sancho-Rubio decimation went non-finite at iteration {it} "
                f"(E = {bad}, eta = {eta}); the lead blocks are poisoned",
                energy=bad,
                eta=eta,
            )
        done = norms < tol
        if done.any():
            idx = active[done]
            iters[idx] = it
            g_out[idx] = np.linalg.solve(
                z[done] - eps_s[done], eye_stack[: idx.size]
            )
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            z = z[keep]
            alpha = np.ascontiguousarray(alpha[keep])
            beta = np.ascontiguousarray(beta[keep])
            eps = np.ascontiguousarray(eps[keep])
            eps_s = np.ascontiguousarray(eps_s[keep])
    else:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("surface_gf.nonconverged", float(active.size), side=side)
        bad = float(energies[active[0]])
        raise SurfaceGFConvergenceError(
            f"Sancho-Rubio did not converge in {max_iter} iterations "
            f"(E = {bad}, eta = {eta}); increase eta",
            energy=bad,
            eta=eta,
        )
    _surface_health_check(g_out, energies, eta, h00, h01, side)
    tracer = get_tracer()
    if tracer.enabled:
        # per iteration: one inversion + four a @ g @ b products (8 GEMMs),
        # plus the final surface inversion — charged only on convergence
        fl = sum(sancho_rubio_flops(m, int(it_e)) for it_e in iters)
        tracer.add_flops("surface_gf.sancho", fl)
    metrics = get_metrics()
    if metrics.enabled:
        key = _ITER_KEYS[side]
        for it_e in iters:
            metrics.observe_key(key, float(it_e))
    return g_out, iters


@dataclass(frozen=True)
class LeadModes:
    """Bloch modes of a lead at one energy.

    Attributes
    ----------
    lambdas : ndarray, complex
        Bloch factors lambda = e^{ikL} of the selected modes (those
        propagating or decaying in the lead's outgoing direction).
    phis : ndarray, shape (m, n_modes)
        Mode vectors (columns).
    velocities : ndarray
        Group velocities (arbitrary positive scale) of the propagating
        modes; 0 for evanescent ones.
    n_propagating : int
        Number of propagating (|lambda| = 1) modes = open channels.
    """

    lambdas: np.ndarray
    phis: np.ndarray
    velocities: np.ndarray
    n_propagating: int


def _solve_quadratic_modes(energy, h00, h01, eta):
    """All generalized eigenpairs of the lead quadratic eigenproblem.

    For psi_n = phi lambda^n:
        h01^+ phi / lambda + (h00 - E) phi + h01 phi lambda = 0.
    Linearised as A v = lambda B v with v = (phi, lambda phi).
    """
    m = h00.shape[0]
    E = energy + 1j * eta
    A = np.zeros((2 * m, 2 * m), dtype=complex)
    B = np.zeros((2 * m, 2 * m), dtype=complex)
    A[:m, m:] = np.eye(m)
    A[m:, :m] = -h01.conj().T
    A[m:, m:] = -(h00 - E * np.eye(m))
    B[:m, :m] = np.eye(m)
    B[m:, m:] = h01
    lam, vec = sla.eig(A, B)
    phis = vec[:m, :]
    return lam, phis


def lead_modes(
    energy: float,
    h00: np.ndarray,
    h01: np.ndarray,
    direction: str = "right",
    eta: float = 1e-9,
    prop_tol: float = 1e-6,
) -> LeadModes:
    """Select the lead modes moving (or decaying) in one direction.

    ``direction="right"`` selects |lambda| < 1 (decaying to +x) plus
    propagating modes with positive group velocity; ``"left"`` the mirror
    set.  For a lead cell of size m exactly m modes are returned (infinite
    lambdas from a singular h01 belong to the complementary set by
    construction).

    Group velocity: v ∝ -2 Im(lambda <phi| h01 |phi>).
    """
    m = h00.shape[0]
    lam, phis = _solve_quadratic_modes(energy, h00, h01, eta)
    selected: list[int] = []
    vels: list[float] = []
    for idx in range(lam.size):
        li = lam[idx]
        if not np.isfinite(li):
            is_right = False
            v = 0.0
        else:
            mod = abs(li)
            if mod < 1.0 - prop_tol:
                is_right = True
                v = 0.0
            elif mod > 1.0 + prop_tol:
                is_right = False
                v = 0.0
            else:
                phi = phis[:, idx]
                nrm = np.linalg.norm(phi)
                if nrm == 0:
                    continue
                phi = phi / nrm
                v = float(-2.0 * np.imag(li * (phi.conj() @ (h01 @ phi))))
                is_right = v > 0
        want_right = direction == "right"
        if is_right == want_right:
            selected.append(idx)
            vels.append(abs(v))
    if direction not in ("left", "right"):
        raise ValueError("direction must be 'left' or 'right'")
    if len(selected) != m:
        raise SurfaceGFConvergenceError(
            f"mode selection found {len(selected)} of {m} modes; "
            "energy may sit exactly on a band edge — increase eta",
            energy=energy,
            eta=eta,
        )
    lam_sel = lam[selected]
    phi_sel = phis[:, selected]
    # normalise columns
    norms = np.linalg.norm(phi_sel, axis=0)
    phi_sel = phi_sel / norms[None, :]
    vels_arr = np.array(vels)
    n_prop = int(np.sum(np.abs(np.abs(lam_sel) - 1.0) <= prop_tol))
    return LeadModes(lam_sel, phi_sel, vels_arr, n_prop)


def eigen_surface_gf(
    energy: float,
    h00: np.ndarray,
    h01: np.ndarray,
    side: str = "left",
    eta: float = 1e-9,
) -> np.ndarray:
    """Surface GF from the complex-band (transfer-matrix) construction.

    For the right lead, outgoing solutions satisfy psi_{n+1} = F psi_n with
    F = Phi Lambda Phi^{-1} built from the rightward modes, and

        g_R = [E - h00 - h01 F]^{-1}.

    For the left lead the mirror relation with the leftward modes and
    F~ = Phi Lambda^{-1} Phi^{-1} (one step deeper into the lead) gives

        g_L = [E - h00 - h01^+ F~]^{-1}.

    Unlike :func:`sancho_rubio` this path is *not* flop-instrumented: its
    cost is one generalized eigenproblem, which the paper's GEMM/LU-based
    operation count (and hence :mod:`repro.perf.flops`) does not model.
    """
    m = h00.shape[0]
    E = (energy + 1j * eta) * np.eye(m)
    if side == "right":
        modes = lead_modes(energy, h00, h01, direction="right", eta=eta)
        F = modes.phis @ np.diag(modes.lambdas) @ np.linalg.pinv(modes.phis)
        return np.linalg.solve(E - h00 - h01 @ F, np.eye(m))
    if side == "left":
        modes = lead_modes(energy, h00, h01, direction="left", eta=eta)
        with np.errstate(divide="ignore"):
            inv_lam = np.where(
                np.isfinite(modes.lambdas) & (np.abs(modes.lambdas) > 0),
                1.0 / modes.lambdas,
                0.0,
            )
        F = modes.phis @ np.diag(inv_lam) @ np.linalg.pinv(modes.phis)
        return np.linalg.solve(E - h00 - h01.conj().T @ F, np.eye(m))
    raise ValueError("side must be 'left' or 'right'")
