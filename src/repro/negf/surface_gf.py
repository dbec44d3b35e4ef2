"""Surface Green's functions of semi-infinite contact leads.

The open boundary conditions of both transport kernels enter through the
retarded surface Green's function g of each semi-infinite lead.  Two
independent algorithms are implemented (they cross-validate each other in
the tests, and their speed/robustness trade-off is an ablation benchmark):

* :func:`sancho_rubio_batch` — the decimation scheme of Lopez Sancho,
  Lopez Sancho & Rubio (J. Phys. F 15, 851 (1985)): quadratically
  convergent fixed point, needs only matrix products and inverses, robust
  everywhere (the production default), run on a whole stack of energies;
  :func:`sancho_rubio` is its stack of one.  A lead coupled by a scalar,
  ``h01 = c I`` (every effective-mass grid lead), runs the same loop in
  the eigenbasis of ``h00``: m independent scalar chains, O(m) a step
  instead of O(m^3), one ``eigh`` per lead and one rotation back.  Its
  rounding is the scalar recursion's — digits are lost where a step
  nearly cancels ``z - eps`` (1e-4 relative at a band centre for
  eta = 1e-6) — but stays in the mode it strikes, where at m it spreads
  over the block;
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
    silently wrong.  Four extra GEMMs per lead, once, against six per
    decimation iteration: a few % overhead.
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


def sancho_rubio(
    energy: float,
    h00: np.ndarray,
    h01: np.ndarray,
    side: str = "left",
    eta: float = 1e-6,
    tol: float = 1e-14,
    max_iter: int = 200,
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
        [energy], h00, h01, side=side, eta=eta, tol=tol, max_iter=max_iter,
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
) -> tuple[np.ndarray, np.ndarray]:
    """Retarded surface Green's functions by decimation, stacked: the
    one-lead caller of the loop :meth:`repro.negf.Contacts.sigma_stacks`
    runs over both leads at once (:func:`_decimate`).

    The decimation fixed point is independent per energy, so B energies
    run as one sequence of ``(B, m, m)`` stacked inversions and GEMMs —
    or, for a lead coupled by ``h01 = c I``, of ``(B, m)`` elementwise
    operations on the eigenvalues of ``h00``, rotated back at the end.
    Converged energies are *compacted out* of the active set, so every
    energy executes exactly the iteration sequence it would run alone —
    same per-slice arithmetic, same iteration count, and hence the flop
    charge ``sum_E sancho_rubio_flops(m, it_E)``.

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
    lead = (h00, h01, side)
    return _decimate(energies, [lead], eta, tol, max_iter)[0]


def _scalar_coupled(h00, h01) -> bool:
    """Whether a lead decimates in its mode basis: ``h01 == c·I`` exactly
    and ``h00`` finite and exactly Hermitian.  Every decimation iterate is
    then a function of ``h00`` alone (times powers of ``c``), so in the
    eigenbasis ``h00 = U diag(d) U^+`` the m x m fixed point is m
    independent scalar chains; any other lead — poisoned blocks included,
    which ``eigh`` must never see — decimates at m."""
    h00, h01 = np.asarray(h00), np.asarray(h01)
    c = h01[0, 0]
    return bool(
        np.isfinite(c)
        and np.array_equal(h01, c * np.eye(h01.shape[0]))
        and np.isfinite(h00).all()
        and np.array_equal(h00, h00.conj().T)
    )


def _decimate(energies, leads, eta, tol=1e-14, max_iter=200):
    """Sancho-Rubio decimation of several leads as one stack.

    ``leads`` is a sequence of ``(h00, h01, side)``; the result is one
    ``(g, n_iter)`` pair per lead, each exactly what
    :func:`sancho_rubio_batch` returns for that lead alone.  Leads of one
    block size and one representation share one stack of S = leads x
    energies slices in lead order (a bias solve: the left slices, then
    the right), so they share every numpy call and the active set
    compacts over their union; a slice never sees its stack-mates, so its
    bits and its iteration count are those of a stack of one.  A mixed
    pair runs lead by lead, as unequal cell sizes do.

    The loop body is one set of lines over two representations, picked by
    :func:`_scalar_coupled`:

    * *dense* — ``(S, m, m)`` stacks of ``z``, ``eps``, ``alpha``,
      ``beta``; a step is one stacked inversion and six GEMMs
      (``alpha @ g`` and ``beta @ g`` are each used twice);
    * *modes* (``h01 = c·I``, the effective-mass grid leads) — ``(S, m)``
      diagonals in the eigenbasis of ``h00`` (one ``eigh`` per lead and
      call, energy independent): ``eps = d``, ``alpha = c`` or ``c*`` by
      side, and the step's products and inversion are ``np.multiply`` /
      ``np.reciprocal`` — O(m) a slice instead of O(m^3).

    The convergence norm is the Frobenius ``||alpha||`` of each slice in
    either form.  A converged slice parks its surface ``eps_s`` and all of
    them are inverted by one closing ``inv`` (or ``reciprocal``, then one
    GEMM a slice rotates ``g = U diag(g_d) U^+`` back), so the health
    check always sees the full-basis ``g``.  The flop charge is the dense
    reference step in both forms (:func:`repro.perf.sancho_rubio_flops`).
    Failures are reported for the lowest stack index, i.e. the left lead
    before the right one — at the step they show: a right lead that goes
    non-finite at step k is reported then, even if the left one would run
    out of ``max_iter`` later.
    """
    if any(side not in ("left", "right") for _, _, side in leads):
        raise ValueError("side must be 'left' or 'right'")
    if eta <= 0:
        raise ValueError("eta must be positive for a retarded GF")
    energies = np.asarray(energies, dtype=float).ravel()
    n_batch = energies.size
    modes = {_scalar_coupled(h00, h01) for h00, h01, _ in leads}
    if len({np.shape(h00) for h00, _, _ in leads}) > 1 or len(modes) > 1:
        # unequal lead cells or representations cannot share a stack
        args = (eta, tol, max_iter)
        return [_decimate(energies, [lead], *args)[0] for lead in leads]
    m = leads[0][0].shape[0]
    if n_batch == 0:
        empty = np.empty((0, m, m), dtype=complex), np.empty(0, dtype=int)
        return [empty] * len(leads)
    n_stack = len(leads) * n_batch
    (mode_basis,) = modes
    alpha = [h01.conj().T if side == "left" else h01 for _, h01, side in leads]
    if mode_basis:
        eps_s, units = zip(*(np.linalg.eigh(h00) for h00, _, _ in leads))
        units = np.array(units, dtype=complex)
        alpha = [np.diagonal(a) for a in alpha]
        eye, mul, inv = np.ones(m), np.multiply, np.reciprocal
    else:
        eps_s = [h00 for h00, _, _ in leads]
        eye, mul, inv = np.eye(m), np.matmul, np.linalg.inv
    z_all = np.multiply.outer(energies + 1j * eta, eye)
    z_all = np.tile(z_all, (len(leads),) + (1,) * eye.ndim)
    alpha = np.repeat(np.array(alpha, dtype=complex), n_batch, axis=0)
    # per-slice adjoint (on diagonals the swap is a no-op)
    beta = np.ascontiguousarray(alpha.conj().swapaxes(1, -1))
    eps_s = np.repeat(np.array(eps_s, dtype=complex), n_batch, axis=0)
    eps = eps_s.copy()
    z = z_all
    active = np.arange(n_stack)
    iters = np.zeros(n_stack, dtype=int)
    surface = np.empty(z_all.shape, dtype=complex)
    slice_axes = tuple(range(1, z_all.ndim))
    for it in range(1, max_iter + 1):
        g_bulk = inv(z - eps)
        ag = mul(alpha, g_bulk)
        bg = mul(beta, g_bulk)
        agb = mul(ag, beta)
        eps_s += agb
        eps = (eps + agb) + mul(bg, alpha)
        alpha = mul(ag, alpha)
        beta = mul(bg, beta)
        norms = np.sqrt(
            np.add.reduce((alpha.conj() * alpha).real, axis=slice_axes)
        )
        finite = np.isfinite(norms)
        if not finite.all():
            # poisoned input (NaN/Inf lead blocks): the fixed point can
            # never contract — fail fast instead of burning max_iter
            lead, e_idx = divmod(int(active[~finite][0]), n_batch)
            side, bad = leads[lead][2], float(energies[e_idx])
            sentinel = get_sentinel()
            if sentinel.enabled:
                sentinel.trip(
                    "surface_gf", "nonfinite",
                    detail=f"decimation diverged, side={side} E={bad:.6g}",
                )
            raise SurfaceGFConvergenceError(
                f"Sancho-Rubio decimation went non-finite at iteration {it} "
                f"(side = {side}, E = {bad}, eta = {eta}); the lead blocks "
                "are poisoned",
                energy=bad, eta=eta,
            )
        done = norms < tol
        if done.any():
            idx = active[done]
            iters[idx] = it
            surface[idx] = eps_s[done]
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
        # evaluated lead after lead, the first lead with a straggler
        # raises and the later ones never run: account for that one only
        lead, e_idx = divmod(int(active[0]), n_batch)
        side, bad = leads[lead][2], float(energies[e_idx])
        metrics = get_metrics()
        if metrics.enabled:
            n_bad = int(np.count_nonzero(active // n_batch == lead))
            metrics.inc("surface_gf.nonconverged", float(n_bad), side=side)
        raise SurfaceGFConvergenceError(
            f"Sancho-Rubio did not converge in {max_iter} iterations "
            f"(side = {side}, E = {bad}, eta = {eta}); increase eta",
            energy=bad, eta=eta,
        )
    g_all = inv(z_all - surface)
    results = [
        (g_all[lo: lo + n_batch], iters[lo: lo + n_batch])
        for lo in range(0, n_stack, n_batch)
    ]
    if mode_basis:
        # back to the lead's basis: g = (U diag(g_d)) U^+, one GEMM a slice
        results = [
            ((u * g_d[:, None, :]) @ u.conj().T, lead_iters)
            for (g_d, lead_iters), u in zip(results, units)
        ]
    for (g, _), (h00, h01, side) in zip(results, leads):
        _surface_health_check(g, energies, eta, h00, h01, side)
    tracer = get_tracer()
    if tracer.enabled:
        # the charge is the *reference* step at m (four a @ g @ b
        # products = 8 GEMMs + one inversion; six GEMMs execute, or O(m)
        # elementwise work in the mode basis, see sancho_rubio_flops)
        # plus the final surface inversion, per slice and only on
        # convergence
        fl = sum(sancho_rubio_flops(m, int(it_e)) for it_e in iters)
        tracer.add_flops("surface_gf.sancho", fl)
    metrics = get_metrics()
    if metrics.enabled:
        for (_, lead_iters), (_, _, side) in zip(results, leads):
            for it_e in lead_iters:
                metrics.observe_key(_ITER_KEYS[side], float(it_e))
    return results


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
