"""Contact self-energies from lead surface Green's functions.

The semi-infinite leads are folded onto the end slabs of the device as
retarded self-energies:

    Sigma_L = tau_L^+ g_L tau_L   with tau_L = <lead cell -1 | H | slab 0>,
    Sigma_R = tau_R g_R tau_R^+   with tau_R = <slab N-1 | H | lead cell N>.

For a device whose end slabs repeat the lead cell (which the geometry layer
guarantees), tau_L equals the first upper block H_{0,1} and tau_R the last
upper block H_{N-2,N-1}.

The broadening matrix Gamma = i (Sigma - Sigma^+) counts open channels:
its rank equals the number of propagating lead modes at that energy, a fact
both the wave-function solver (injection vectors) and the tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface_gf import eigen_surface_gf, sancho_rubio, sancho_rubio_batch

__all__ = [
    "LeadSelfEnergy",
    "contact_self_energy",
    "contact_self_energy_batch",
]


@dataclass(frozen=True)
class LeadSelfEnergy:
    """A contact self-energy at one energy.

    Attributes
    ----------
    sigma : ndarray
        Retarded self-energy block (embedded at the contact slab).
    side : str
        "left" or "right".
    energy : float
        The energy it was evaluated at (eV).
    """

    sigma: np.ndarray
    side: str
    energy: float

    @property
    def gamma(self) -> np.ndarray:
        """Broadening matrix Gamma = i (Sigma - Sigma^+); Hermitian PSD."""
        return 1j * (self.sigma - self.sigma.conj().T)

    def n_open_channels(self, tol: float = 1e-4) -> int:
        """Number of propagating lead modes = rank of Gamma.

        ``tol`` is an absolute threshold in eV: propagating channels carry
        Gamma eigenvalues of order the lead bandwidth, while the finite-eta
        leakage of closed channels is of order eta.
        """
        ev = np.linalg.eigvalsh(self.gamma)
        return int(np.sum(ev > tol))

    def injection_vectors(self, tol: float = 1e-8) -> np.ndarray:
        """Columns w_m with Gamma = sum_m w_m w_m^+ (rank factorisation).

        These are the per-channel source vectors of the wave-function
        solver: T = sum_m (G w_m)^+ Gamma_other (G w_m).  Channels whose
        Gamma eigenvalue is below ``tol * max`` are numerically closed
        (their weight is finite-eta leakage, not physics) and are dropped —
        this is what keeps the WF back-substitution count at the number of
        *open* channels rather than the block size.
        """
        gamma = self.gamma
        ev, U = np.linalg.eigh(gamma)
        scale = max(float(ev.max(initial=0.0)), 1e-300)
        keep = ev > tol * scale
        return U[:, keep] * np.sqrt(ev[keep])[None, :]


def _sigma_precision(precision) -> str:
    """Numeric-content precision token of a self-energy evaluation.

    ``"fp32"`` only for the pure-complex64 screening mode; ``"mixed"``
    maps to ``"fp64"`` because mixed-mode transport deliberately keeps
    its self-energies in full double precision (the per-kernel
    validation showed the fp32 decimation cannot be certified for
    propagating modes, and the LAPACK-bound solves gain nothing from
    complex64 anyway) — so a mixed run and a pure-FP64 run share cache
    entries bit-for-bit.
    """
    from ..solvers.precision import resolve_precision

    return "fp32" if resolve_precision(precision) == "fp32" else "fp64"


def _cache_key(cache_token, side, method, eta, energy, precision="fp64"):
    """Exact (no rounding) cache key of one self-energy evaluation.

    The trailing precision token keys the *numeric content* of the
    stored sigma, so complex64 screening results can never be served to
    a double-precision solve (or vice versa).
    """
    return (
        cache_token, side, method, float(eta), float(energy),
        _sigma_precision(precision),
    )


def _resolve_token(cache_token, h00, h01, tau):
    """Content token of the lead blocks (computed here only if missing)."""
    if cache_token is not None:
        return cache_token
    # deferred import: repro.parallel pulls in the resilience/scheduler
    # stack, which must not become a module-level dependency of negf
    from ..parallel.backend import lead_token

    token = lead_token(h00, h01)
    if tau is not None:
        token = token + lead_token(tau, tau)
    return token


def contact_self_energy(
    energy: float,
    h00: np.ndarray,
    h01: np.ndarray,
    tau: np.ndarray | None = None,
    side: str = "left",
    method: str = "sancho",
    eta: float = 1e-6,
    cache=None,
    cache_token: str | None = None,
    precision: str = "fp64",
) -> LeadSelfEnergy:
    """Compute the retarded self-energy of one contact.

    Parameters
    ----------
    energy : float
        Energy E (eV).
    h00, h01 : ndarray
        Lead cell blocks (conventions of :mod:`repro.negf.surface_gf`).
    tau : ndarray or None
        Lead-device coupling; None means the device end slab repeats the
        lead cell, i.e. tau = h01.
    side : {"left", "right"}
        Contact side.
    method : {"sancho", "eigen", "robust"}
        Surface-GF algorithm; ``"robust"`` is Sancho-Rubio behind the
        resilience degradation ladder (eta escalation, then the eigen
        fallback) instead of aborting on non-convergence.
    eta : float
        Retarded infinitesimal (eV).
    cache : repro.parallel.SelfEnergyCache or None
        Optional shared cache; a hit returns the stored object (keys are
        exact, so cached and uncached runs agree bitwise — but note a
        hit skips the surface-GF work and therefore its measured flops).
    cache_token : str or None
        Precomputed lead fingerprint (``repro.parallel.lead_token``);
        None computes it here, callers in hot loops should precompute.
    precision : {"fp64", "mixed", "fp32"}
        Numeric mode of the evaluation.  ``"fp32"`` runs the decimation
        in complex64 and returns a complex64 sigma; ``"mixed"`` is
        identical to ``"fp64"`` here (see :func:`_sigma_precision`).
        The token is part of the cache key either way.
    """
    fp32 = _sigma_precision(precision) == "fp32"
    key = None
    if cache is not None:
        cache_token = _resolve_token(cache_token, h00, h01, tau)
        key = _cache_key(cache_token, side, method, eta, energy, precision)
        hit = cache.lookup(key)
        if hit is not None:
            return hit
    degraded = False
    if method == "sancho":
        g, _ = sancho_rubio(
            energy, h00, h01, side=side, eta=eta,
            dtype=np.complex64 if fp32 else None,
        )
    elif method == "eigen":
        g = eigen_surface_gf(energy, h00, h01, side=side, eta=eta)
    elif method == "robust":
        # local import: repro.resilience.policies imports this package
        from ..resilience.policies import robust_surface_gf

        g, path = robust_surface_gf(energy, h00, h01, side=side, eta=eta)
        # a fallback answer (escalated eta or eigen construction) is
        # deliberately computed at *different* parameters than the cache
        # key claims — caching it would poison every later lookup at
        # this (method, eta, E) with a degraded Sigma
        degraded = path != "sancho"
    else:
        raise ValueError("method must be 'sancho', 'eigen' or 'robust'")
    if tau is None:
        tau = h01
    tau = np.asarray(tau, dtype=complex)
    if side == "left":
        sigma = tau.conj().T @ g @ tau
    else:
        sigma = tau @ g @ tau.conj().T
    if fp32:
        # non-sancho fallbacks computed the triple product in fp64;
        # the stored screening sigma is complex64 regardless
        sigma = np.ascontiguousarray(sigma, dtype=np.complex64)
    result = LeadSelfEnergy(sigma=sigma, side=side, energy=energy)
    if cache is not None:
        if degraded:
            cache.reject("degraded-solve")
        else:
            cache.store(key, result)
    return result


def contact_self_energy_batch(
    energies,
    h00: np.ndarray,
    h01: np.ndarray,
    tau: np.ndarray | None = None,
    side: str = "left",
    method: str = "sancho",
    eta: float = 1e-6,
    cache=None,
    cache_token: str | None = None,
    precision: str = "fp64",
) -> list[LeadSelfEnergy]:
    """Self-energies of one contact for a whole batch of energies.

    With ``method="sancho"`` the cache-missing energies run through the
    stacked :func:`repro.negf.surface_gf.sancho_rubio_batch` decimation
    and one broadcast ``tau^+ g tau`` triple product — per-slice
    identical to the scalar path.  Other methods fall back to the
    per-point function (they are not batch-vectorised).  Results are in
    ``energies`` order.  ``precision`` behaves as in
    :func:`contact_self_energy` (and is part of every cache key).
    """
    fp32 = _sigma_precision(precision) == "fp32"
    energy_list = [float(e) for e in np.asarray(energies, dtype=float).ravel()]
    results: list = [None] * len(energy_list)
    if cache is not None:
        cache_token = _resolve_token(cache_token, h00, h01, tau)
    missing: list[int] = []
    for i, e in enumerate(energy_list):
        if cache is not None:
            hit = cache.lookup(
                _cache_key(cache_token, side, method, eta, e, precision)
            )
            if hit is not None:
                results[i] = hit
                continue
        missing.append(i)
    if not missing:
        return results
    if method == "sancho":
        e_missing = np.array([energy_list[i] for i in missing])
        g_stack, _ = sancho_rubio_batch(
            e_missing, h00, h01, side=side, eta=eta,
            dtype=np.complex64 if fp32 else None,
        )
        tau_arr = np.asarray(h01 if tau is None else tau, dtype=complex)
        if side == "left":
            sigma_stack = tau_arr.conj().T @ g_stack @ tau_arr
        else:
            sigma_stack = tau_arr @ g_stack @ tau_arr.conj().T
        if fp32:
            sigma_stack = sigma_stack.astype(np.complex64)
        for j, i in enumerate(missing):
            res = LeadSelfEnergy(
                sigma=np.ascontiguousarray(sigma_stack[j]),
                side=side,
                energy=energy_list[i],
            )
            results[i] = res
            if cache is not None:
                cache.store(
                    _cache_key(
                        cache_token, side, method, eta, energy_list[i],
                        precision,
                    ),
                    res,
                )
    else:
        for i in missing:
            results[i] = contact_self_energy(
                energy_list[i], h00, h01, tau=tau, side=side,
                method=method, eta=eta, cache=cache,
                cache_token=cache_token, precision=precision,
            )
    return results
