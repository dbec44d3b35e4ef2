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

from .surface_gf import eigen_surface_gf, sancho_rubio_batch

__all__ = [
    "Contacts",
    "LeadSelfEnergy",
    "broadening",
    "contact_self_energy",
    "contact_self_energy_batch",
    "open_channels",
]


def broadening(sigma: np.ndarray) -> np.ndarray:
    """Gamma = i (Sigma - Sigma^+) of one block or of a ``(B, m, m)`` stack."""
    return 1j * (sigma - np.conj(np.swapaxes(sigma, -2, -1)))


def open_channels(gamma_eigenvalues: np.ndarray, tol: float = 1e-4):
    """Propagating lead modes = Gamma eigenvalues above ``tol``, counted
    along the last axis (one count per slice of a stacked ``eigvalsh``).

    ``tol`` is an absolute threshold in eV: propagating channels carry
    Gamma eigenvalues of order the lead bandwidth, while the finite-eta
    leakage of closed channels is of order eta.
    """
    return np.sum(gamma_eigenvalues > tol, axis=-1)


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
        return broadening(self.sigma)

    def n_open_channels(self, tol: float = 1e-4) -> int:
        """Number of propagating lead modes = rank of Gamma
        (:func:`open_channels` of its eigenvalues)."""
        return int(open_channels(np.linalg.eigvalsh(self.gamma), tol))

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


def _surface_gf_point(energy, h00, h01, side, method, eta):
    """Surface GF of the methods that are not stack-vectorised.

    Returns ``(g, degraded)``; ``degraded`` marks a ``robust`` answer
    that came from a fallback rung.
    """
    if method == "eigen":
        return eigen_surface_gf(energy, h00, h01, side=side, eta=eta), False
    if method == "robust":
        # local import: repro.resilience.policies imports this package
        from ..resilience.policies import robust_surface_gf

        g, path = robust_surface_gf(energy, h00, h01, side=side, eta=eta)
        return g, path != "sancho"
    raise ValueError("method must be 'sancho', 'eigen' or 'robust'")


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
    """Retarded self-energy of one contact at one energy: the stack of
    one of :func:`contact_self_energy_batch` (same parameters)."""
    return contact_self_energy_batch(
        [energy], h00, h01, tau=tau, side=side, method=method, eta=eta,
        cache=cache, cache_token=cache_token, precision=precision,
    )[0]


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
    """Retarded self-energies of one contact for a stack of energies.

    With ``method="sancho"`` the cache-missing energies run through the
    stacked :func:`repro.negf.surface_gf.sancho_rubio_batch` decimation;
    the other methods evaluate their surface GF point by point.  Either
    way one broadcast ``tau^+ g tau`` triple product folds the stack
    onto the contact slab, per-slice identical under any grouping of
    energies.  Results are in ``energies`` order.

    Parameters
    ----------
    energies : array-like of float
        Energies E (eV).
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
    energy_list = [float(e) for e in np.asarray(energies, dtype=float).ravel()]
    results: list = [None] * len(energy_list)
    keys: list = [None] * len(energy_list)
    missing: list[int] = []
    if cache is not None:
        cache_token = _resolve_token(cache_token, h00, h01, tau)
    for i, e in enumerate(energy_list):
        if cache is not None:
            keys[i] = _cache_key(cache_token, side, method, eta, e, precision)
            results[i] = cache.lookup(keys[i])
        if results[i] is None:
            missing.append(i)
    if not missing:
        return results
    if method == "sancho":
        g_stack, _ = sancho_rubio_batch(
            np.array([energy_list[i] for i in missing]), h00, h01,
            side=side, eta=eta, dtype=np.complex64 if fp32 else None,
        )
        degraded = [False] * len(missing)
    else:
        points = [
            _surface_gf_point(energy_list[i], h00, h01, side, method, eta)
            for i in missing
        ]
        g_stack = np.stack([g for g, _ in points])
        degraded = [d for _, d in points]
    tau_arr = np.asarray(h01 if tau is None else tau, dtype=complex)
    if side == "left":
        sigma_stack = tau_arr.conj().T @ g_stack @ tau_arr
    else:
        sigma_stack = tau_arr @ g_stack @ tau_arr.conj().T
    if fp32:
        # the stored screening sigma is complex64 whichever method (and
        # precision) produced g
        sigma_stack = sigma_stack.astype(np.complex64)
    for j, i in enumerate(missing):
        results[i] = LeadSelfEnergy(
            sigma=np.ascontiguousarray(sigma_stack[j]),
            side=side,
            energy=energy_list[i],
        )
        if cache is None:
            continue
        if degraded[j]:
            # a fallback answer (escalated eta or eigen construction) is
            # deliberately computed at *different* parameters than the
            # cache key claims — caching it would poison every later
            # lookup at this (method, eta, E) with a degraded Sigma
            cache.reject("degraded-solve")
        else:
            cache.store(keys[i], results[i])
    return results


class Contacts:
    """The two leads of a device and how their self-energies are evaluated.

    Parameters
    ----------
    hamiltonian : BlockTridiagonalHamiltonian
        Device Hamiltonian; a lead given as None uses its end blocks
        (homogeneous contact approximation): h00 = H.diagonal[end],
        h01 = adjacent upper block — exact for devices whose end slabs
        repeat the lead cell at flat potential.
    lead_left, lead_right : (h00, h01) tuples or None
        Lead cell blocks.
    eta, method, cache, precision
        As in :func:`contact_self_energy_batch`.
    tokens : (str, str) or None
        Precomputed (left, right) cache tokens, so a solver sharing
        another's leads skips re-hashing the lead bytes.  None hashes the
        lead blocks (only when there is a cache to key).
    """

    def __init__(self, hamiltonian, lead_left=None, lead_right=None,
                 eta: float = 1e-6, method: str = "sancho", cache=None,
                 tokens=None, precision: str = "fp64"):
        self.left = (
            lead_left
            if lead_left is not None
            else (hamiltonian.diagonal[0], hamiltonian.upper[0])
        )
        self.right = (
            lead_right
            if lead_right is not None
            else (hamiltonian.diagonal[-1], hamiltonian.upper[-1])
        )
        self.eta = eta
        self.method = method
        self.cache = cache
        self.precision = precision
        if cache is None:
            tokens = (None, None)
        elif tokens is None:
            from ..parallel.backend import lead_token

            tokens = (lead_token(*self.left), lead_token(*self.right))
        self.tokens = tokens

    def sigma_stacks(self, energies):
        """Left and right ``(B, m, m)`` self-energy stacks — what the
        kernel stage of either transport solver consumes."""
        return tuple(
            np.stack([s.sigma for s in sigs])
            for sigs in self.self_energies(energies)
        )

    def self_energies(self, energies):
        """Left and right self-energy lists for a stack of energies."""
        return tuple(
            contact_self_energy_batch(
                energies, *lead, side=side, method=self.method,
                eta=self.eta, cache=self.cache, cache_token=token,
                precision=self.precision,
            )
            for lead, side, token in (
                (self.left, "left", self.tokens[0]),
                (self.right, "right", self.tokens[1]),
            )
        )
