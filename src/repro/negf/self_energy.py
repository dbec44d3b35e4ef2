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

from .surface_gf import _decimate, eigen_surface_gf

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


def _surface_gf_point(energy, h00, h01, side, method, eta):
    """Surface GF of the methods that are not stack-vectorised."""
    if method == "eigen":
        return eigen_surface_gf(energy, h00, h01, side=side, eta=eta)
    if method == "robust":
        # local import: repro.resilience.policies imports this package
        from ..resilience.policies import robust_surface_gf

        return robust_surface_gf(energy, h00, h01, side=side, eta=eta)[0]
    raise ValueError("method must be 'sancho', 'eigen' or 'robust'")


def _sigma_stacks(energies, leads, tau, method, eta):
    """The ``(B, m, m)`` self-energy stacks of ``leads``, a sequence of
    ``(h00, h01, side)``.

    ``method="sancho"`` runs all leads through one stacked decimation
    (:func:`repro.negf.surface_gf._decimate`: both contacts of a device
    share every numpy call); the other methods evaluate their surface GF
    point by point.  Either way one broadcast ``tau^+ g tau`` triple
    product per lead folds its stack onto the contact slab, per-slice
    identical under any grouping of energies or leads.
    """
    energies = np.asarray(energies, dtype=float).ravel()
    if method == "sancho":
        g_stacks = [g for g, _ in _decimate(energies, leads, eta)]
    else:
        g_stacks = [
            np.array(
                [_surface_gf_point(e, h00, h01, side, method, eta)
                 for e in energies.tolist()],
                dtype=complex,
            ).reshape((-1,) + np.shape(h00))
            for h00, h01, side in leads
        ]
    sigma_stacks = []
    for g_stack, (_, h01, side) in zip(g_stacks, leads):
        tau_arr = np.asarray(h01 if tau is None else tau, dtype=complex)
        if side == "left":
            sigma_stacks.append(tau_arr.conj().T @ g_stack @ tau_arr)
        else:
            sigma_stacks.append(tau_arr @ g_stack @ tau_arr.conj().T)
    return tuple(sigma_stacks)


def _wrap(sigma_stack, side, energies) -> list[LeadSelfEnergy]:
    """One :class:`LeadSelfEnergy` per slice of a contact's stack."""
    energies = np.asarray(energies, dtype=float).ravel().tolist()
    return [
        LeadSelfEnergy(sigma=sigma, side=side, energy=energy)
        for sigma, energy in zip(sigma_stack, energies)
    ]


def contact_self_energy(
    energy: float,
    h00: np.ndarray,
    h01: np.ndarray,
    tau: np.ndarray | None = None,
    side: str = "left",
    method: str = "sancho",
    eta: float = 1e-6,
) -> LeadSelfEnergy:
    """Retarded self-energy of one contact at one energy: the stack of
    one of :func:`contact_self_energy_batch` (same parameters)."""
    return contact_self_energy_batch(
        [energy], h00, h01, tau=tau, side=side, method=method, eta=eta,
    )[0]


def contact_self_energy_batch(
    energies,
    h00: np.ndarray,
    h01: np.ndarray,
    tau: np.ndarray | None = None,
    side: str = "left",
    method: str = "sancho",
    eta: float = 1e-6,
) -> list[LeadSelfEnergy]:
    """Retarded self-energies of one contact for a stack of energies.

    Slices of the one ``(B, m, m)`` stack the transport kernels consume
    (:meth:`Contacts.sigma_stacks`), wrapped per energy and returned in
    ``energies`` order; a slice does not depend on its stack-mates.

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
    """
    (sigma_stack,) = _sigma_stacks(
        energies, [(h00, h01, side)], tau, method, eta
    )
    return _wrap(sigma_stack, side, energies)


class Contacts:
    """The two leads of a device and how their self-energies are evaluated:
    for ``method="sancho"`` as *one* decimation over a 2B stack — the B
    left slices, then the B right ones — bit-identical to one lead after
    the other; a failure names the first lead that fails (lowest stack
    index: the left before the right), with its energy and side.

    The stack's representation is a property of the leads, resolved on
    every :meth:`sigma_stacks` call: leads coupled by ``h01 = c I`` with a
    finite, exactly Hermitian ``h00`` (every effective-mass grid device,
    at any k) decimate as ``(2B, m)`` diagonals in the eigenbasis of their
    ``h00`` — one ``eigh`` per lead and call, no inversion — and any other
    lead (atomistic, singular or poisoned) as ``(2B, m, m)`` stacks; a
    pair of one of each runs lead by lead
    (:func:`repro.negf.surface_gf._decimate`).

    Parameters
    ----------
    hamiltonian : BlockTridiagonalHamiltonian
        Device Hamiltonian; a lead given as None uses its end blocks
        (homogeneous contact approximation): h00 = H.diagonal[end],
        h01 = adjacent upper block — exact for devices whose end slabs
        repeat the lead cell at flat potential.
    lead_left, lead_right : (h00, h01) tuples or None
        Lead cell blocks.
    eta, method
        As in :func:`contact_self_energy_batch`.
    """

    def __init__(self, hamiltonian, lead_left=None, lead_right=None,
                 eta: float = 1e-6, method: str = "sancho"):
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

    def sigma_stacks(self, energies):
        """Left and right ``(B, m, m)`` self-energy stacks — what the
        kernel stage of either transport solver consumes; both leads go
        through one decimation (left slices first, so a failing left lead
        is still the one reported)."""
        return _sigma_stacks(
            energies, [(*self.left, "left"), (*self.right, "right")],
            None, self.method, self.eta,
        )

    def self_energies(self, energies):
        """Left and right self-energy lists for a stack of energies:
        the slices of :meth:`sigma_stacks`, wrapped per energy."""
        sigma_l, sigma_r = self.sigma_stacks(energies)
        return (
            _wrap(sigma_l, "left", energies),
            _wrap(sigma_r, "right", energies),
        )
