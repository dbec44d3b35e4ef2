"""Dense reference NEGF implementation (tests, small diagnostics and the
degradation ladder's dense-oracle rung).

Computes G = inv(E - H - Sigma) by full dense inversion — O((N m)^3),
hopelessly slow for real devices but unambiguous.  Every quantity the RGF
and WF kernels produce is re-derived here from the full matrix, in one
place (:func:`dense_observables`), making this module the oracle of the
transport test suite.
"""

from __future__ import annotations

import numpy as np

from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from .self_energy import broadening, contact_self_energy, open_channels

__all__ = [
    "dense_green_function", "dense_transmission", "dense_observables",
    "dense_stage",
]


def _embed(sigma: np.ndarray, n_total: int, offset: int) -> np.ndarray:
    out = np.zeros((n_total, n_total), dtype=complex)
    m = sigma.shape[0]
    out[offset : offset + m, offset : offset + m] = sigma
    return out


def _n_open(sigma: np.ndarray) -> int:
    """Open channels of a contact: :func:`open_channels` of its Gamma."""
    return int(open_channels(np.linalg.eigvalsh(broadening(sigma))))


def dense_green_function(
    H: BlockTridiagonalHamiltonian,
    energy: float,
    sigma_l: np.ndarray,
    sigma_r: np.ndarray,
) -> np.ndarray:
    """Full retarded Green's function by dense inversion."""
    n = H.total_size
    offsets = H.block_offsets()
    Hd = H.to_dense()
    Sig = _embed(sigma_l, n, 0) + _embed(sigma_r, n, offsets[-2])
    return np.linalg.inv(energy * np.eye(n) - Hd - Sig)


def dense_transmission(
    H: BlockTridiagonalHamiltonian,
    energy: float,
    lead_left,
    lead_right,
    eta: float = 1e-6,
    surface_method: str = "sancho",
) -> float:
    """T(E) of :func:`dense_observables` (oracle for RGF/WF)."""
    return dense_observables(
        H, energy, lead_left, lead_right, eta=eta,
        surface_method=surface_method,
    )["transmission"]


def dense_observables(
    H: BlockTridiagonalHamiltonian,
    energy: float,
    lead_left,
    lead_right,
    eta: float = 1e-6,
    surface_method: str = "sancho",
) -> dict:
    """All single-energy observables from the dense G (test oracle).

    Returns the energy, transmission, per-orbital LDOS, contact spectral
    densities and open-channel counts — every field of
    :class:`repro.negf.RGFResult` — plus the identity defect
    ``||A_L + A_R - i(G - G^+)||``, which must vanish in the ballistic
    coherent limit (up to eta-induced leakage), and G itself.
    ``surface_method`` is the contacts' surface-GF algorithm, as in
    :func:`repro.negf.contact_self_energy`; everything after the contacts
    is :func:`dense_stage`.
    """
    sig_l = contact_self_energy(
        energy, *lead_left, side="left", method=surface_method, eta=eta
    )
    sig_r = contact_self_energy(
        energy, *lead_right, side="right", method=surface_method, eta=eta
    )
    return dense_stage(H, energy, sig_l.sigma, sig_r.sigma)


def dense_stage(H, energy: float, sigma_l, sigma_r) -> dict:
    """:func:`dense_observables` after the contacts: the dense G of one
    energy from its two ``(m, m)`` self-energies, and what it yields."""
    G = dense_green_function(H, energy, sigma_l, sigma_r)
    n = H.total_size
    offsets = H.block_offsets()
    gam_l = _embed(broadening(sigma_l), n, 0)
    gam_r = _embed(broadening(sigma_r), n, offsets[-2])
    A_L = G @ gam_l @ G.conj().T
    A_R = G @ gam_r @ G.conj().T
    spectral_identity = np.linalg.norm(
        A_L + A_R - 1j * (G - G.conj().T), ord="fro"
    )
    t = float(np.trace(gam_l @ G @ gam_r @ G.conj().T).real)
    return {
        "energy": energy,
        "transmission": t,
        "dos": -np.diag(G).imag / np.pi,
        "spectral_left": np.diag(A_L).real / (2 * np.pi),
        "spectral_right": np.diag(A_R).real / (2 * np.pi),
        "n_channels_left": _n_open(sigma_l),
        "n_channels_right": _n_open(sigma_r),
        "identity_defect": float(spectral_identity),
        "green_function": G,
    }
