"""Analytic 1-D chain models used as transport oracles.

Every transport kernel in :mod:`repro.negf` and :mod:`repro.wf` is tested
against these exactly solvable systems:

* **uniform single-band chain** — dispersion ``E(k) = e0 - 2 t cos(k a)``;
  unit transmission inside the band, zero outside; analytic surface Green's
  function;
* **square potential barrier** on the chain — transmission from the
  standard transfer-matrix formula evaluated on the *lattice* model (exact,
  not the continuum approximation).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "chain_dispersion",
    "chain_band_edges",
    "chain_surface_gf",
    "chain_self_energy",
    "chain_blocks",
    "square_barrier_transmission",
]


def chain_dispersion(k: np.ndarray, e0: float, t: float, a: float) -> np.ndarray:
    """Dispersion ``E(k) = e0 - 2 t cos(k a)`` of the uniform chain."""
    return e0 - 2.0 * t * np.cos(np.asarray(k) * a)


def chain_band_edges(e0: float, t: float) -> tuple[float, float]:
    """(bottom, top) of the chain band: ``e0 - 2|t|, e0 + 2|t|``."""
    return e0 - 2.0 * abs(t), e0 + 2.0 * abs(t)


def chain_surface_gf(energy: complex, e0: float, t: float) -> complex:
    """Analytic surface Green's function of the semi-infinite chain.

    ``g(E) = (E - e0 - sqrt((E - e0)^2 - 4 t^2)) / (2 t^2)`` with the branch
    chosen so that Im g <= 0 for retarded boundary conditions (evaluate at
    ``E + i 0+``).  This is the closed form the numerical surface-GF solvers
    are tested against.
    """
    z = complex(energy) - e0
    root = np.sqrt(z * z - 4.0 * t * t + 0j)
    # Retarded branch: Im(g) <= 0; pick the root that decays.
    g_plus = (z + root) / (2.0 * t * t)
    g_minus = (z - root) / (2.0 * t * t)
    for g in (g_minus, g_plus):
        if g.imag < -1e-14:
            return g
    # Outside the band both roots are real; choose |t^2 g| < 1 (decaying).
    return g_minus if abs(g_minus * t * t) <= abs(g_plus * t * t) else g_plus


def chain_self_energy(energy: complex, e0: float, t: float) -> complex:
    """Contact self-energy of the chain: ``sigma = t^2 g_surface``."""
    return t * t * chain_surface_gf(energy, e0, t)


def chain_blocks(
    n_sites: int, e0: float, t: float, potential: np.ndarray | None = None
) -> tuple[list, list]:
    """Block-tridiagonal (1x1 blocks) Hamiltonian of an n-site chain.

    Returns (diagonal blocks, upper blocks) ready for
    :class:`repro.tb.BlockTridiagonalHamiltonian`.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    if potential is None:
        potential = np.zeros(n_sites)
    potential = np.asarray(potential, dtype=float)
    if potential.shape != (n_sites,):
        raise ValueError("potential must have one entry per site")
    diag = [np.array([[e0 + v]], dtype=complex) for v in potential]
    up = [np.array([[-t]], dtype=complex) for _ in range(n_sites - 1)]
    return diag, up


def square_barrier_transmission(
    energy: float,
    e0: float,
    t: float,
    barrier_height: float,
    barrier_sites: int,
) -> float:
    """Exact lattice transmission through a square barrier on the chain.

    The barrier raises ``barrier_sites`` consecutive on-site energies by
    ``barrier_height``.  Evaluated by the 2x2 transfer-matrix product of the
    lattice Schroedinger equation — exact for the discrete model, so the
    NEGF/WF codes must match it to machine precision.

    Returns 0 for energies outside the lead band.
    """
    lo, hi = chain_band_edges(e0, t)
    if not (lo < energy < hi):
        return 0.0
    # Lead Bloch factor: E = e0 - 2 t cos(ka)  ->  lambda = e^{ika}.
    cos_ka = (e0 - energy) / (2.0 * t)
    ka = np.arccos(np.clip(cos_ka, -1.0, 1.0))
    lam = np.exp(1j * ka)
    # Transfer matrix per site: psi_{n+1} = ((e_n - E)/t) psi_n - psi_{n-1}.
    M = np.eye(2, dtype=complex)
    for _ in range(barrier_sites):
        m = np.array(
            [[(e0 + barrier_height - energy) / t, -1.0], [1.0, 0.0]],
            dtype=complex,
        )
        M = m @ M
    # Scattering ansatz: left  psi_n = lam^n + r lam^-n,  right psi_n = tau lam^n.
    # Match at the barrier boundaries via the transfer matrix through the
    # barrier region: (psi_{N}, psi_{N-1}) = M (psi_0, psi_{-1}).
    # Solve the 2x2 linear system for (r, tau).
    # Incoming amplitudes at n = 0 and n = -1:
    n_bar = barrier_sites
    a0 = np.array([1.0 + 0j, lam ** (-1)])  # (psi_0, psi_-1) incident part
    b0 = np.array([1.0 + 0j, lam ** (+1)])  # reflected part coefficients
    # After barrier: psi_n = tau lam^n for n >= n_bar - 1 (right lead).
    c1 = np.array([lam**n_bar, lam ** (n_bar - 1)])
    lhs = np.column_stack([M @ b0, -c1])
    rhs = -(M @ a0)
    r, tau = np.linalg.solve(lhs, rhs)
    return float(abs(tau) ** 2)

