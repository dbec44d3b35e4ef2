"""Fermi-Dirac statistics: occupation functions and Fermi-Dirac integrals.

The transport kernels integrate the transmission and spectral functions
against Fermi factors of the two contacts; the semiclassical charge model in
the Poisson solver needs the Fermi-Dirac integrals of order 1/2 (3-D), 0
(2-D) and -1/2 (derivative).  Everything here is vectorised over numpy
arrays and numerically safe for arguments of any magnitude.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fermi_dirac",
    "dfermi_dE",
    "fermi_window",
    "fermi_integral_half",
    "fermi_integral_zero",
    "fermi_integral_minus_half",
    "inverse_fermi_integral_half",
]


def fermi_dirac(energy, mu, kT):
    """Fermi-Dirac occupation ``f(E) = 1 / (1 + exp((E - mu)/kT))``.

    Vectorised and overflow-safe: for ``kT == 0`` a step function is
    returned (with value 0.5 exactly at ``E == mu``).

    Parameters
    ----------
    energy : array_like
        Energies E (eV).
    mu : float
        Chemical potential (eV).
    kT : float
        Thermal energy (eV), must be >= 0.
    """
    energy = np.asarray(energy, dtype=float)
    if kT < 0.0:
        raise ValueError(f"kT must be >= 0, got {kT}")
    if kT == 0.0:
        out = np.where(energy < mu, 1.0, 0.0)
        out = np.where(energy == mu, 0.5, out)
        return out
    x = (energy - mu) / kT
    # Piecewise-stable evaluation: avoid exp overflow for large |x|.
    out = np.empty_like(x)
    pos = x > 0
    out[pos] = np.exp(-x[pos]) / (1.0 + np.exp(-x[pos]))
    out[~pos] = 1.0 / (1.0 + np.exp(x[~pos]))
    return out


def dfermi_dE(energy, mu, kT):
    """Derivative ``df/dE`` of the Fermi function (negative, units 1/eV).

    ``-df/dE`` is the thermal broadening kernel with unit integral; it is
    used to window the energy grid around the contact chemical potentials.
    """
    energy = np.asarray(energy, dtype=float)
    if kT <= 0.0:
        raise ValueError(f"kT must be > 0 for dfermi_dE, got {kT}")
    x = np.abs(energy - mu) / kT
    # sech^2 form, stable: 1/(2cosh(x/2))^2 = e^{-x} / (1+e^{-x})^2 for x>=0.
    e = np.exp(-x)
    return -e / (kT * (1.0 + e) ** 2)


def fermi_window(energy, mu_left, mu_right, kT):
    """Current window ``fL(E) - fR(E)`` between two contacts."""
    return fermi_dirac(energy, mu_left, kT) - fermi_dirac(energy, mu_right, kT)


def _fd_integral_series(eta: np.ndarray, order: float) -> np.ndarray:
    """Non-degenerate series for F_j(eta), eta << 0 (converges fast)."""
    # F_j(eta) ~ sum_{n>=1} (-1)^{n+1} e^{n eta} / n^{j+1}
    out = np.zeros_like(eta)
    for n in range(1, 30):
        term = (-1.0) ** (n + 1) * np.exp(n * eta) / n ** (order + 1.0)
        out += term
    return out


def fermi_integral_half(eta):
    """Complete Fermi-Dirac integral of order 1/2, normalised.

    ``F_{1/2}(eta) = (1/Gamma(3/2)) * int_0^inf sqrt(x) / (1 + exp(x-eta)) dx``

    so that ``F_{1/2}(eta) -> exp(eta)`` as ``eta -> -inf`` and
    ``F_{1/2}(eta) -> (4/(3 sqrt(pi))) eta^{3/2}`` as ``eta -> +inf``.
    Used for the 3-D semiclassical electron density
    ``n = Nc * F_{1/2}((mu - Ec)/kT)``.

    The rational approximation follows the minimax fits of
    Blakemore (Solid-State Electron. 25, 1067 (1982)) in the common
    piecewise form; accuracy is better than 0.4% everywhere, which is ample
    for a device Poisson predictor.
    """
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    lo = eta < -8.0
    hi = eta > 20.0
    mid = ~(lo | hi)
    out[lo] = _fd_integral_series(eta[lo], 0.5)
    # Degenerate Sommerfeld expansion for very large eta.
    eh = eta[hi]
    out[hi] = (4.0 / (3.0 * np.sqrt(np.pi))) * eh**1.5 * (
        1.0 + np.pi**2 / (8.0 * eh**2)
    )
    # Blakemore/Bednarczyk style fit in the transition region.
    em = eta[mid]
    mu_fit = em**4 + 50.0 + 33.6 * em * (1.0 - 0.68 * np.exp(-0.17 * (em + 1.0) ** 2))
    xi = 3.0 * np.sqrt(np.pi) / (4.0 * mu_fit**0.375)
    out[mid] = 1.0 / (np.exp(-em) + xi)
    return out


def fermi_integral_zero(eta):
    """Fermi-Dirac integral of order 0: ``F_0(eta) = ln(1 + exp(eta))``.

    Exact closed form; used for 2-D subband densities.  Evaluated stably.
    """
    eta = np.asarray(eta, dtype=float)
    return np.logaddexp(0.0, eta)


def fermi_integral_minus_half(eta):
    """Fermi-Dirac integral of order -1/2 (= d F_{1/2} / d eta).

    Computed by analytic differentiation of the same piecewise fit used in
    :func:`fermi_integral_half` so that Newton iterations on the Poisson
    charge model see a Jacobian consistent with the residual.
    """
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    lo = eta < -8.0
    hi = eta > 20.0
    mid = ~(lo | hi)
    out[lo] = _fd_integral_series(eta[lo], -0.5)
    eh = eta[hi]
    out[hi] = (2.0 / np.sqrt(np.pi)) * np.sqrt(eh) * (1.0 - np.pi**2 / (24.0 * eh**2))
    # Derivative of the mid-range fit (chain rule on 1/(e^-x + xi(x))).
    em = eta[mid]
    mu_fit = em**4 + 50.0 + 33.6 * em * (1.0 - 0.68 * np.exp(-0.17 * (em + 1.0) ** 2))
    dmu = (
        4.0 * em**3
        + 33.6 * (1.0 - 0.68 * np.exp(-0.17 * (em + 1.0) ** 2))
        + 33.6 * em * (0.68 * 0.34 * (em + 1.0) * np.exp(-0.17 * (em + 1.0) ** 2))
    )
    xi = 3.0 * np.sqrt(np.pi) / (4.0 * mu_fit**0.375)
    dxi = -0.375 * xi / mu_fit * dmu
    denom = np.exp(-em) + xi
    out[mid] = (np.exp(-em) - dxi) / denom**2
    return out


def inverse_fermi_integral_half(value, tol: float = 1e-10, max_iter: int = 100):
    """Invert ``F_{1/2}``: find eta with ``F_{1/2}(eta) = value`` (Newton).

    Needed to initialise the Poisson potential from a target doping density.
    ``value`` must be positive.
    """
    value = np.asarray(value, dtype=float)
    if np.any(value <= 0.0):
        raise ValueError("fermi_integral_half is positive; value must be > 0")
    # Initial guess: non-degenerate limit eta = ln(value), degenerate limit
    # eta = (3 sqrt(pi) value / 4)^(2/3); blend smoothly.
    eta = np.where(
        value < 1.0,
        np.log(value),
        (3.0 * np.sqrt(np.pi) * value / 4.0) ** (2.0 / 3.0),
    )
    for _ in range(max_iter):
        f = fermi_integral_half(eta) - value
        df = fermi_integral_minus_half(eta)
        step = f / np.maximum(df, 1e-300)
        eta = eta - step
        if np.all(np.abs(step) < tol * (1.0 + np.abs(eta))):
            break
    return eta
