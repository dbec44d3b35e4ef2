"""Dynamical matrices and phonon band structures from the Keating VFF.

Phonons reuse the electronic machinery wholesale: the mass-weighted
dynamical matrix D plays the role of H, the eigenvalue is omega^2, and the
slab-blocked form of a wire's D is a
:class:`repro.tb.BlockTridiagonalHamiltonian` that the surface-GF and RGF
kernels consume unchanged — the deliberate architectural symmetry between
electron and phonon transport in atomistic device codes.

Units: force constants N/m, masses amu; frequencies returned in THz
(nu = omega / 2 pi).
"""

from __future__ import annotations

import functools

import numpy as np

from ..lattice.neighbors import build_neighbor_table
from ..lattice.slabs import SlabbedDevice
from ..lattice.structure import AtomicStructure
from ..lattice.zincblende import ZincblendeCell, conventional_cell
from ..lattice.device_geometry import replicate
from ..tb.hamiltonian import BlockTridiagonalHamiltonian
from .keating import KEATING_PARAMS, KeatingModel

__all__ = [
    "AMU_KG",
    "omega2_to_thz",
    "bulk_dynamical_matrix",
    "bulk_phonon_bands",
    "wire_phonon_blocks",
]

#: Atomic mass unit (kg).
AMU_KG: float = 1.66053906660e-27


def omega2_to_thz(omega2: np.ndarray) -> np.ndarray:
    """Convert omega^2 eigenvalues (N/m/amu units) to frequencies in THz.

    Negative eigenvalues (numerical noise at the acoustic Gamma point, or
    genuine instabilities) map to negative frequencies -sqrt(|w2|) so they
    remain visible.
    """
    omega2 = np.asarray(omega2, dtype=float)
    rate2 = omega2 / AMU_KG * 1.0  # (N/m/kg) = 1/s^2
    return np.sign(rate2) * np.sqrt(np.abs(rate2)) / (2.0 * np.pi) / 1e12


def _mass_vector(structure: AtomicStructure) -> np.ndarray:
    masses = []
    for s in structure.species:
        if s not in KEATING_PARAMS or KEATING_PARAMS[s].get("mass_amu") is None:
            raise KeyError(f"no atomic mass for species {s!r}")
        masses.append(KEATING_PARAMS[s]["mass_amu"])
    return np.repeat(np.array(masses), 3)


def bulk_dynamical_matrix(
    cell: ZincblendeCell,
    k: np.ndarray,
    alpha: float | None = None,
    beta: float | None = None,
    n_super: int = 3,
) -> np.ndarray:
    """Bloch dynamical matrix D(k) of the 2-atom primitive cell (6 x 6).

    Real-space force constants are computed on an ``n_super^3``
    conventional supercell (the Keating interaction range is two bond
    shells, so 3^3 is converged); rows of the two central primitive-cell
    atoms are Fourier summed with the atomic-gauge phases.

    ``alpha``/``beta`` default to the tabulated values of the anion species.
    The force constants do not depend on k: they are built once per
    ``(cell, alpha, beta, n_super)`` and only the phases per call.
    """
    params = KEATING_PARAMS[cell.anion]
    alpha = params["alpha"] if alpha is None else alpha
    beta = params["beta"] if beta is None else beta
    k = np.asarray(k, dtype=float)

    D = np.zeros((6, 6), dtype=complex)
    for s, sp, block, rij, msqrt in _supercell_terms(cell, alpha, beta, n_super):
        phase = np.exp(1j * (k @ rij))
        D[3 * s : 3 * s + 3, 3 * sp : 3 * sp + 3] += block * phase / msqrt
    return 0.5 * (D + D.conj().T)


@functools.lru_cache(maxsize=None)
def _supercell_terms(cell, alpha, beta, n_super) -> tuple:
    """The k-independent part of :func:`bulk_dynamical_matrix`, built
    once per ``(cell, alpha, beta, n_super)``: per non-zero force-constant
    block of a central primitive-cell atom, ``(s, sp, block, rij, msqrt)``
    — the basis index of each atom, the 3 x 3 block, the bond vector and
    ``sqrt(m_i m_j)``."""
    unit = conventional_cell(cell)
    a = cell.a_nm
    sc = replicate(unit, n_super, n_super, n_super, [a] * 3)
    table = build_neighbor_table(sc, cell.bond_length_nm)
    model = KeatingModel(sc, table, alpha, beta, cell.bond_length_nm)
    phi = model.force_constants()

    # the two atoms of the central primitive cell: the anion at the centre
    # cell origin and its (+1/4,+1/4,+1/4) cation partner
    centre = (n_super // 2) * a
    pos = sc.positions
    i_anion = int(
        np.argmin(np.linalg.norm(pos - np.array([centre] * 3), axis=1))
    )
    i_cation = int(
        np.argmin(
            np.linalg.norm(pos - (pos[i_anion] + 0.25 * a), axis=1)
        )
    )
    masses = _mass_vector(sc).reshape(-1, 3)[:, 0]
    terms = []
    for s, i in enumerate([i_anion, i_cation]):
        for j in range(sc.n_atoms):
            block = phi[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
            if np.abs(block).max() < 1e-12:
                continue
            # map atom j onto its basis index by sublattice
            terms.append((s, int(sc.sublattice[j]), block.copy(),
                          pos[j] - pos[i], np.sqrt(masses[i] * masses[j])))
    return tuple(terms)


def bulk_phonon_bands(
    cell: ZincblendeCell,
    k_points: np.ndarray,
    **kwargs,
) -> np.ndarray:
    """Phonon frequencies (THz) along a k path, shape (nk, 6)."""
    out = []
    for k in np.atleast_2d(k_points):
        w2 = np.linalg.eigvalsh(bulk_dynamical_matrix(cell, k, **kwargs))
        out.append(omega2_to_thz(w2))
    return np.array(out)


def wire_phonon_blocks(
    device: SlabbedDevice,
    alpha: float,
    beta: float,
    d0_nm: float,
    mass_override: np.ndarray | None = None,
) -> BlockTridiagonalHamiltonian:
    """Mass-weighted dynamical matrix of a slabbed wire in block form.

    The returned object is a drop-in "Hamiltonian" for the transport
    kernels with energy variable omega^2 (in N/m/amu units).  Free-surface
    boundary conditions are automatic (missing bonds simply do not
    contribute).  ``mass_override`` (amu per atom) models isotope/mass
    disorder.

    End-slab force constants of a *finite* wire are boundary-corrupted;
    callers building an infinite/lead-periodic wire should construct the
    device 2 slabs longer and use
    ``BlockTridiagonalHamiltonian(diag[1:-1], upper[1:-2])``-style interior
    blocks, as :func:`repro.phonons.thermal.periodic_wire_dynamics` does.
    """
    structure = device.structure
    model = KeatingModel(
        structure, device.neighbor_table, alpha, beta, d0_nm
    )
    phi = model.force_constants()
    if mass_override is None:
        masses = _mass_vector(structure).reshape(-1, 3)[:, 0]
    else:
        masses = np.asarray(mass_override, dtype=float)
        if masses.shape != (structure.n_atoms,):
            raise ValueError("mass_override must have one entry per atom")
    weight = np.repeat(1.0 / np.sqrt(masses), 3)
    dyn = phi * np.outer(weight, weight)

    starts = device.slab_starts * 3
    diag = []
    upper = []
    for s in range(device.n_slabs):
        sl = slice(starts[s], starts[s + 1])
        diag.append(np.ascontiguousarray(dyn[sl, sl], dtype=complex))
        if s < device.n_slabs - 1:
            sl_next = slice(starts[s + 1], starts[s + 2])
            upper.append(np.ascontiguousarray(dyn[sl, sl_next], dtype=complex))
    return BlockTridiagonalHamiltonian(diag, upper)
