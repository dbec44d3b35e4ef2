"""Zincblende / diamond crystal geometry.

The devices of the SC'11 paper are cut from zincblende (GaAs, InAs) or
diamond (Si, Ge) crystals with transport along [100].  This module provides
the conventional cubic cell, the two-atom primitive cell used for bulk band
structures, and the nearest-neighbour bond geometry (the four tetrahedral
bond vectors) that both the Slater-Koster Hamiltonian and the passivation
model rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import AtomicStructure

__all__ = [
    "ZincblendeCell",
    "conventional_cell",
    "primitive_cell_info",
    "TETRAHEDRAL_BONDS",
    "bond_length",
]

#: The four tetrahedral bond directions from an anion (A sublattice) atom to
#: its cation neighbours, in units of the lattice constant a.
TETRAHEDRAL_BONDS: np.ndarray = np.array(
    [
        [0.25, 0.25, 0.25],
        [0.25, -0.25, -0.25],
        [-0.25, 0.25, -0.25],
        [-0.25, -0.25, 0.25],
    ]
)

#: Fractional positions (units of a) of the 8 atoms in the conventional
#: cubic cell: 4 on the fcc A sublattice, 4 on the B sublattice shifted by
#: (1/4, 1/4, 1/4).
_CONVENTIONAL_A = np.array(
    [[0.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
)
_CONVENTIONAL_B = _CONVENTIONAL_A + 0.25


def bond_length(a_nm: float) -> float:
    """Nearest-neighbour bond length of zincblende: ``a * sqrt(3) / 4``."""
    if a_nm <= 0:
        raise ValueError("lattice constant must be positive")
    return a_nm * np.sqrt(3.0) / 4.0


@dataclass(frozen=True)
class ZincblendeCell:
    """Conventional cubic cell description of a zincblende material.

    Attributes
    ----------
    a_nm : float
        Cubic lattice constant (nm).
    anion, cation : str
        Species of the two sublattices.  For diamond structure both are the
        same element (e.g. "Si"/"Si").
    """

    a_nm: float
    anion: str
    cation: str

    def __post_init__(self):
        if self.a_nm <= 0:
            raise ValueError("lattice constant must be positive")

    @property
    def bond_length_nm(self) -> float:
        """Nearest-neighbour distance (nm)."""
        return bond_length(self.a_nm)

    def conventional_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(A positions, B positions) of one conventional cell, in nm."""
        return _CONVENTIONAL_A * self.a_nm, _CONVENTIONAL_B * self.a_nm

    def bond_vectors_from_anion(self) -> np.ndarray:
        """The four anion->cation bond vectors (nm), shape (4, 3)."""
        return TETRAHEDRAL_BONDS * self.a_nm


def conventional_cell(cell: ZincblendeCell) -> AtomicStructure:
    """One conventional cubic cell (8 atoms) as an :class:`AtomicStructure`."""
    pos_a, pos_b = cell.conventional_positions()
    positions = np.vstack([pos_a, pos_b])
    species = [cell.anion] * 4 + [cell.cation] * 4
    sublattice = np.array([0] * 4 + [1] * 4)
    return AtomicStructure(positions, species, sublattice=sublattice)


def primitive_cell_info(cell: ZincblendeCell) -> dict:
    """Primitive (2-atom) fcc cell data for bulk band-structure calculations.

    Returns a dict with keys:

    * ``lattice_vectors``: (3, 3) fcc primitive vectors (rows), nm;
    * ``basis_positions``: (2, 3) positions of anion (origin) and cation;
    * ``species``: [anion, cation];
    * ``neighbor_vectors``: (4, 3) anion->cation nearest-neighbour vectors;
    * ``reciprocal_vectors``: (3, 3) reciprocal lattice vectors (rows), 1/nm.
    """
    a = cell.a_nm
    lattice = 0.5 * a * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    basis = np.array([[0.0, 0.0, 0.0], [0.25 * a, 0.25 * a, 0.25 * a]])
    recip = 2.0 * np.pi * np.linalg.inv(lattice).T
    return {
        "lattice_vectors": lattice,
        "basis_positions": basis,
        "species": [cell.anion, cell.cation],
        "neighbor_vectors": TETRAHEDRAL_BONDS * a,
        "reciprocal_vectors": recip,
    }


def high_symmetry_points(a_nm: float) -> dict:
    """Standard fcc Brillouin-zone points (1/nm) for band-structure paths.

    Gamma, X = (2pi/a)(1,0,0), L = (pi/a)(1,1,1), K = (2pi/a)(3/4,3/4,0),
    W = (2pi/a)(1,1/2,0), U = (2pi/a)(1,1/4,1/4).
    """
    g = 2.0 * np.pi / a_nm
    return {
        "Gamma": np.zeros(3),
        "X": g * np.array([1.0, 0.0, 0.0]),
        "L": g * np.array([0.5, 0.5, 0.5]),
        "K": g * np.array([0.75, 0.75, 0.0]),
        "W": g * np.array([1.0, 0.5, 0.0]),
        "U": g * np.array([1.0, 0.25, 0.25]),
    }
