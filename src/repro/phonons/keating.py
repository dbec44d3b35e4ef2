"""Keating valence-force-field: energies, forces and force constants.

The NEMO/OMEN ecosystem pairs its electronic tight-binding with a
valence-force-field (VFF) lattice model for strain relaxation and phonons
(cf. the authors' companion papers on nanowire phonon spectra and thermal
properties).  The classic two-parameter Keating form is implemented here:

    V = (3 alpha / 16 d^2) * sum_bonds   (r_ij . r_ij - d^2)^2
      + (3 beta  /  8 d^2) * sum_angles  (r_ij . r_ik + d^2/3)^2

with ``alpha`` the bond-stretching and ``beta`` the angle-bending constant
(N/m) and ``d`` the equilibrium bond length.  Energies and analytic forces
are exact; force-constant matrices (the Hessian) are obtained by central
finite differences of the analytic forces, which keeps the implementation
short and is verified against translational invariance (acoustic sum rule)
in the tests.

Units: positions nm, force constants N/m, energies in N/m * nm^2 = 1e-18 J
internally; the dynamical-matrix layer converts to THz/meV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lattice.neighbors import NeighborTable
from ..lattice.structure import AtomicStructure

__all__ = ["KeatingModel", "KEATING_PARAMS"]

#: Published Keating parameters (alpha, beta in N/m; mass in amu).
KEATING_PARAMS = {
    "Si": {"alpha": 48.5, "beta": 13.8, "mass_amu": 28.0855},
    "Ge": {"alpha": 38.7, "beta": 11.4, "mass_amu": 72.63},
    "GaAs": {"alpha": 41.2, "beta": 8.9, "mass_amu": None},  # per-species masses
    "Ga": {"mass_amu": 69.723},
    "As": {"mass_amu": 74.9216},
}


@dataclass
class KeatingModel:
    """Keating VFF on a fixed bond topology.

    Parameters
    ----------
    structure : AtomicStructure
        Equilibrium atom positions.
    table : NeighborTable
        Nearest-neighbour bonds (defines both bond and angle terms; angles
        are all pairs of bonds sharing a vertex).
    alpha, beta : float
        Keating constants (N/m).
    d0_nm : float
        Equilibrium bond length.
    """

    structure: AtomicStructure
    table: NeighborTable
    alpha: float
    beta: float
    d0_nm: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta < 0:
            raise ValueError("alpha must be > 0 and beta >= 0")
        if self.d0_nm <= 0:
            raise ValueError("equilibrium bond length must be positive")
        # per-atom bond lists (bond row indices)
        n = self.structure.n_atoms
        self._bonds_of = [self.table.bonds_of(a) for a in range(n)]
        self._cb = 3.0 * self.alpha / (16.0 * self.d0_nm**2)
        self._ca = 3.0 * self.beta / (8.0 * self.d0_nm**2)

    # ------------------------------------------------------------------
    def _bond_vectors(self, displacements: np.ndarray | None):
        """Current bond vectors given per-atom displacements (N, 3); None
        displaces nothing."""
        n = self.structure.n_atoms
        if displacements is None:
            displacements = np.zeros((n, 3))
        displacements = np.asarray(displacements, dtype=float)
        if displacements.shape != (n, 3):
            raise ValueError("displacements must be (n_atoms, 3)")
        d = self.table.displacement.copy()
        d += displacements[self.table.j] - displacements[self.table.i]
        return d

    def energy(self, displacements: np.ndarray | None = None) -> float:
        """Keating energy (1e-18 J) at displaced positions."""
        n = self.structure.n_atoms
        r = self._bond_vectors(displacements)
        d2 = self.d0_nm**2
        # bond terms (each physical bond appears twice in the directed
        # table -> half weight)
        stretch = (np.einsum("ij,ij->i", r, r) - d2) ** 2
        e = 0.5 * self._cb * stretch.sum()
        # angle terms at each vertex
        for a in range(n):
            rows = self._bonds_of[a]
            ra = r[rows]
            for p in range(len(rows)):
                for q in range(p + 1, len(rows)):
                    cross = ra[p] @ ra[q] + d2 / 3.0
                    e += self._ca * cross * cross
        return float(e)

    def forces(self, displacements: np.ndarray | None = None) -> np.ndarray:
        """Analytic forces -dV/du, shape (n_atoms, 3) (nN = 1e-18 J / nm)."""
        n = self.structure.n_atoms
        r = self._bond_vectors(displacements)
        d2 = self.d0_nm**2
        grad = np.zeros((n, 3))
        # bond terms: dV/dr = 2 c_b (r.r - d^2) * 2r, per directed bond/2
        s = np.einsum("ij,ij->i", r, r) - d2
        per_bond = (0.5 * self._cb * 2.0 * s)[:, None] * (2.0 * r)
        np.add.at(grad, self.table.j, per_bond)
        np.add.at(grad, self.table.i, -per_bond)
        # angle terms at vertex a with bonds to (j via r_p) and (k via r_q):
        # dV/du_j = 2 c_a x * r_q  (since r_p = x_j - x_a + const),
        # dV/du_k = 2 c_a x * r_p,  dV/du_a = -2 c_a x (r_p + r_q)
        for a in range(n):
            rows = self._bonds_of[a]
            ra = r[rows]
            js = self.table.j[rows]
            for p in range(len(rows)):
                for q in range(p + 1, len(rows)):
                    x = ra[p] @ ra[q] + d2 / 3.0
                    gp = 2.0 * self._ca * x * ra[q]
                    gq = 2.0 * self._ca * x * ra[p]
                    grad[js[p]] += gp
                    grad[js[q]] += gq
                    grad[a] -= gp + gq
        return -grad

    # ------------------------------------------------------------------
    def force_constants(self, h: float = 1e-5) -> np.ndarray:
        """Hessian Phi[(i,a),(j,b)] = d^2 V / du_ia du_jb, shape (3N, 3N).

        Central finite differences of the analytic forces; symmetrised.
        Units: N/m.
        """
        n = self.structure.n_atoms
        phi = np.zeros((3 * n, 3 * n))
        for i in range(n):
            for a in range(3):
                dp = np.zeros((n, 3))
                dp[i, a] = h
                f_plus = self.forces(dp)
                dp[i, a] = -h
                f_minus = self.forces(dp)
                phi[3 * i + a, :] = (
                    -(f_plus - f_minus).reshape(-1) / (2.0 * h)
                )
        return 0.5 * (phi + phi.T)
