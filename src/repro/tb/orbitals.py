"""Orbital bases for empirical tight binding.

The SC'11 simulator runs its devices in the nearest-neighbour sp3d5s* basis
(10 orbitals/atom, 20 with spin) and, for cheaper scans, sp3s* (5/atom).
This module defines the orbital labels, their ordering conventions and the
:class:`BasisSet` descriptor used by the Hamiltonian assembler.

Ordering convention (fixed everywhere):

    s, px, py, pz, dxy, dyz, dzx, dx2y2, dz2, s*

restricted to the orbitals present in the basis.  With spin, the full basis
is the tensor product (orbital ⊗ spin) ordered orbital-major:
``s↑, s↓, px↑, px↓, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum


class Orbital(IntEnum):
    """Atomic orbital labels in canonical order."""

    S = 0
    PX = 1
    PY = 2
    PZ = 3
    DXY = 4
    DYZ = 5
    DZX = 6
    DX2Y2 = 7
    DZ2 = 8
    SSTAR = 9


_P_ORBITALS = (Orbital.PX, Orbital.PY, Orbital.PZ)


@dataclass(frozen=True)
class BasisSet:
    """An ordered set of orbitals, optionally doubled by spin.

    Attributes
    ----------
    orbitals : tuple of Orbital
        Orbitals in canonical order.
    spin : bool
        If True the basis is orbital ⊗ spin (spin-orbit capable).
    """

    orbitals: tuple
    spin: bool = False

    def __post_init__(self):
        orbs = tuple(self.orbitals)
        if len(set(orbs)) != len(orbs):
            raise ValueError("duplicate orbitals in basis")
        if tuple(sorted(orbs)) != orbs:
            raise ValueError("orbitals must be given in canonical order")
        object.__setattr__(self, "orbitals", orbs)

    @property
    def n_orbitals(self) -> int:
        """Orbitals per atom without spin."""
        return len(self.orbitals)

    @property
    def size(self) -> int:
        """Matrix dimension contributed by one atom (orbitals x spin)."""
        return self.n_orbitals * (2 if self.spin else 1)

    def index(self, orb: Orbital, spin_up: bool = True) -> int:
        """Position of an orbital (and spin) inside one atom's block."""
        base = self.orbitals.index(orb)
        if not self.spin:
            return base
        return 2 * base + (0 if spin_up else 1)

    def has_p(self) -> bool:
        """True if the basis contains the p shell (needed for spin-orbit)."""
        return all(o in self.orbitals for o in _P_ORBITALS)

    def with_spin(self) -> "BasisSet":
        """Copy of this basis with spin doubled on."""
        return BasisSet(self.orbitals, spin=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ",".join(o.name.lower() for o in self.orbitals)
        return f"BasisSet([{names}], spin={self.spin})"


#: Single s orbital — the effective-mass grid material.
BASIS_S = BasisSet((Orbital.S,))

#: Vogl sp3s* basis (5 orbitals).
BASIS_SP3S = BasisSet(
    (Orbital.S, Orbital.PX, Orbital.PY, Orbital.PZ, Orbital.SSTAR)
)

#: Full sp3d5s* basis (10 orbitals) of the production simulator.
BASIS_SP3D5S = BasisSet(
    (
        Orbital.S,
        Orbital.PX,
        Orbital.PY,
        Orbital.PZ,
        Orbital.DXY,
        Orbital.DYZ,
        Orbital.DZX,
        Orbital.DX2Y2,
        Orbital.DZ2,
        Orbital.SSTAR,
    )
)

BASIS_BY_NAME = {
    "s": BASIS_S,
    "sp3s*": BASIS_SP3S,
    "sp3d5s*": BASIS_SP3D5S,
}
