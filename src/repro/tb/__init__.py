"""Empirical tight binding: bases, Slater-Koster blocks, Hamiltonians, bands.

Four capability modules are imported from the modules that define them
and are not loaded by ``import repro``: :mod:`repro.tb.alloy` (random
alloys, virtual crystal), :mod:`repro.tb.chain` (analytic 1-D chains),
:mod:`repro.tb.eigensolver` (closed-system interior eigenstates) and
:mod:`repro.tb.unfolding` (supercell band unfolding).
"""

from .bands import (
    BandPath,
    lead_conduction_minimum,
    band_structure_path,
    bulk_band_edges,
    effective_mass,
    periodic_wire_blocks,
    wire_band_edges,
    wire_band_structure,
)
from .hamiltonian import (
    BlockTridiagonalHamiltonian,
    HamiltonianSkeleton,
    build_device_hamiltonian,
    bulk_hamiltonian,
    wire_bloch_hamiltonian,
)
from .orbitals import (
    BASIS_BY_NAME,
    BASIS_S,
    BASIS_SP3D5S,
    BASIS_SP3S,
    BasisSet,
    Orbital,
)
from .parameters import (
    MATERIAL_BUILDERS,
    TBMaterial,
    gaas_sp3s,
    germanium_sp3s,
    get_material,
    inas_sp3s,
    silicon_sp3d5s,
    silicon_sp3s,
    single_band_material,
)
from .slater_koster import SKParams, d_rotation, rotation_to_direction, sk_hopping_block
from .spin_orbit import PAULI, p_shell_l_matrices, spin_orbit_block
from .strain import HARRISON_ETA, scale_sk_params

__all__ = [
    "BandPath",
    "band_structure_path",
    "bulk_band_edges",
    "effective_mass",
    "periodic_wire_blocks",
    "wire_band_edges",
    "wire_band_structure",
    "lead_conduction_minimum",
    "BlockTridiagonalHamiltonian",
    "HamiltonianSkeleton",
    "build_device_hamiltonian",
    "bulk_hamiltonian",
    "wire_bloch_hamiltonian",
    "BASIS_BY_NAME",
    "BASIS_S",
    "BASIS_SP3D5S",
    "BASIS_SP3S",
    "BasisSet",
    "Orbital",
    "MATERIAL_BUILDERS",
    "TBMaterial",
    "gaas_sp3s",
    "germanium_sp3s",
    "get_material",
    "inas_sp3s",
    "silicon_sp3d5s",
    "silicon_sp3s",
    "single_band_material",
    "SKParams",
    "d_rotation",
    "rotation_to_direction",
    "sk_hopping_block",
    "PAULI",
    "p_shell_l_matrices",
    "spin_orbit_block",
    "HARRISON_ETA",
    "scale_sk_params",
]
