"""NEGF transport: surface GFs, self-energies, RGF kernel, observables."""

from .dense_ref import dense_green_function, dense_observables, dense_transmission
from .observables import carrier_density, landauer_current, orbital_to_atom
from .rgf import RGFResult, RGFSolver, assemble_system_blocks
from .self_energy import (
    Contacts,
    LeadSelfEnergy,
    contact_self_energy,
    contact_self_energy_batch,
)
from .surface_gf import (
    LeadModes,
    eigen_surface_gf,
    lead_modes,
    sancho_rubio,
    sancho_rubio_batch,
)

__all__ = [
    "dense_green_function",
    "dense_observables",
    "dense_transmission",
    "carrier_density",
    "landauer_current",
    "orbital_to_atom",
    "RGFResult",
    "RGFSolver",
    "assemble_system_blocks",
    "Contacts",
    "LeadSelfEnergy",
    "contact_self_energy",
    "contact_self_energy_batch",
    "LeadModes",
    "eigen_surface_gf",
    "lead_modes",
    "sancho_rubio",
    "sancho_rubio_batch",
]
