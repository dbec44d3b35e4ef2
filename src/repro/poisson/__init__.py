"""Finite-volume nonlinear Poisson electrostatics."""

from .charge import QuantumCorrectedCharge, SemiclassicalCharge, effective_dos_3d
from .grid import AtomMap, PoissonGrid
from .nonlinear import AndersonMixer, NonlinearPoisson, PoissonResult
from .operators import Q_OVER_EPS0_V_NM, apply_dirichlet, assemble_laplacian

__all__ = [
    "QuantumCorrectedCharge",
    "SemiclassicalCharge",
    "effective_dos_3d",
    "AtomMap",
    "PoissonGrid",
    "AndersonMixer",
    "NonlinearPoisson",
    "PoissonResult",
    "Q_OVER_EPS0_V_NM",
    "apply_dirichlet",
    "assemble_laplacian",
]
