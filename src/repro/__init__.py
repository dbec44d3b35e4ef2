"""repro — atomistic nanoelectronic device simulation at (simulated) petascale.

A from-scratch Python reproduction of the OMEN quantum-transport simulator
described in "Atomistic nanoelectronic device engineering with sustained
performances up to 1.44 PFlop/s" (SC 2011): empirical tight-binding devices,
NEGF/recursive-Green's-function and wave-function transport kernels,
self-consistent Poisson electrostatics, and a four-level parallel
decomposition with a calibrated performance model of the petascale machine.

Subpackages
-----------
physics   constants, Fermi statistics, quadrature grids
lattice   crystals, device geometry, neighbour tables, slabs
tb        Slater-Koster Hamiltonians, materials, band structure
solvers   block-tridiagonal linear algebra
negf      surface Green's functions, RGF, transmission, observables
wf        wave-function (QTBM) scattering-state transport
poisson   finite-volume nonlinear electrostatics
parallel  communicator abstraction and the 4-level work scheduler
perf      flop accounting
observability tracing, metrics, physics invariants, cross-process telemetry
resilience fault injection, retry/rescue ladders, health sentinels
core      device specs, transport facade, SCF driver, I-V engine

``import repro`` loads these, i.e. the default transport path, and
nothing else.  Capability modules are imported from the module that
defines them: ``repro.io`` (specs, result JSON, tables),
``repro.phonons``, ``repro.observability.{export,validate}``,
``repro.perf.{model,machine}``,
``repro.tb.{alloy,chain,eigensolver,unfolding}``,
``repro.solvers.splitsolve`` and ``repro.resilience.checkpoint``.
"""

__version__ = "1.0.0"

from . import (  # noqa: F401
    core,
    lattice,
    negf,
    observability,
    parallel,
    perf,
    physics,
    poisson,
    resilience,
    solvers,
    tb,
    wf,
)

__all__ = [
    "core",
    "lattice",
    "negf",
    "observability",
    "parallel",
    "perf",
    "physics",
    "poisson",
    "resilience",
    "solvers",
    "tb",
    "wf",
    "__version__",
]
