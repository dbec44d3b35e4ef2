"""Device specification and construction.

A :class:`DeviceSpec` is the user-facing description of a transistor — the
JSON-serialisable record a device engineer edits: geometry family, material,
doping profile, gate window, oxide, temperature.  :func:`build_device`
turns it into a :class:`BuiltDevice` holding every derived object the
simulation needs: the slab-ordered atoms, the material, the per-atom donor
profile, the Poisson mesh with its dielectric map and gate mask, and the
contact chemical potentials (from source/drain charge neutrality).

Geometry families
-----------------
``nanowire-grid``  single-band effective-mass wire on a simple-cubic grid —
                   the fast family used by the SCF examples and most tests;
``nanowire-zb``    full-band zincblende nanowire (sp3s*/sp3d5s*);
``utb-zb``         full-band ultra-thin body, periodic in y (k-sampled).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lattice import (
    partition_into_slabs,
    rectangular_grid_device,
    zincblende_nanowire,
    zincblende_ultra_thin_body,
)
from ..lattice.slabs import SlabbedDevice
from ..physics.constants import KB_EV
from ..physics.fermi import inverse_fermi_integral_half
from ..physics.grids import MomentumGrid
from ..poisson.charge import effective_dos_3d
from ..poisson.grid import PoissonGrid
from ..tb.hamiltonian import BlockTridiagonalHamiltonian, HamiltonianSkeleton
from ..tb.parameters import TBMaterial, get_material

__all__ = ["DeviceSpec", "BuiltDevice", "build_device"]

_GEOMETRIES = ("nanowire-grid", "nanowire-zb", "utb-zb")


@dataclass
class DeviceSpec:
    """User-level description of a gated transistor.

    Attributes
    ----------
    name : str
        Label used in reports.
    geometry : str
        One of ``nanowire-grid``, ``nanowire-zb``, ``utb-zb``.
    material : str
        Material registry name (``single-band`` for the grid family).
    material_params : dict
        Extra kwargs for the material builder (e.g. ``m_rel`` for the
        single-band family).
    n_x, n_y, n_z : int
        Geometry extents: grid nodes for the grid family, conventional
        cells for the zincblende families (n_y ignored for UTB).
    spacing_nm : float
        Grid spacing (grid family only).
    source_cells, drain_cells : int
        Length of the doped contact extensions, in transport cells.
    donor_density_nm3 : float
        Ionised donor concentration in source/drain (nm^-3).
    gate_cells : tuple
        (first, last) transport-cell indices under the gate (inclusive).
    oxide_padding : int
        Poisson-mesh node layers of oxide added on the transverse faces.
    eps_semiconductor, eps_oxide : float
        Relative permittivities.
    temperature_k : float
        Lattice/contact temperature.
    spin_orbit : bool
        Use the spin-doubled basis (zincblende families).
    """

    name: str = "device"
    geometry: str = "nanowire-grid"
    material: str = "single-band"
    material_params: dict = field(default_factory=dict)
    n_x: int = 16
    n_y: int = 3
    n_z: int = 3
    spacing_nm: float = 0.25
    source_cells: int = 5
    drain_cells: int = 5
    donor_density_nm3: float = 1.0e-1
    gate_cells: tuple = (6, 9)
    oxide_padding: int = 2
    eps_semiconductor: float = 11.7
    eps_oxide: float = 3.9
    temperature_k: float = 300.0
    spin_orbit: bool = False

    def __post_init__(self):
        if self.geometry not in _GEOMETRIES:
            raise ValueError(
                f"unknown geometry {self.geometry!r}; known: {_GEOMETRIES}"
            )
        if self.source_cells + self.drain_cells >= self.n_x:
            raise ValueError("contacts longer than the device")
        g0, g1 = self.gate_cells
        if not (0 <= g0 <= g1 < self.n_x):
            raise ValueError("gate window outside the device")
        if self.donor_density_nm3 <= 0:
            raise ValueError("donor density must be positive")

    @property
    def kT(self) -> float:
        """Thermal energy (eV)."""
        return KB_EV * self.temperature_k


@dataclass
class BuiltDevice:
    """Everything derived from a :class:`DeviceSpec`.

    Attributes
    ----------
    spec : DeviceSpec
    material : TBMaterial
    device : SlabbedDevice
        Slab-ordered atoms.
    donors_per_atom : ndarray
        Ionised donors assigned to each atom (electrons/atom).
    momentum_grid : MomentumGrid
        Transverse k sampling (Gamma-only except for UTB).
    poisson_grid : PoissonGrid
    eps_r : ndarray
        Relative permittivity per Poisson node.
    gate_mask : ndarray of bool
        Dirichlet (gate electrode) nodes.
    semiconductor_mask : ndarray of bool
        Poisson nodes inside the semiconductor body.
    mu_source_offset : float
        Contact chemical potential relative to the contact conduction band
        edge (eV), from charge neutrality at the specified doping.
    band_edge : float
        Conduction band reference Ec of the contacts at zero potential (eV).
    m_dos : float
        Density-of-states mass used by the charge models.
    midgap : float
        Bulk midgap energy (eV) separating valence from conduction subbands
        of the leads; -inf for the electron-only grid family.
    skeletons : dict
        The potential-independent half of the device Hamiltonian
        (:class:`repro.tb.HamiltonianSkeleton`) per transverse momentum of
        ``momentum_grid``, keyed by ``float(k)``: assembled once, at
        :func:`build_device` for ``k_points[0]`` and on first use for the
        others (see :meth:`hamiltonian`).
    """

    spec: DeviceSpec
    material: TBMaterial
    device: SlabbedDevice
    donors_per_atom: np.ndarray
    momentum_grid: MomentumGrid
    poisson_grid: PoissonGrid
    eps_r: np.ndarray
    gate_mask: np.ndarray
    semiconductor_mask: np.ndarray
    mu_source_offset: float
    band_edge: float
    m_dos: float
    midgap: float = -np.inf
    skeletons: dict = field(default_factory=dict, repr=False)

    @property
    def n_atoms(self) -> int:
        """Number of atoms in the device."""
        return self.device.structure.n_atoms

    def hamiltonian(
        self, potential: np.ndarray | None = None, k_transverse: float = 0.0
    ) -> BlockTridiagonalHamiltonian:
        """Device Hamiltonian at a per-atom potential energy (eV) and k.

        A potential update is one diagonal add on the cached skeleton of
        ``k_transverse``: fresh diagonal blocks, the geometry-only upper
        blocks shared read-only.  Only the momenta of ``momentum_grid`` are
        cached, so the cache is bounded by the grid; any other k is
        assembled for this call and not retained.  Threads that miss on the
        same k at once each assemble it — identical, immutable skeletons, so
        whichever is stored last changes nothing.
        """
        k = float(k_transverse)
        skeleton = self.skeletons.get(k)
        if skeleton is None:
            skeleton = HamiltonianSkeleton(self.device, self.material, k)
            if k in self.momentum_grid.k_points:
                self.skeletons[k] = skeleton
        return skeleton.hamiltonian(potential)

    def atom_volume_nm3(self) -> float:
        """Average volume per atom (for atom<->node density conversion)."""
        ext = self.device.structure.extent()
        # extents measure atom centres; pad by one transverse atomic
        # spacing per axis so a uniform grid gives spacing^3 per atom
        cell = self.device.slab_length_nm
        pad = (
            self.spec.spacing_nm
            if self.spec.geometry == "nanowire-grid"
            else cell / 2.0
        )
        vol = (ext[0] + cell) * (ext[1] + pad) * (ext[2] + pad)
        return float(vol / self.n_atoms)

    def contact_mu(self, side: str, v_drain: float = 0.0) -> float:
        """Chemical potential of a contact at the given drain bias (eV).

        The source is the energy reference: mu_S = Ec + offset; the drain
        floats down with the applied bias, mu_D = mu_S - v_drain.
        """
        mu_s = self.band_edge + self.mu_source_offset
        if side == "source":
            return mu_s
        if side == "drain":
            return mu_s - v_drain
        raise ValueError("side must be 'source' or 'drain'")


def _neutral_mu_offset(donors_nm3: float, m_dos: float, kT: float) -> float:
    """mu - Ec (eV) from bulk neutrality n(mu) = N_D."""
    nc = effective_dos_3d(m_dos, kT)
    eta = float(inverse_fermi_integral_half(np.array([donors_nm3 / nc]))[0])
    return eta * kT


def build_device(spec: DeviceSpec) -> BuiltDevice:
    """Construct all simulation objects for a device specification."""
    # --- material and atoms ------------------------------------------------
    if spec.geometry == "nanowire-grid":
        params = dict(spec.material_params)
        params.setdefault("spacing_nm", spec.spacing_nm)
        material = get_material(spec.material, **params)
        structure = rectangular_grid_device(
            spec.spacing_nm, spec.n_x, spec.n_y, spec.n_z
        )
        momentum = MomentumGrid.gamma_only()
        m_dos = material.band_edges.get("m_rel", 1.0)
        midgap = -np.inf  # electron-only model: every subband is conduction
    else:
        material = get_material(spec.material, **spec.material_params)
        if spec.spin_orbit:
            material = material.with_spin()
        if material.cell is None:
            raise ValueError("zincblende geometry needs a zincblende material")
        if spec.geometry == "nanowire-zb":
            structure = zincblende_nanowire(
                material.cell, spec.n_x, spec.n_y, spec.n_z
            )
            momentum = MomentumGrid.gamma_only()
        else:
            structure = zincblende_ultra_thin_body(
                material.cell, spec.n_x, spec.n_z
            )
            momentum = MomentumGrid.irreducible(material.cell.a_nm, 7)
        m_dos = 1.08  # silicon-like DOS mass for the semiclassical model
        from ..tb.bands import bulk_band_edges

        be = bulk_band_edges(material, n_samples=31)
        midgap = 0.5 * (be["Ec"] + be["Ev"])
    device = partition_into_slabs(
        structure, material.slab_length_nm, material.bond_cutoff_nm
    )

    # Contact band reference: the lowest conduction subband of the actual
    # lead (confinement shifts it far above the bulk edge), computed from
    # the zero-potential lead Hamiltonian blocks.
    from ..tb.bands import lead_conduction_minimum

    k0 = float(momentum.k_points[0])
    skeleton = HamiltonianSkeleton(device, material, k0)
    H0 = skeleton.hamiltonian()
    band_edge = lead_conduction_minimum(
        H0.diagonal[0], H0.upper[0], device.slab_length_nm, floor=midgap
    )

    # --- doping profile ------------------------------------------------------
    slab_of = device.slab_of_atom()
    n_slabs = device.n_slabs
    cell_vol_per_atom = (
        spec.spacing_nm**3
        if spec.geometry == "nanowire-grid"
        else material.cell.a_nm**3 / 8.0
    )
    donors = np.zeros(device.structure.n_atoms)
    donors[slab_of < spec.source_cells] = spec.donor_density_nm3 * cell_vol_per_atom
    donors[slab_of >= n_slabs - spec.drain_cells] = (
        spec.donor_density_nm3 * cell_vol_per_atom
    )

    # --- Poisson mesh ---------------------------------------------------------
    mesh_spacing = (
        spec.spacing_nm
        if spec.geometry == "nanowire-grid"
        else material.cell.a_nm / 2.0
    )
    pgrid = PoissonGrid.covering(
        device.structure.positions, mesh_spacing, padding=spec.oxide_padding
    )
    coords = pgrid.coordinates()
    lo = device.structure.positions.min(axis=0) - 1e-6
    hi = device.structure.positions.max(axis=0) + 1e-6
    inside = np.all((coords >= lo) & (coords <= hi), axis=1)
    eps_r = np.where(inside, spec.eps_semiconductor, spec.eps_oxide)

    # gate electrode: outer transverse faces restricted to the gate window
    cell_len = material.slab_length_nm
    x0 = device.structure.positions[:, 0].min()
    g0, g1 = spec.gate_cells
    gate_lo = x0 + g0 * cell_len
    gate_hi = x0 + (g1 + 1) * cell_len
    faces = pgrid.boundary_mask(("y-", "y+", "z-", "z+"))
    window = pgrid.x_slab_mask(gate_lo, gate_hi)
    gate_mask = faces & window

    mu_offset = _neutral_mu_offset(spec.donor_density_nm3, m_dos, spec.kT)

    return BuiltDevice(
        spec=spec,
        material=material,
        device=device,
        donors_per_atom=donors,
        momentum_grid=momentum,
        poisson_grid=pgrid,
        eps_r=eps_r,
        gate_mask=gate_mask,
        semiconductor_mask=inside,
        mu_source_offset=mu_offset,
        band_edge=band_edge,
        m_dos=m_dos,
        midgap=midgap,
        skeletons={k0: skeleton},
    )
