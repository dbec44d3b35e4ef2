"""Device geometry builders: nanowires, ultra-thin bodies, grid devices.

These are the three device families of the SC'11 evaluation:

* **gate-all-around nanowire FETs** — a zincblende crystal cut to a
  rectangular or circular cross-section, confined in y and z, transport
  along x = [100];
* **ultra-thin-body (UTB) FETs** — confined in z only, periodic in y
  (sampled by the momentum grid), transport along x;
* **single-band grid devices** — a simple-cubic lattice of one-orbital
  pseudo-atoms realising the discretized effective-mass Hamiltonian.  Same
  code path, ~100x cheaper; used for fast examples and tests.

All builders return structures whose x-extent is an integer number of
transport unit cells, which the slab partitioner (:mod:`repro.lattice.slabs`)
requires so the contact leads are perfect repetitions of the end slabs.
"""

from __future__ import annotations

import numpy as np

from .neighbors import build_neighbor_table
from .structure import AtomicStructure
from .zincblende import ZincblendeCell, conventional_cell

__all__ = [
    "zincblende_nanowire",
    "zincblende_ultra_thin_body",
    "rectangular_grid_device",
    "prune_undercoordinated",
    "replicate",
]


def replicate(
    unit: AtomicStructure, n_x: int, n_y: int, n_z: int, cell_lengths
) -> AtomicStructure:
    """Tile a unit structure ``n_x * n_y * n_z`` times on an orthogonal grid.

    ``cell_lengths`` is the (3,) repeat distance in nm along each axis.
    Atom ordering is x-major (all atoms of the first x-layer first), which
    keeps the subsequent slab partitioning a stable sort.
    """
    if min(n_x, n_y, n_z) < 1:
        raise ValueError("replication counts must be >= 1")
    cell_lengths = np.asarray(cell_lengths, dtype=float)
    blocks = []
    for ix in range(n_x):
        for iy in range(n_y):
            for iz in range(n_z):
                shift = cell_lengths * np.array([ix, iy, iz])
                blocks.append(unit.translated(shift))
    out = blocks[0]
    for b in blocks[1:]:
        out = out.merged_with(b)
    return out


def prune_undercoordinated(
    structure: AtomicStructure,
    cutoff_nm: float,
    min_coordination: int = 2,
    max_passes: int = 20,
) -> AtomicStructure:
    """Iteratively remove surface atoms with fewer than ``min_coordination`` bonds.

    Atoms with 0 or 1 nearest neighbours (adatoms and dangling chains left by
    the geometric cut) are unphysical after passivation and create spurious
    mid-gap states; production atomistic codes strip them the same way.
    """
    return _prune(structure, min_coordination, max_passes, lambda current: (
        build_neighbor_table(current, cutoff_nm).coordination(current.n_atoms)
    ), "pruning did not converge; geometry is pathological")


def _prune(current, min_coordination, max_passes, coordination, failure):
    """Drop the atoms ``coordination(current)`` finds under-coordinated
    until none is (at most ``max_passes`` rounds, else a ``RuntimeError``
    saying ``failure``)."""
    for _ in range(max_passes):
        if current.n_atoms == 0:
            raise ValueError("pruning removed all atoms; cross-section too small")
        keep = coordination(current) >= min_coordination
        if keep.all():
            return current
        current = current.select(keep)
    raise RuntimeError(failure)


def prune_undercoordinated_periodic_x(
    unit: AtomicStructure,
    cutoff_nm: float,
    period_x_nm: float,
    min_coordination: int = 2,
    max_passes: int = 20,
) -> AtomicStructure:
    """Prune one transport unit cell of an *infinite* wire or film.

    Coordination is counted with ghost copies of the cell at +-period in x,
    so the pruned pattern is exactly translation invariant along the
    transport direction — end slabs of a device replicated from this cell
    stay identical to interior slabs, which the contact construction needs.
    """
    shift = np.array([period_x_nm, 0.0, 0.0])

    def coordination(current):
        n = current.n_atoms
        ext = (
            current.translated(-shift)
            .merged_with(current)
            .merged_with(current.translated(shift))
        )
        table = build_neighbor_table(ext, cutoff_nm)
        return table.coordination(ext.n_atoms)[n : 2 * n]

    return _prune(unit, min_coordination, max_passes, coordination,
                  "periodic pruning did not converge")


def zincblende_nanowire(
    cell: ZincblendeCell,
    n_cells_x: int,
    n_cells_y: int,
    n_cells_z: int,
    shape: str = "square",
    prune: bool = True,
) -> AtomicStructure:
    """[100]-oriented zincblende nanowire.

    Parameters
    ----------
    cell : ZincblendeCell
        Material geometry.
    n_cells_x : int
        Device length in conventional cells (each of length a).
    n_cells_y, n_cells_z : int
        Cross-section in conventional cells.
    shape : {"square", "circle"}
        Cross-section shape; "circle" keeps atoms within the inscribed
        radius of the (y, z) bounding square.
    prune : bool
        Strip under-coordinated surface atoms (recommended).
    """
    if shape not in ("square", "circle"):
        raise ValueError(f"unknown cross-section shape {shape!r}")
    unit = conventional_cell(cell)
    ring = replicate(unit, 1, n_cells_y, n_cells_z, [cell.a_nm] * 3)
    if shape == "circle":
        center = np.array(
            [0.0, n_cells_y * cell.a_nm / 2.0, n_cells_z * cell.a_nm / 2.0]
        )
        radius = min(n_cells_y, n_cells_z) * cell.a_nm / 2.0
        d = ring.positions[:, 1:] - center[1:]
        ring = ring.select(np.einsum("ij,ij->i", d, d) <= radius**2 * (1 + 1e-9))
    if prune:
        # Prune the infinite wire's unit cell, then replicate, so the pruned
        # pattern is identical in every slab (lead periodicity).
        ring = prune_undercoordinated_periodic_x(
            ring, cell.bond_length_nm, cell.a_nm
        )
    return replicate(ring, n_cells_x, 1, 1, [cell.a_nm] * 3)


def zincblende_ultra_thin_body(
    cell: ZincblendeCell,
    n_cells_x: int,
    n_cells_z: int,
    prune: bool = True,
) -> AtomicStructure:
    """[100] ultra-thin-body film: one cell wide in y (periodic), confined in z.

    The returned structure has ``periodic_y = a``; its transverse Brillouin
    zone is sampled by :class:`repro.physics.MomentumGrid`.
    """
    unit = conventional_cell(cell)
    ring = replicate(unit, 1, 1, n_cells_z, [cell.a_nm] * 3)
    ring = AtomicStructure(
        ring.positions,
        ring.species,
        periodic_y=cell.a_nm,
        sublattice=ring.sublattice,
    )
    if prune:
        ring = prune_undercoordinated_periodic_x(
            ring, cell.bond_length_nm, cell.a_nm
        )
    return replicate(ring, n_cells_x, 1, 1, [cell.a_nm] * 3)


def rectangular_grid_device(
    spacing_nm: float,
    n_x: int,
    n_y: int,
    n_z: int,
    species: str = "X",
    periodic_y: bool = False,
) -> AtomicStructure:
    """Simple-cubic grid of one-orbital pseudo-atoms (effective-mass device).

    The nearest-neighbour distance equals ``spacing_nm``; pairing this
    geometry with the single-band material of :mod:`repro.tb.parameters`
    realises the standard finite-difference effective-mass Hamiltonian on
    the same transport code path as the full-band devices.
    """
    if spacing_nm <= 0:
        raise ValueError("spacing must be positive")
    if min(n_x, n_y, n_z) < 1:
        raise ValueError("grid dimensions must be >= 1")
    xs, ys, zs = np.meshgrid(
        np.arange(n_x), np.arange(n_y), np.arange(n_z), indexing="ij"
    )
    positions = spacing_nm * np.stack(
        [xs.ravel(), ys.ravel(), zs.ravel()], axis=1
    ).astype(float)
    period = spacing_nm * n_y if periodic_y else None
    return AtomicStructure(
        positions, [species] * positions.shape[0], periodic_y=period
    )
