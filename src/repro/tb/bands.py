"""Band-structure utilities: bulk paths, gaps, effective masses, wire subbands.

These routines validate the tight-binding layer against the textbook facts
(Si indirect gap near 0.85 X, GaAs direct gap, confinement-induced gap
widening in wires) and provide band-edge data to the charge model and to
the energy-grid construction of the transport driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..lattice.slabs import partition_into_slabs
from ..lattice.zincblende import high_symmetry_points
from .hamiltonian import (
    build_device_hamiltonian,
    bulk_hamiltonian,
    wire_bloch_hamiltonian,
)
from .parameters import TBMaterial

__all__ = [
    "band_structure_path",
    "bulk_band_edges",
    "effective_mass",
    "periodic_wire_blocks",
    "wire_band_structure",
    "wire_band_edges",
    "BandPath",
]


@dataclass(frozen=True)
class BandPath:
    """Band energies sampled along a k path.

    Attributes
    ----------
    distances : ndarray, shape (nk,)
        Cumulative path length (1/nm) for plotting.
    energies : ndarray, shape (nk, n_bands)
        Sorted eigenvalues at each k.
    k_points : ndarray, shape (nk, 3)
        The sampled wave vectors.
    labels : list of (float, str)
        (distance, name) of each high-symmetry vertex.
    """

    distances: np.ndarray
    energies: np.ndarray
    k_points: np.ndarray
    labels: list


def band_structure_path(
    material: TBMaterial,
    path: list[str] | None = None,
    n_per_segment: int = 30,
) -> BandPath:
    """Bulk bands along a high-symmetry path (default L - Gamma - X).

    Parameters
    ----------
    material : TBMaterial
        Zincblende material.
    path : list of str
        Vertex names from :func:`high_symmetry_points`.
    n_per_segment : int
        Samples per leg (endpoints included).
    """
    if material.cell is None:
        raise ValueError("band_structure_path requires a zincblende material")
    if path is None:
        path = ["L", "Gamma", "X"]
    pts = high_symmetry_points(material.cell.a_nm)
    vertices = [pts[name] for name in path]
    k_list: list[np.ndarray] = []
    labels: list[tuple[float, str]] = []
    dist = 0.0
    for seg, (a, b) in enumerate(zip(vertices[:-1], vertices[1:])):
        ts = np.linspace(0.0, 1.0, n_per_segment, endpoint=(seg == len(vertices) - 2))
        seg_len = np.linalg.norm(b - a)
        if seg == 0:
            labels.append((0.0, path[0]))
        for t in ts:
            k_list.append(a + t * (b - a))
        labels.append((dist + seg_len, path[seg + 1]))
        dist += seg_len
    k_points = np.array(k_list)
    d = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(k_points, axis=0), axis=1))])
    energies = np.array(
        [np.linalg.eigvalsh(bulk_hamiltonian(material, k)) for k in k_points]
    )
    return BandPath(d, energies, k_points, labels)


def _valence_band_count(material: TBMaterial) -> int:
    """Number of occupied (valence) bands of the 2-atom primitive cell.

    Zincblende semiconductors have 8 valence electrons per primitive cell:
    4 spatial valence bands, 8 spinful ones.
    """
    return 8 if material.basis.spin else 4


def bulk_band_edges(
    material: TBMaterial,
    n_samples: int = 101,
    directions: tuple = ("X", "L", "K"),
) -> dict:
    """Locate the valence-band max and conduction-band min of a bulk crystal.

    Scans Gamma-to-vertex lines (``directions``) on ``n_samples`` points
    each.  Returns a dict with ``Ev``, ``Ec``, ``gap``, ``cbm_k`` (the
    wave vector of the conduction minimum), ``cbm_direction`` and
    ``direct`` (True if the minimum sits at Gamma).
    """
    if material.cell is None:
        raise ValueError("bulk_band_edges requires a zincblende material")
    pts = high_symmetry_points(material.cell.a_nm)
    nv = _valence_band_count(material)
    ev_best = -np.inf
    ec_best = np.inf
    cbm_k = np.zeros(3)
    cbm_dir = "Gamma"
    for name in directions:
        target = pts[name]
        for t in np.linspace(0.0, 1.0, n_samples):
            k = t * target
            e = np.linalg.eigvalsh(bulk_hamiltonian(material, k))
            if e[nv - 1] > ev_best:
                ev_best = float(e[nv - 1])
            if e[nv] < ec_best:
                ec_best = float(e[nv])
                cbm_k = k.copy()
                cbm_dir = name if t > 1e-12 else "Gamma"
    return {
        "Ev": ev_best,
        "Ec": ec_best,
        "gap": ec_best - ev_best,
        "cbm_k": cbm_k,
        "cbm_direction": cbm_dir,
        "direct": bool(np.linalg.norm(cbm_k) < 1e-9),
    }


def effective_mass(
    material: TBMaterial,
    k0: np.ndarray,
    direction: np.ndarray,
    band_index: int,
    dk: float = 1e-2,
) -> float:
    """Effective mass (units of m0) of one band by central finite difference.

    ``m* = hbar^2 / (d^2 E / d k^2)``; ``dk`` in 1/nm.  For degenerate bands
    the sorted-eigenvalue bands are followed, which is adequate away from
    crossings (the standard caveat of finite-difference masses).
    """
    from ..physics.constants import HBAR2_OVER_2M0

    k0 = np.asarray(k0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    e = [
        np.linalg.eigvalsh(bulk_hamiltonian(material, k0 + s * dk * direction))[
            band_index
        ]
        for s in (-1.0, 0.0, 1.0)
    ]
    curvature = (e[0] - 2.0 * e[1] + e[2]) / dk**2
    if curvature == 0.0:
        raise ZeroDivisionError("flat band: zero curvature")
    return 2.0 * HBAR2_OVER_2M0 / curvature


# ---------------------------------------------------------------------------
# wires
# ---------------------------------------------------------------------------


def periodic_wire_blocks(
    structure,
    material: TBMaterial,
    passivate: bool = True,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Extract (H00, H01, period) of an infinite periodic wire.

    ``structure`` must be a uniform wire at least 2 slabs long (e.g. from
    :func:`repro.lattice.zincblende_nanowire` with ``n_cells_x >= 2``).
    The device Hamiltonian is built with open ends, so end-slab bonds toward
    the periodic images are left unpassivated, and the first two diagonal
    blocks — which are then exactly the repeating cell — are verified equal.
    """
    device = partition_into_slabs(
        structure, material.slab_length_nm, material.bond_cutoff_nm
    )
    if not (device.lead_is_periodic("left") and device.lead_is_periodic("right")):
        raise ValueError("structure is not a periodic wire (end slabs differ)")
    H = build_device_hamiltonian(
        device, material, passivate=passivate, open_left=True, open_right=True
    )
    h00, h01 = H.diagonal[0], H.upper[0]
    for i in range(1, H.n_blocks):
        if not np.allclose(h00, H.diagonal[i], atol=1e-9):
            raise ValueError("wire slabs are not translation invariant")
    return h00, h01, device.slab_length_nm


def wire_band_structure(
    h00: np.ndarray, h01: np.ndarray, period_nm: float, n_k: int = 51
) -> tuple[np.ndarray, np.ndarray]:
    """Subbands E_n(k) of a periodic wire over half the 1-D BZ [0, pi/L].

    The ``(n_k, m, m)`` Bloch stack is one broadcast of
    :func:`repro.tb.hamiltonian.wire_bloch_hamiltonian` and its subbands
    one stacked ``eigvalsh`` call, bit-identical to a call per k.

    Returns (k values (1/nm), energies (n_k, n_bands)).
    """
    ks = np.linspace(0.0, np.pi / period_nm, n_k)
    bloch = wire_bloch_hamiltonian(h00, h01, ks[:, None, None], period_nm)
    return ks, np.linalg.eigvalsh(bloch)


def lead_conduction_minimum(
    h00: np.ndarray,
    h01: np.ndarray,
    period_nm: float,
    floor: float = -np.inf,
    n_k: int = 9,
) -> float:
    """Lowest subband bottom above ``floor`` of a periodic lead.

    ``floor`` separates conduction from valence subbands (use the bulk
    midgap for full-band materials, -inf for electron-only models); this
    is the band-edge reference for contact chemical potentials and energy
    windows.  The k grid and the one stacked ``eigvalsh`` call are
    :func:`wire_band_structure`'s.
    """
    _, subbands = wire_band_structure(h00, h01, period_nm, n_k)
    out = float(subbands[subbands > floor].min(initial=np.inf))
    if not np.isfinite(out):
        raise ValueError("no subbands above the floor energy")
    return out


def wire_band_edges(
    h00: np.ndarray,
    h01: np.ndarray,
    period_nm: float,
    reference_midgap: float,
    n_k: int = 101,
) -> dict:
    """Conduction/valence edges of a wire, split at ``reference_midgap``.

    Confinement opens the wire gap relative to bulk; the bulk midgap energy
    is a robust separator between the wire's valence and conduction
    manifolds (passivated wires keep no states in the bulk gap).
    """
    ks, energies = wire_band_structure(h00, h01, period_nm, n_k)
    below = energies[energies < reference_midgap]
    above = energies[energies >= reference_midgap]
    if below.size == 0 or above.size == 0:
        raise ValueError("reference_midgap does not split the wire spectrum")
    return {
        "Ev": float(below.max()),
        "Ec": float(above.min()),
        "gap": float(above.min() - below.max()),
        "k": ks,
    }
