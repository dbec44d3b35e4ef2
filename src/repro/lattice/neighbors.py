"""Nearest-neighbour tables with linked-cell search.

Building the tight-binding Hamiltonian needs, for every atom, the list of
atoms within the nearest-neighbour bond length, together with the bond
vector (which fixes the Slater-Koster direction cosines) and a flag telling
whether the bond wraps around a transverse periodic boundary (which fixes
the Bloch phase for ultra-thin-body devices).

The search is O(N) via a linked-cell (bucket) decomposition of the bounding
box, done as one array-level pass: the atoms (and, for a structure periodic
in y, their +-period y-images) are sorted by cell, every atom's candidates
in its 27 surrounding cells come out of one ``searchsorted`` / ``repeat``,
and the bond-length test runs on the whole candidate set at once.  No
Python loop runs per atom, so 10^5-atom structures take a fraction of a
second.  :func:`_brute_force` is the O(N^2) oracle the table is ``==`` to,
and the fallback for a period too short for the cell grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure import AtomicStructure

__all__ = ["NeighborTable", "build_neighbor_table"]


@dataclass(frozen=True)
class NeighborTable:
    """Directed bond list: bond b couples atom ``i[b]`` to atom ``j[b]``.

    Every physical bond appears twice (i->j and j->i) so Hamiltonian
    assembly can iterate once and fill both triangles hermitianly.  Bonds
    are sorted by ``i``, then ``j``.

    Attributes
    ----------
    i, j : ndarray of int
        Atom indices of each directed bond.
    displacement : ndarray, shape (B, 3)
        Bond vector r_j - r_i in nm, *after* minimum-image correction for
        the transverse periodicity (if any).
    wrap_y : ndarray of int
        -1 / 0 / +1 image index along y: +1 means the bond leaves through
        the +y face and re-enters at -y.  Zero for non-wrapping bonds.
    """

    i: np.ndarray
    j: np.ndarray
    displacement: np.ndarray
    wrap_y: np.ndarray

    @property
    def n_bonds(self) -> int:
        """Number of directed bonds."""
        return self.i.size

    def coordination(self, n_atoms: int) -> np.ndarray:
        """Number of neighbours of each atom, shape (n_atoms,)."""
        return np.bincount(self.i, minlength=n_atoms)

    def bonds_of(self, atom: int) -> np.ndarray:
        """Indices (into the bond arrays) of the bonds leaving ``atom``."""
        first, last = np.searchsorted(self.i, [atom, atom + 1])
        return np.arange(first, last)


def build_neighbor_table(
    structure: AtomicStructure,
    cutoff_nm: float,
    tolerance: float = 1e-3,
) -> NeighborTable:
    """Find all atom pairs with ``|r_j - r_i| <= cutoff * (1 + tolerance)``.

    Pairs are found with a linked-cell search of bin size = cutoff; the
    transverse periodicity of the structure (``structure.periodic_y``) is
    honoured by binning the +-1 y-images of the atoms as extra candidates.
    A bond vector is ``pos[j] - pos[i]``, plus ``wrap_y * period`` on y.

    Parameters
    ----------
    structure : AtomicStructure
        Atoms to connect.
    cutoff_nm : float
        Nearest-neighbour bond length (nm).
    tolerance : float
        Relative slack on the cutoff; bonds in relaxed/strained structures
        deviate slightly from the ideal length.
    """
    if cutoff_nm <= 0:
        raise ValueError("cutoff must be positive")
    pos = structure.positions
    n = structure.n_atoms
    rcut = cutoff_nm * (1.0 + tolerance)
    rcut2 = rcut * rcut
    period = structure.periodic_y

    if period is not None and period < 2.0 * rcut:
        # Tiny periodic cells: fall back to brute force over all images to
        # avoid a bond and its image landing in the same cell pair twice.
        return _brute_force(structure, rcut2)

    # Bin every atom on a grid of cell size rcut, padded by one cell on
    # each side so that the 27 cells around any atom have a key; the key
    # step of a neighbour offset is then the same for every atom.
    lo = pos.min(axis=0) - 1e-9
    inv_h = 1.0 / rcut
    cell = np.floor((pos - lo) * inv_h).astype(np.int64)
    dims = cell.max(axis=0) + 3
    stride = np.array([dims[1] * dims[2], dims[2], 1])
    home_key = (cell + 1) @ stride

    # Sources: the atoms and, when periodic, their +-period y-images that
    # land within one cell of the box; source s is image s // n of atom
    # s % n, sorted by cell key.
    wraps = np.array([0] if period is None else [0, 1, -1])
    shift = wraps * (period or 0.0)
    image_y = np.floor((pos[:, 1] + shift[:, None] - lo[1]) * inv_h).astype(np.int64)
    src = np.flatnonzero((image_y >= -1) & (image_y < dims[1] - 1))
    src_key = (home_key + (image_y - cell[:, 1]) * stride[1]).ravel()[src]
    order = np.argsort(src_key, kind="stable")
    src, src_key = src[order], src_key[order]

    # Candidate pairs: every source in the 27 cells around every atom.
    offsets = np.array(np.meshgrid([-1, 0, 1], [-1, 0, 1], [-1, 0, 1], indexing="ij"))
    target = (home_key[:, None] + stride @ offsets.reshape(3, -1)).ravel()
    first = np.searchsorted(src_key, target)
    counts = np.searchsorted(src_key, target, side="right") - first
    runs = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    i = np.repeat(np.arange(n), counts.reshape(n, -1).sum(axis=1))
    j, image = src[runs] % n, src[runs] // n

    d = pos[j] - pos[i]
    d[:, 1] += shift[image]
    # a self-image lies a period (>= 2 rcut) away, so j == i is never a bond
    hit = (np.einsum("ij,ij->i", d, d) <= rcut2) & (j != i)
    i, j, d, wrap = i[hit], j[hit], d[hit], wraps[image[hit]]
    # Table order: by i, then j, then image 0, +1, -1.
    sel = np.lexsort((image[hit], j, i))
    return NeighborTable(i[sel], j[sel], d[sel], wrap[sel])


def _brute_force(structure: AtomicStructure, rcut2: float) -> NeighborTable:
    """O(N^2) reference search (also used by tests as the oracle)."""
    pos = structure.positions
    n = structure.n_atoms
    period = structure.periodic_y
    images = [0.0]
    wraps = [0]
    if period is not None:
        images += [period, -period]
        wraps += [1, -1]
    bi, bj, disp, wrap = [], [], [], []
    for a in range(n):
        d_all = pos - pos[a]
        for shift, w in zip(images, wraps):
            d = d_all.copy()
            d[:, 1] += shift
            r2 = np.einsum("ij,ij->i", d, d)
            hits = np.flatnonzero(r2 <= rcut2)
            for b in hits:
                if b == a and w == 0:
                    continue
                bi.append(a)
                bj.append(b)
                disp.append(d[b])
                wrap.append(w)
    return _dedupe(
        np.array(bi, dtype=int),
        np.array(bj, dtype=int),
        np.array(disp, dtype=float).reshape(-1, 3),
        np.array(wrap, dtype=int),
    )


def _dedupe(
    i: np.ndarray, j: np.ndarray, disp: np.ndarray, wrap: np.ndarray
) -> NeighborTable:
    """Remove duplicate directed bonds (same i, j, wrap and displacement)."""
    if i.size == 0:
        return NeighborTable(i, j, disp.reshape(0, 3), wrap)
    rounded = np.round(disp, 9)
    keys = np.empty(
        i.size,
        dtype=[
            ("i", np.int64),
            ("j", np.int64),
            ("w", np.int64),
            ("dx", np.float64),
            ("dy", np.float64),
            ("dz", np.float64),
        ],
    )
    keys["i"], keys["j"], keys["w"] = i, j, wrap
    keys["dx"], keys["dy"], keys["dz"] = rounded[:, 0], rounded[:, 1], rounded[:, 2]
    _, unique_idx = np.unique(keys, return_index=True)
    unique_idx.sort()
    order = np.lexsort((j[unique_idx], i[unique_idx]))
    sel = unique_idx[order]
    return NeighborTable(i[sel], j[sel], np.ascontiguousarray(disp[sel]), wrap[sel])
