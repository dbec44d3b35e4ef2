"""Rectilinear finite-volume grid for the device electrostatics.

The Poisson equation is solved on a uniform tensor grid covering the device
bounding box (plus an oxide shell).  The grid also owns the mapping between
atoms and nodes (:class:`AtomMap`, built once for fixed positions) —
charge computed per atom by the transport kernels is deposited onto nodes
(cloud-in-cell), and the converged potential is interpolated back onto
atom positions (trilinear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AtomMap", "PoissonGrid"]


@dataclass(frozen=True)
class PoissonGrid:
    """Uniform rectilinear grid.

    Attributes
    ----------
    shape : tuple of int
        Node counts (nx, ny, nz); any axis may be 1 (reduced dimension).
    spacing : tuple of float
        Node spacings (nm) along each axis (ignored on axes with 1 node).
    origin : tuple of float
        Coordinates (nm) of node (0, 0, 0).
    """

    shape: tuple
    spacing: tuple
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        spacing = tuple(float(h) for h in self.spacing)
        origin = tuple(float(o) for o in self.origin)
        if len(shape) != 3 or len(spacing) != 3 or len(origin) != 3:
            raise ValueError("shape, spacing and origin must have length 3")
        if min(shape) < 1:
            raise ValueError("node counts must be >= 1")
        if min(spacing) <= 0:
            raise ValueError("spacings must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "origin", origin)

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of nodes."""
        return int(np.prod(self.shape))

    def node_volume(self) -> float:
        """Control volume per node (nm^3); reduced axes contribute their spacing."""
        return float(np.prod(self.spacing))

    def index(self, i: int, j: int, k: int) -> int:
        """Flatten a 3-D node index (C order)."""
        nx, ny, nz = self.shape
        if not (0 <= i < nx and 0 <= j < ny and 0 <= k < nz):
            raise IndexError(f"node ({i},{j},{k}) outside grid {self.shape}")
        return (i * ny + j) * nz + k

    def coordinates(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, 3)."""
        nx, ny, nz = self.shape
        hx, hy, hz = self.spacing
        ox, oy, oz = self.origin
        I, J, K = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        pts = np.stack(
            [ox + I * hx, oy + J * hy, oz + K * hz], axis=-1
        ).reshape(-1, 3)
        return pts

    # ------------------------------------------------------------------
    @staticmethod
    def covering(positions: np.ndarray, spacing: float, padding: int = 0) -> "PoissonGrid":
        """Grid covering a set of atom positions with optional shell nodes.

        ``padding`` adds that many extra node layers on every transverse
        (y, z) face — the oxide shell; the transport direction x is not
        padded (contacts occupy the x faces).
        """
        positions = np.asarray(positions, dtype=float)
        lo = positions.min(axis=0)
        hi = positions.max(axis=0)
        counts = np.maximum(np.round((hi - lo) / spacing).astype(int) + 1, 1)
        counts[1] += 2 * padding
        counts[2] += 2 * padding
        origin = lo.copy()
        origin[1] -= padding * spacing
        origin[2] -= padding * spacing
        return PoissonGrid(
            shape=tuple(counts), spacing=(spacing,) * 3, origin=tuple(origin)
        )

    def atom_map(self, positions: np.ndarray) -> "AtomMap":
        """The cloud-in-cell map of fixed positions onto this grid.

        Each position is located in its cell (clipped to the grid, so a
        position outside it maps to the nearest face) and gets the 8
        corner nodes of that cell with their trilinear weights.  Corner
        ``d`` sits at offset ``((d >> 2) & 1, (d >> 1) & 1, d & 1)``; on an
        axis with one node the upper corner repeats the node at weight 0.
        """
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        rel = (positions - np.array(self.origin)) / np.array(self.spacing)
        n = np.array(self.shape)
        cell = np.clip(np.floor(rel).astype(int), 0, np.maximum(n - 2, 0))
        frac = np.clip(rel - cell, 0.0, 1.0)
        frac[:, n == 1] = 0.0
        offset = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1
        sides = np.stack([1 - frac, frac])
        weights = (sides[offset[:, 0], :, 0] * sides[offset[:, 1], :, 1]
                   * sides[offset[:, 2], :, 2])
        ijk = np.minimum(cell + offset[:, None, :], n - 1)
        nodes = (ijk[..., 0] * n[1] + ijk[..., 1]) * n[2] + ijk[..., 2]
        return AtomMap(nodes, weights, self.n_nodes)

    def deposit(self, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Cloud-in-cell deposition of per-atom values onto nodes
        (:meth:`AtomMap.deposit` of :meth:`atom_map`)."""
        return self.atom_map(positions).deposit(values)

    def interpolate(self, nodal: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of a nodal field at arbitrary positions
        (:meth:`AtomMap.interpolate` of :meth:`atom_map`)."""
        return self.atom_map(positions).interpolate(nodal)

    def boundary_mask(self, faces: tuple = ("y-", "y+", "z-", "z+")) -> np.ndarray:
        """Boolean mask of the nodes on the named faces.

        Face names: "x-", "x+", "y-", "y+", "z-", "z+".
        """
        nx, ny, nz = self.shape
        I, J, K = np.meshgrid(
            np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"
        )
        mask = np.zeros(self.shape, dtype=bool)
        for f in faces:
            axis = {"x": 0, "y": 1, "z": 2}[f[0]]
            idx = (I, J, K)[axis]
            n = self.shape[axis]
            if f[1] == "-":
                mask |= idx == 0
            elif f[1] == "+":
                mask |= idx == n - 1
            else:
                raise ValueError(f"bad face name {f!r}")
        return mask.reshape(-1)

    def x_slab_mask(self, x_min: float, x_max: float) -> np.ndarray:
        """Mask of nodes whose x coordinate lies in [x_min, x_max]."""
        x = self.coordinates()[:, 0]
        return (x >= x_min - 1e-9) & (x <= x_max + 1e-9)


@dataclass(frozen=True)
class AtomMap:
    """Cloud-in-cell map of fixed positions onto the nodes of a grid
    (:meth:`PoissonGrid.atom_map`).

    Attributes
    ----------
    nodes : ndarray of int, shape (8, n_positions)
        Flat node index of each position's 8 cell corners.
    weights : ndarray, shape (8, n_positions)
        Trilinear weight of each corner; a position's weights sum to 1.
    n_nodes : int
        Node count of the grid.

    :meth:`deposit` and :meth:`interpolate` are adjoint:
    ``f @ deposit(v) == v @ interpolate(f)`` up to rounding.
    """

    nodes: np.ndarray
    weights: np.ndarray
    n_nodes: int

    def deposit(self, values: np.ndarray) -> np.ndarray:
        """Per-position values spread onto nodes (flat, length n_nodes).

        One ``bincount`` over the corner-major flattened corners: a node
        sums its contributions corner by corner, position by position.
        The sum over nodes equals the sum of the values (charge
        conservation, tested).
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.weights.shape[1:]:
            raise ValueError("one value per position required")
        return np.bincount(
            self.nodes.ravel(), weights=(self.weights * values).ravel(),
            minlength=self.n_nodes,
        )

    def interpolate(self, nodal: np.ndarray) -> np.ndarray:
        """A nodal field read at the positions: the weighted corners,
        summed corner by corner."""
        nodal = np.asarray(nodal, dtype=float)
        if nodal.shape != (self.n_nodes,):
            raise ValueError(f"nodal field must have length {self.n_nodes}")
        return np.add.reduce(self.weights * nodal[self.nodes], axis=0)
