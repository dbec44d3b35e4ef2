"""Rectilinear finite-volume grid for the device electrostatics.

The Poisson equation is solved on a uniform tensor grid covering the device
bounding box (plus an oxide shell).  The grid also owns the mapping between
atoms and nodes — charge computed per atom by the transport kernels is
deposited onto nodes (cloud-in-cell), and the converged potential is
interpolated back onto atom positions (trilinear).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PoissonGrid"]


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

    def _locate(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and fractional offset of each position (clipped)."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        rel = (positions - np.array(self.origin)) / np.array(self.spacing)
        n = np.array(self.shape)
        cell = np.clip(np.floor(rel).astype(int), 0, np.maximum(n - 2, 0))
        frac = np.clip(rel - cell, 0.0, 1.0)
        frac[:, n == 1] = 0.0
        return cell, frac

    def deposit(self, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Cloud-in-cell deposition of per-atom values onto nodes.

        Returns the nodal array (flat, length n_nodes); the sum over nodes
        equals the sum of the deposited values (charge conservation, tested).
        """
        values = np.asarray(values, dtype=float)
        cell, frac = self._locate(positions)
        if values.shape != (cell.shape[0],):
            raise ValueError("one value per position required")
        out = np.zeros(self.n_nodes)
        for w, node in self._corners(cell, frac):
            np.add.at(out, node, w * values)
        return out

    def interpolate(self, nodal: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Trilinear interpolation of a nodal field at arbitrary positions."""
        nodal = np.asarray(nodal, dtype=float)
        if nodal.shape != (self.n_nodes,):
            raise ValueError(f"nodal field must have length {self.n_nodes}")
        cell, frac = self._locate(positions)
        out = np.zeros(cell.shape[0])
        for w, node in self._corners(cell, frac):
            out += w * nodal[node]
        return out

    def _corners(self, cell, frac):
        """The 8 cloud-in-cell corners of located positions: per corner,
        the trilinear weight of each position and its flat node index."""
        nx, ny, nz = self.shape
        for d in range(8):
            dx, dy, dz = (d >> 2) & 1, (d >> 1) & 1, d & 1
            w = (
                (frac[:, 0] if dx else 1 - frac[:, 0])
                * (frac[:, 1] if dy else 1 - frac[:, 1])
                * (frac[:, 2] if dz else 1 - frac[:, 2])
            )
            i = np.minimum(cell[:, 0] + dx, nx - 1)
            j = np.minimum(cell[:, 1] + dy, ny - 1)
            k = np.minimum(cell[:, 2] + dz, nz - 1)
            yield w, (i * ny + j) * nz + k

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
