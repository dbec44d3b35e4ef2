"""Finite-volume assembly of the variable-dielectric Poisson operator.

Discretises  div( eps_r grad(phi) ) on a :class:`PoissonGrid` with

* per-node relative permittivities (harmonic face averaging, the standard
  finite-volume treatment of dielectric interfaces),
* Dirichlet nodes (gate electrodes) eliminated symmetrically into the RHS
  (one mask over the operator's triplets),
* natural (zero-flux Neumann) conditions on all other boundary faces.

The assembled operator L acts on phi in volts and returns
div(eps_r grad phi) in V/nm^2 so the full equation reads

    L phi = -(q / eps0) * (N_D - n)        [right side in nm^-3 * V nm]

with q/eps0 = 18.0955 V nm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..physics.constants import EPS0_C_V_NM, Q_E
from .grid import PoissonGrid

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["assemble_laplacian", "Q_OVER_EPS0_V_NM", "apply_dirichlet"]

#: q / eps0 in V nm (multiplies densities in nm^-3).
Q_OVER_EPS0_V_NM: float = Q_E / EPS0_C_V_NM


def assemble_laplacian(
    grid: PoissonGrid, eps_r: np.ndarray
) -> sp.csr_matrix:
    """Assemble div(eps_r grad .) with natural boundary conditions.

    Parameters
    ----------
    grid : PoissonGrid
        The mesh.
    eps_r : ndarray
        Relative permittivity per node (length n_nodes).

    Returns
    -------
    csr_matrix
        The (negative-semi-definite) operator; units V/nm^2 when applied to
        volts.  Dirichlet handling is a separate step
        (:func:`apply_dirichlet`), keeping the raw operator reusable across
        bias points.
    """
    import scipy.sparse as sp

    eps_r = np.asarray(eps_r, dtype=float)
    if eps_r.shape != (grid.n_nodes,):
        raise ValueError(f"eps_r must have length {grid.n_nodes}")
    nx, ny, nz = grid.shape
    hx, hy, hz = grid.spacing
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    def couple(a_idx, b_idx, h):
        """Add the face coupling between node arrays a and b (spacing h)."""
        a = a_idx.reshape(-1)
        b = b_idx.reshape(-1)
        eps_face = 2.0 * eps_r[a] * eps_r[b] / (eps_r[a] + eps_r[b])
        w = eps_face / h**2
        rows.extend([a, b, a, b])
        cols.extend([b, a, a, b])
        vals.extend([w, w, -w, -w])

    if nx > 1:
        couple(idx[:-1, :, :], idx[1:, :, :], hx)
    if ny > 1:
        couple(idx[:, :-1, :], idx[:, 1:, :], hy)
    if nz > 1:
        couple(idx[:, :, :-1], idx[:, :, 1:], hz)
    if not rows:
        raise ValueError("grid has a single node; no operator to assemble")
    L = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    )
    return L


def apply_dirichlet(
    L: sp.spmatrix,
    rhs: np.ndarray,
    mask: np.ndarray,
    values: np.ndarray | float,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Impose phi = values on the masked nodes.

    One mask over the operator's triplets: every entry in a masked row or
    column is dropped and each masked node gets an identity row; the known
    values times the dropped columns move into the RHS of the remaining
    equations, so the reduced system stays consistent and symmetric.

    Returns the modified (copy) operator and RHS.
    """
    import scipy.sparse as sp

    mask = np.asarray(mask, dtype=bool)
    n = L.shape[0]
    if mask.shape != (n,):
        raise ValueError("mask length mismatch")
    vals = np.zeros(n)
    vals[mask] = values if np.isscalar(values) else np.asarray(values)[mask]
    rhs = np.array(rhs, dtype=float) - L @ vals
    rhs[mask] = vals[mask]
    coo = L.tocoo()
    keep = ~(mask[coo.row] | mask[coo.col])
    gate = np.flatnonzero(mask)
    row, col = (np.concatenate([ix[keep], gate]) for ix in (coo.row, coo.col))
    data = np.concatenate([coo.data[keep], np.ones(gate.size)])
    return sp.csr_matrix((data, (row, col)), shape=L.shape), rhs
