"""Closed-system eigenstates: the NEMO-3D-style interior eigensolver.

Before OMEN's open-boundary transport, the same group's NEMO-3D computed
*closed* nanostructure eigenstates (quantum dots, wells, wires) with
Lanczos/shift-invert iterations on the sparse TB Hamiltonian — the
"multimillion atom simulations" line of work.  This module provides that
capability on the shared Hamiltonian containers:

* :func:`interior_eigenstates` — k eigenpairs nearest a target energy via
  scipy's shift-invert Lanczos (ARPACK), the standard way to pull gap-edge
  states out of a 10^5-row TB matrix without full diagonalisation;
* :func:`confined_state_energies` — convenience wrapper returning the
  lowest conduction-like states above a reference energy.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import BlockTridiagonalHamiltonian

__all__ = ["interior_eigenstates", "confined_state_energies"]


def _as_sparse(H):
    import scipy.sparse as sp

    if isinstance(H, BlockTridiagonalHamiltonian):
        return H.to_csr()
    if sp.issparse(H):
        return H.tocsr()
    raise TypeError("H must be a BlockTridiagonalHamiltonian or sparse matrix")


def interior_eigenstates(
    H,
    sigma: float,
    k: int = 6,
    tol: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """k eigenpairs of a closed Hamiltonian nearest the energy ``sigma``.

    Shift-invert Lanczos: each iteration solves (H - sigma I) x = b, so the
    cost is one sparse factorisation plus a few dozen back-substitutions —
    the same O(N m^2) economics as the WF transport kernel, and the reason
    NEMO-3D could reach tens of millions of atoms.

    Parameters
    ----------
    H : BlockTridiagonalHamiltonian or sparse matrix
        Hermitian closed-system Hamiltonian (build with
        ``open_left=False, open_right=False`` for isolated structures).
    sigma : float
        Target energy (eV); eigenvalues nearest it are returned.
    k : int
        Number of eigenpairs.
    tol : float
        ARPACK tolerance (0 = machine precision).

    Returns
    -------
    (energies, states)
        Sorted ascending; ``states[:, i]`` is the i-th eigenvector.
    """
    A = _as_sparse(H)
    n = A.shape[0]
    if k < 1:
        raise ValueError("need k >= 1 eigenpairs")
    if k >= n - 1:
        # small problem: dense fallback
        vals, vecs = np.linalg.eigh(A.toarray())
        order = np.argsort(np.abs(vals - sigma))[:k]
        keep = np.sort(order)
        return vals[keep], vecs[:, keep]
    import scipy.sparse.linalg as spla

    vals, vecs = spla.eigsh(A, k=k, sigma=sigma, which="LM", tol=tol)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def confined_state_energies(
    H,
    reference_energy: float,
    n_states: int = 4,
    offset: float = 1e-3,
) -> np.ndarray:
    """Lowest ``n_states`` eigenvalues above ``reference_energy``.

    The workhorse query for confined-state spectra: e.g. the electron
    levels of a quantum-dot segment above the wire conduction edge.
    ``offset`` nudges the shift-invert target into the spectrum gap so
    ARPACK does not stall exactly on the reference.
    """
    found: list[float] = []
    k = max(2 * n_states, 6)
    vals, _ = interior_eigenstates(H, sigma=reference_energy + offset, k=k)
    found = [v for v in vals if v >= reference_energy]
    attempts = 0
    while len(found) < n_states and attempts < 4:
        k *= 2
        if k >= _as_sparse(H).shape[0] - 1:
            vals = np.linalg.eigvalsh(_as_sparse(H).toarray())
            found = [v for v in vals if v >= reference_energy]
            break
        vals, _ = interior_eigenstates(H, sigma=reference_energy + offset, k=k)
        found = [v for v in vals if v >= reference_energy]
        attempts += 1
    if len(found) < n_states:
        raise RuntimeError(
            f"only {len(found)} states found above {reference_energy}"
        )
    return np.sort(np.array(found))[:n_states]
