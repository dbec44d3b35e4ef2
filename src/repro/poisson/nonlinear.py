"""Nonlinear Poisson solve (Newton-Raphson) and potential mixing.

Solves

    div(eps_r grad phi) + (q/eps0) * (N_D - n(phi)) = 0

for phi (volts) on a :class:`PoissonGrid`, with any charge model exposing
``density(phi)`` and ``d_density_d_phi(phi)`` (semiclassical or the
quantum-corrected Gummel predictor).  The Jacobian is the Laplacian plus a
diagonal, so each Newton step is one banded Cholesky solve (LAPACK
``dpbsv``) of half-bandwidth ``ny * nz``, the stride of the C-ordered grid
along x.  Everything about it that depends on the mesh alone is done once,
at construction: the Dirichlet (gate) elimination of the Laplacian and its
upper band, of which a step rewrites the diagonal row only.  The gate
*value* is data of one :meth:`NonlinearPoisson.solve`, so one solver serves
a whole sweep.

Also provides :class:`AndersonMixer`, the accelerated fixed-point mixing
used by the outer transport-Poisson loop (ablated against plain linear
mixing in experiment F7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import NumericalBreakdownError
from ..resilience.health import get_sentinel
from .grid import PoissonGrid
from .operators import Q_OVER_EPS0_V_NM, apply_dirichlet, assemble_laplacian

__all__ = ["NonlinearPoisson", "PoissonResult", "AndersonMixer"]


def _band_solve(ab, b):
    """The one solve of a Newton step, ``(c, x, info) = dpbsv(ab, b)``.

    Module-level so tests and benchmarks can patch it to count steps.
    """
    from scipy.linalg import lapack

    return lapack.dpbsv(ab, b)


@dataclass
class PoissonResult:
    """Outcome of a nonlinear Poisson solve."""

    phi: np.ndarray
    n_iterations: int
    residual_norm: float
    converged: bool
    history: list


class NonlinearPoisson:
    """Newton solver for the nonlinear Poisson equation.

    A Newton step solves ``S J delta = S rhs`` by banded Cholesky, where
    ``J = L_bc - diag(q/eps0 * dn)`` and ``S`` is -1 off the gate, +1 on
    it.  ``S J`` is symmetric positive definite whenever every connected
    region off the gate touches a gate node or has ``dn > 0``: off the
    gate it is the negated finite-volume Laplacian plus a non-negative
    diagonal, and the gate rows are identity with their columns dropped.
    Both shipped charge models have ``dn >= 0``.  A step whose
    factorisation fails (LAPACK ``info > 0``: not positive definite) trips
    the health sentinel at site ``poisson`` (kind
    ``not_positive_definite``) and raises :class:`NumericalBreakdownError`;
    with the sentinel off the step is NaN.

    Parameters
    ----------
    grid : PoissonGrid
        Mesh.
    eps_r : ndarray
        Relative permittivity per node.
    donor_density : ndarray
        Ionised donor concentration per node (nm^-3, positive).
    dirichlet_mask : ndarray of bool or None
        Gate nodes.
    dirichlet_values : ndarray or float
        Gate potential(s) (V) of every :meth:`solve` that is not given
        its own.
    """

    def __init__(
        self,
        grid: PoissonGrid,
        eps_r: np.ndarray,
        donor_density: np.ndarray,
        dirichlet_mask: np.ndarray | None = None,
        dirichlet_values=0.0,
    ):
        self.grid = grid
        self.eps_r = np.asarray(eps_r, dtype=float)
        self.donors = np.asarray(donor_density, dtype=float)
        if self.donors.shape != (grid.n_nodes,):
            raise ValueError("donor_density must have one entry per node")
        self.L = assemble_laplacian(grid, self.eps_r)
        self.mask = (
            np.zeros(grid.n_nodes, dtype=bool)
            if dirichlet_mask is None
            else np.asarray(dirichlet_mask, dtype=bool)
        )
        self.dirichlet_values = dirichlet_values
        # Newton steps carry homogeneous Dirichlet data (phi already holds
        # the gate values), so the eliminated operator is geometry-only:
        # identity rows on the gate nodes, their columns dropped
        self.L_bc = apply_dirichlet(self.L, np.zeros(grid.n_nodes), self.mask, 0.0)[0]
        # S J in LAPACK upper band storage, ab[kd + i - j, j] = (S J)[i, j]:
        # every off-diagonal entry sits in a row off the gate (S = -1),
        # and a step rewrites the diagonal row ab[kd] only
        kept = self.L_bc.tocoo()
        upper = kept.col > kept.row
        row, col = kept.row[upper], kept.col[upper]
        kd = int((col - row).max(initial=0))
        self._band = np.zeros((kd + 1, grid.n_nodes), order="F")
        self._band[kd + row - col, col] = -kept.data[upper]
        self._diag_bc = self.L_bc.diagonal()

    # ------------------------------------------------------------------
    def residual(self, phi: np.ndarray, charge_model) -> np.ndarray:
        """F(phi) = L phi + (q/eps0)(N_D - n(phi)); zero on gate nodes."""
        n = charge_model.density(phi)
        F = self.L @ phi + Q_OVER_EPS0_V_NM * (self.donors - n)
        F = np.where(self.mask, 0.0, F)
        return F

    def solve(
        self,
        charge_model,
        phi0: np.ndarray | None = None,
        tol: float = 1e-10,
        max_iter: int = 50,
        damping: float = 1.0,
        dirichlet_values=None,
    ) -> PoissonResult:
        """Newton iteration from ``phi0`` (zeros by default).

        ``tol`` is on the max-norm of the residual (V/nm^2 units);
        ``damping`` scales each Newton step (1 = full Newton);
        ``dirichlet_values`` are the gate potential(s) of this solve
        (default: the constructor's).
        """
        n_nodes = self.grid.n_nodes
        phi = np.zeros(n_nodes) if phi0 is None else np.array(phi0, dtype=float)
        if phi.shape != (n_nodes,):
            raise ValueError("phi0 has the wrong length")
        # impose the Dirichlet values (one, or one per node) up front
        if dirichlet_values is None:
            dirichlet_values = self.dirichlet_values
        phi[self.mask] = np.broadcast_to(dirichlet_values, phi.shape)[self.mask]

        sentinel = get_sentinel()
        history: list[float] = []
        converged = False
        res_norm = np.inf
        best_norm = np.inf
        for it in range(1, max_iter + 1):
            F = self.residual(phi, charge_model)
            if sentinel.enabled and not np.all(np.isfinite(F)):
                # a non-finite RHS (poisoned charge model or potential)
                # must NOT degrade to a finite-but-stale phi: the SCF
                # loop would read a zero residual as spurious convergence.
                # Strict mode raises inside trip(); contain mode records
                # the trip and raises the same typed error so the bias
                # point is quarantined one level up.
                sentinel.trip(
                    "poisson", "nonfinite",
                    detail=f"Newton residual at iteration {it}",
                )
                raise NumericalBreakdownError(
                    f"non-finite Poisson residual at Newton iteration {it}"
                )
            res_norm = float(np.abs(F).max())
            history.append(res_norm)
            if res_norm < tol:
                converged = True
                break
            if sentinel.enabled and it > 3 and res_norm > 1e6 * max(
                best_norm, 1e-300
            ):
                # runaway divergence: the residual grew six decades past
                # its best — every further step is wasted garbage
                sentinel.trip(
                    "poisson", "diverging", value=res_norm,
                    detail=f"best residual {best_norm:.3e}",
                )
                break
            best_norm = min(best_norm, res_norm)
            # diagonal of S J: -(diag(L_bc) - q/eps0 * dn) off the gate, 1
            # on it; S * (-F) is F itself (F is zero on the gate)
            self._band[-1] = np.where(
                self.mask, 1.0,
                Q_OVER_EPS0_V_NM * charge_model.d_density_d_phi(phi) - self._diag_bc,
            )
            _, delta, info = _band_solve(self._band, F)
            if info:
                if sentinel.enabled:
                    sentinel.trip(
                        "poisson", "not_positive_definite", value=info,
                        detail=f"Newton step at iteration {it}",
                    )
                    raise NumericalBreakdownError(
                        f"Poisson Jacobian not positive definite at Newton "
                        f"iteration {it}"
                    )
                delta = np.full(n_nodes, np.nan)
            phi = phi + damping * delta
        return PoissonResult(
            phi=phi,
            n_iterations=len(history),
            residual_norm=res_norm,
            converged=converged,
            history=history,
        )


@dataclass
class AndersonMixer:
    """Anderson acceleration for the outer SCF fixed point x = g(x).

    Keeps a window of the last ``depth`` (x, g(x)) pairs and extrapolates
    the next iterate by minimising the linearised residual; falls back to
    plain damped mixing on the first step or a singular least-squares
    system.
    """

    depth: int = 4
    beta: float = 0.7
    _xs: list = field(default_factory=list)
    _gs: list = field(default_factory=list)

    def reset(self) -> None:
        """Forget the history (new bias point)."""
        self._xs.clear()
        self._gs.clear()

    def update(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        """Next iterate from the current pair (x, g(x))."""
        x = np.asarray(x, dtype=float)
        gx = np.asarray(gx, dtype=float)
        self._xs.append(x.copy())
        self._gs.append(gx.copy())
        if len(self._xs) > self.depth + 1:
            self._xs.pop(0)
            self._gs.pop(0)
        m = len(self._xs) - 1
        if m == 0:
            return x + self.beta * (gx - x)
        F = [g - xx for g, xx in zip(self._gs, self._xs)]
        dF = np.stack([F[i + 1] - F[i] for i in range(m)], axis=1)
        dX = np.stack(
            [self._xs[i + 1] - self._xs[i] for i in range(m)], axis=1
        )
        try:
            theta, *_ = np.linalg.lstsq(dF, F[-1], rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely fails
            return x + self.beta * (gx - x)
        x_bar = self._xs[-1] - dX @ theta
        f_bar = F[-1] - dF @ theta
        return x_bar + self.beta * f_bar
