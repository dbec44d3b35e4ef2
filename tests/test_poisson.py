"""Poisson solver tests: manufactured solutions, charge models, Newton, mixing."""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from repro.physics.constants import KT_ROOM
from repro.poisson import (
    AndersonMixer,
    NonlinearPoisson,
    PoissonGrid,
    Q_OVER_EPS0_V_NM,
    QuantumCorrectedCharge,
    SemiclassicalCharge,
    apply_dirichlet,
    assemble_laplacian,
    effective_dos_3d,
)


class TestGrid:
    def test_covering(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.5]])
        g = PoissonGrid.covering(pos, 0.25, padding=2)
        assert g.shape[0] == 5
        assert g.shape[1] == 3 + 4
        assert g.origin[1] == pytest.approx(-0.5)

    def test_coordinates_order(self):
        g = PoissonGrid(shape=(2, 2, 2), spacing=(1.0, 1.0, 1.0))
        pts = g.coordinates()
        np.testing.assert_allclose(pts[g.index(1, 0, 1)], [1.0, 0.0, 1.0])

    def test_index_bounds(self):
        g = PoissonGrid(shape=(2, 2, 2), spacing=(1.0, 1.0, 1.0))
        with pytest.raises(IndexError):
            g.index(2, 0, 0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            PoissonGrid(shape=(0, 2, 2), spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            PoissonGrid(shape=(2, 2, 2), spacing=(0, 1, 1))

    def test_deposit_conserves_total(self):
        g = PoissonGrid(shape=(4, 4, 4), spacing=(0.5, 0.5, 0.5))
        rng = np.random.default_rng(3)
        pos = rng.uniform(0.0, 1.5, size=(20, 3))
        vals = rng.uniform(0, 1, 20)
        out = g.deposit(pos, vals)
        assert out.sum() == pytest.approx(vals.sum(), rel=1e-12)

    def test_deposit_on_node_is_local(self):
        g = PoissonGrid(shape=(3, 3, 3), spacing=(1.0, 1.0, 1.0))
        out = g.deposit(np.array([[1.0, 1.0, 1.0]]), np.array([2.0]))
        assert out[g.index(1, 1, 1)] == pytest.approx(2.0)
        assert np.count_nonzero(out) == 1

    def test_interpolate_linear_exact(self):
        g = PoissonGrid(shape=(4, 4, 4), spacing=(0.5, 0.5, 0.5))
        pts = g.coordinates()
        field = 1.0 + 2 * pts[:, 0] - 3 * pts[:, 1] + 0.5 * pts[:, 2]
        rng = np.random.default_rng(1)
        probe = rng.uniform(0.0, 1.5, size=(10, 3))
        exact = 1.0 + 2 * probe[:, 0] - 3 * probe[:, 1] + 0.5 * probe[:, 2]
        np.testing.assert_allclose(g.interpolate(field, probe), exact, atol=1e-12)

    def test_deposit_interpolate_roundtrip_shapes(self):
        g = PoissonGrid(shape=(3, 1, 1), spacing=(0.5, 0.5, 0.5))
        out = g.deposit(np.array([[0.5, 0.0, 0.0]]), np.array([1.0]))
        assert out.shape == (3,)

    def test_boundary_mask(self):
        g = PoissonGrid(shape=(3, 3, 3), spacing=(1, 1, 1))
        m = g.boundary_mask(("y-",))
        assert m.sum() == 9
        m2 = g.boundary_mask(("y-", "y+", "z-", "z+"))
        assert m2.sum() == 9 * 4 - 12  # overlap on edges counted once

    def test_x_slab_mask(self):
        g = PoissonGrid(shape=(5, 1, 1), spacing=(1, 1, 1))
        m = g.x_slab_mask(1.0, 3.0)
        assert m.sum() == 3


def corner_loop(grid, positions):
    """The per-call corner generator the atom map replaced: per corner,
    each located position's trilinear weight and flat node index."""
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    rel = (positions - np.array(grid.origin)) / np.array(grid.spacing)
    n = np.array(grid.shape)
    cell = np.clip(np.floor(rel).astype(int), 0, np.maximum(n - 2, 0))
    frac = np.clip(rel - cell, 0.0, 1.0)
    frac[:, n == 1] = 0.0
    nx, ny, nz = grid.shape
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


def loop_deposit(grid, positions, values):
    """Cloud-in-cell deposition as one ``np.add.at`` per corner."""
    out = np.zeros(grid.n_nodes)
    for w, node in corner_loop(grid, positions):
        np.add.at(out, node, w * values)
    return out


def loop_interpolate(grid, nodal, positions):
    """Trilinear interpolation summed corner by corner."""
    out = np.zeros(len(positions))
    for w, node in corner_loop(grid, positions):
        out += w * nodal[node]
    return out


def lil_dirichlet(L, rhs, mask, values):
    """The Dirichlet elimination the triplet mask replaced: a LIL round
    trip with a Python loop over the masked rows and columns."""
    n = L.shape[0]
    rhs = np.array(rhs, dtype=float)
    vals = np.full(n, 0.0)
    vals[mask] = values if np.isscalar(values) else np.asarray(values)[mask]
    Lc = L.tolil(copy=True).tocsr()
    rhs = rhs - Lc[:, mask] @ vals[mask]
    Ld = Lc.tolil()
    for i in np.flatnonzero(mask):
        Ld.rows[i] = [i]
        Ld.data[i] = [1.0]
    Ld = Ld.tocsc()
    for c in np.flatnonzero(mask):
        start, end = Ld.indptr[c], Ld.indptr[c + 1]
        keep = Ld.indices[start:end] == c
        Ld.data[start:end][~keep] = 0.0
    Ld.eliminate_zeros()
    rhs[mask] = vals[mask]
    return Ld.tocsr(), rhs


ORACLE_GRIDS = {
    "3d": PoissonGrid((5, 4, 6), (0.3, 0.5, 0.25), (0.1, -0.2, 0.3)),
    "n=1 axis": PoissonGrid((7, 1, 3), (0.25, 0.4, 0.5), (0.0, 0.1, -0.1)),
    "chain": PoissonGrid((9, 1, 1), (0.25, 0.25, 0.25)),
}


def oracle_positions(grid, kind, rng):
    """Positions inside the grid, outside it or exactly on its nodes."""
    extent = (np.array(grid.shape) - 1) * np.array(grid.spacing)
    lo = np.array(grid.origin)
    if kind == "inside":
        return lo + rng.random((40, 3)) * extent
    if kind == "outside":
        return lo + rng.uniform(-1.5, 2.5, (40, 3)) * np.maximum(extent, 1.0)
    return grid.coordinates()[rng.permutation(grid.n_nodes)[:12]]


class TestAtomMap:
    """One map per set of fixed positions: ``deposit`` / ``interpolate``
    are ``==`` the per-corner loops they replaced."""

    @pytest.mark.parametrize("kind", ["inside", "outside", "on nodes"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_map_equals_the_corner_loop(self, name, kind):
        grid = ORACLE_GRIDS[name]
        rng = np.random.default_rng(11)
        pos = oracle_positions(grid, kind, rng)
        amap = grid.atom_map(pos)
        assert amap.nodes.shape == amap.weights.shape == (8, len(pos))
        values = rng.normal(size=len(pos))
        nodal = rng.normal(size=grid.n_nodes)
        assert np.array_equal(amap.deposit(values),
                              loop_deposit(grid, pos, values))
        assert np.array_equal(amap.interpolate(nodal),
                              loop_interpolate(grid, nodal, pos))
        assert np.array_equal(grid.deposit(pos, values), amap.deposit(values))
        assert np.array_equal(grid.interpolate(nodal, pos),
                              amap.interpolate(nodal))

    @pytest.mark.parametrize("name", sorted(ORACLE_GRIDS))
    def test_deposit_is_the_adjoint_of_interpolate(self, name):
        grid = ORACLE_GRIDS[name]
        rng = np.random.default_rng(5)
        amap = grid.atom_map(oracle_positions(grid, "outside", rng))
        values = rng.normal(size=amap.weights.shape[1])
        nodal = rng.normal(size=grid.n_nodes)
        lhs = nodal @ amap.deposit(values)
        rhs = values @ amap.interpolate(nodal)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_shape_checks(self):
        grid = ORACLE_GRIDS["3d"]
        amap = grid.atom_map(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            amap.deposit(np.ones(2))
        with pytest.raises(ValueError):
            amap.interpolate(np.ones(grid.n_nodes - 1))

    @pytest.mark.parametrize("values", ["scalar", "per node"])
    @pytest.mark.parametrize("mask", ["random", "face"])
    def test_dirichlet_mask_equals_the_lil_elimination(self, mask, values):
        grid = ORACLE_GRIDS["3d"]
        rng = np.random.default_rng(2)
        L = assemble_laplacian(grid, rng.uniform(1.0, 12.0, grid.n_nodes))
        gate = (rng.random(grid.n_nodes) < 0.3 if mask == "random"
                else grid.boundary_mask(("y-",)))
        vals = 0.37 if values == "scalar" else rng.normal(size=grid.n_nodes)
        rhs = rng.normal(size=grid.n_nodes)
        got, got_rhs = apply_dirichlet(L, rhs, gate, vals)
        want, want_rhs = lil_dirichlet(L, rhs, gate, vals)
        assert (got != want).nnz == 0
        assert np.array_equal(got_rhs, want_rhs)


class TestLaplacian:
    def test_row_sums_zero(self):
        """Natural BC operator annihilates constants."""
        g = PoissonGrid(shape=(4, 3, 2), spacing=(0.5, 0.5, 0.5))
        L = assemble_laplacian(g, np.ones(g.n_nodes))
        np.testing.assert_allclose(L @ np.ones(g.n_nodes), 0.0, atol=1e-12)

    def test_symmetric(self):
        g = PoissonGrid(shape=(4, 3, 2), spacing=(0.5, 0.5, 0.5))
        eps = 1.0 + np.arange(g.n_nodes) * 0.1
        L = assemble_laplacian(g, eps)
        assert abs(L - L.T).max() < 1e-12

    def test_1d_second_derivative(self):
        """On a 1-D grid, L phi approximates phi'' for interior nodes."""
        n = 21
        h = 0.1
        g = PoissonGrid(shape=(n, 1, 1), spacing=(h, h, h))
        x = g.coordinates()[:, 0]
        phi = x**2
        L = assemble_laplacian(g, np.ones(n))
        out = L @ phi
        np.testing.assert_allclose(out[1:-1], 2.0, atol=1e-9)

    def test_manufactured_dirichlet_solution(self):
        """Solve phi'' = 0 with phi(0)=0, phi(L)=1: linear profile."""
        import scipy.sparse.linalg as spla
        import scipy.sparse as sp

        n = 11
        g = PoissonGrid(shape=(n, 1, 1), spacing=(0.2, 0.2, 0.2))
        L = assemble_laplacian(g, np.ones(n))
        mask = np.zeros(n, dtype=bool)
        mask[0] = mask[-1] = True
        vals = np.zeros(n)
        vals[-1] = 1.0
        L2, rhs = apply_dirichlet(L, np.zeros(n), mask, vals)
        phi = spla.spsolve(sp.csc_matrix(L2), rhs)
        np.testing.assert_allclose(phi, np.linspace(0, 1, n), atol=1e-10)

    def test_dielectric_interface_jump(self):
        """Flux continuity: eps1 E1 = eps2 E2 across an interface."""
        import scipy.sparse.linalg as spla
        import scipy.sparse as sp

        n = 21
        g = PoissonGrid(shape=(n, 1, 1), spacing=(0.1, 0.1, 0.1))
        eps = np.where(np.arange(n) < n // 2, 1.0, 4.0)
        L = assemble_laplacian(g, eps)
        mask = np.zeros(n, dtype=bool)
        mask[0] = mask[-1] = True
        vals = np.zeros(n)
        vals[-1] = 1.0
        L2, rhs = apply_dirichlet(L, np.zeros(n), mask, vals)
        phi = spla.spsolve(sp.csc_matrix(L2), rhs)
        # field in region 1 must be 4x the field in region 2
        e1 = phi[1] - phi[0]
        e2 = phi[-1] - phi[-2]
        assert e1 / e2 == pytest.approx(4.0, rel=1e-6)

    def test_eps_shape_check(self):
        g = PoissonGrid(shape=(3, 1, 1), spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            assemble_laplacian(g, np.ones(5))


class TestChargeModels:
    def test_silicon_nc(self):
        # Nc(Si, 300 K) = 2.8e19 cm^-3 = 0.028 nm^-3 with mdos = 1.08.
        assert effective_dos_3d(1.08, KT_ROOM) == pytest.approx(0.0282, rel=0.01)

    def test_semiclassical_monotone_in_phi(self):
        model = SemiclassicalCharge(mu=0.0, band_edge=0.1, m_rel=1.0, kT=0.0259)
        phi = np.linspace(-0.5, 0.5, 21)
        n = model.density(phi)
        assert np.all(np.diff(n) > 0)

    def test_semiclassical_derivative(self):
        model = SemiclassicalCharge(mu=0.0, band_edge=0.05, m_rel=0.5, kT=0.0259)
        phi = np.array([-0.2, 0.0, 0.3])
        h = 1e-6
        num = (model.density(phi + h) - model.density(phi - h)) / (2 * h)
        np.testing.assert_allclose(model.d_density_d_phi(phi), num, rtol=1e-4)

    def test_semiconductor_mask(self):
        mask = np.array([True, False, True])
        model = SemiclassicalCharge(
            mu=0.0, band_edge=0.0, m_rel=1.0, kT=0.0259, semiconductor_mask=mask
        )
        n = model.density(np.zeros(3))
        assert n[1] == 0.0
        assert n[0] > 0.0

    def test_quantum_corrected_at_reference(self):
        n_ref = np.array([1.0, 2.0])
        phi_ref = np.array([0.1, -0.1])
        model = QuantumCorrectedCharge(n_ref, phi_ref, kT=0.0259)
        np.testing.assert_allclose(model.density(phi_ref), n_ref)

    def test_quantum_corrected_exponential(self):
        model = QuantumCorrectedCharge(np.array([1.0]), np.array([0.0]), kT=0.025)
        assert model.density(np.array([0.025]))[0] == pytest.approx(np.e)

    def test_quantum_corrected_clamps(self):
        model = QuantumCorrectedCharge(
            np.array([1.0]), np.array([0.0]), kT=0.025, max_exponent=5.0
        )
        assert model.density(np.array([100.0]))[0] == pytest.approx(np.exp(5.0))

    def test_invalid_dos_args(self):
        with pytest.raises(ValueError):
            effective_dos_3d(-1.0, 0.025)


class TestNonlinearPoisson:
    def make_1d_problem(self, n=31, nd=1e-3):
        g = PoissonGrid(shape=(n, 1, 1), spacing=(0.5, 0.5, 0.5))
        donors = np.full(n, nd)
        return g, donors

    def test_charge_neutral_flat_solution(self):
        """Uniform donors + matching mu: phi = const solves the problem."""
        g, donors = self.make_1d_problem()
        model = SemiclassicalCharge(mu=0.0, band_edge=0.0, m_rel=1.0, kT=0.0259)
        # choose donors so that n(phi=0) = N_D exactly
        donors = np.full(g.n_nodes, float(model.density(np.zeros(1))[0]))
        solver = NonlinearPoisson(g, np.ones(g.n_nodes), donors)
        res = solver.solve(model)
        assert res.converged
        np.testing.assert_allclose(res.phi, res.phi[0], atol=1e-8)

    def test_newton_quadratic_convergence(self):
        g, donors = self.make_1d_problem()
        model = SemiclassicalCharge(mu=0.0, band_edge=0.1, m_rel=1.0, kT=0.0259)
        solver = NonlinearPoisson(g, np.ones(g.n_nodes), donors)
        res = solver.solve(model, tol=1e-12)
        assert res.converged
        # quadratic tail: few iterations
        assert res.n_iterations < 15

    def test_gate_bias_bends_potential(self):
        n = 21
        g = PoissonGrid(shape=(n, 1, 1), spacing=(0.5, 0.5, 0.5))
        donors = np.full(n, 1e-5)
        mask = np.zeros(n, dtype=bool)
        mask[0] = True
        model = SemiclassicalCharge(mu=-0.2, band_edge=0.0, m_rel=1.0, kT=0.0259)
        solver = NonlinearPoisson(g, np.ones(n), donors, mask, dirichlet_values=0.5)
        phi_hi = solver.solve(model).phi
        # the gate value is data of one solve: same operator, other bias
        phi_lo = solver.solve(model, dirichlet_values=-0.5).phi
        fresh = NonlinearPoisson(g, np.ones(n), donors, mask, dirichlet_values=-0.5)
        assert np.array_equal(phi_lo, fresh.solve(model).phi)
        assert phi_hi[0] == pytest.approx(0.5)
        assert phi_lo[0] == pytest.approx(-0.5)
        assert phi_hi[1] > phi_lo[1]  # bias penetrates

    def test_screening_length_decreases_with_doping(self):
        """Higher doping screens a gate perturbation over a shorter distance."""
        n = 61
        g = PoissonGrid(shape=(n, 1, 1), spacing=(0.25, 0.25, 0.25))
        mask = np.zeros(n, dtype=bool)
        mask[0] = True

        def decay_length(nd):
            mu = 0.0
            model = SemiclassicalCharge(mu=mu, band_edge=0.0, m_rel=1.0, kT=0.0259)
            donors = np.full(n, float(model.density(np.zeros(1))[0]) * nd)
            # align mu so bulk is neutral at phi0: N_D = n(phi0)
            phi0 = 0.0259 * np.log(nd) if nd < 1 else 0.0
            solver = NonlinearPoisson(
                g, np.ones(n), donors, mask, dirichlet_values=0.05
            )
            res = solver.solve(model, phi0=np.full(n, phi0), max_iter=100)
            dphi = np.abs(res.phi - res.phi[-1])
            dphi /= dphi[1]
            below = np.flatnonzero(dphi < np.exp(-1.0))
            return below[0] if below.size else n

        assert decay_length(1.0) < decay_length(0.01)

    def test_donor_shape_check(self):
        g = PoissonGrid(shape=(4, 1, 1), spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            NonlinearPoisson(g, np.ones(4), np.ones(5))

    def test_bad_phi0(self):
        g, donors = self.make_1d_problem(11)
        model = SemiclassicalCharge(mu=0.0, band_edge=0.0, m_rel=1.0, kT=0.0259)
        solver = NonlinearPoisson(g, np.ones(11), donors)
        with pytest.raises(ValueError):
            solver.solve(model, phi0=np.zeros(5))


_GRID_MESH = dict(spacing_nm=0.25, donor_density_nm3=0.05,
                  material_params={"m_rel": 0.3})
#: Poisson meshes of the FET and chain of ``scf_sweep_wf`` /
#: ``transport_uniform_chain``, the m = 25 wide device and the Si-sp3s* wire.
MESHES = {
    "fet": dict(n_x=12, n_y=2, n_z=2, source_cells=4, drain_cells=4,
                gate_cells=(4, 8), **_GRID_MESH),
    "chain": dict(n_x=40, n_y=1, n_z=1, source_cells=4, drain_cells=4,
                  gate_cells=(12, 28), **_GRID_MESH),
    "wide": dict(n_x=48, n_y=5, n_z=5, source_cells=8, drain_cells=8,
                 gate_cells=(16, 32), **_GRID_MESH),
    "si_wire": dict(geometry="nanowire-zb", material="Si-sp3s*", n_x=8,
                    n_y=2, n_z=2, source_cells=2, drain_cells=2,
                    gate_cells=(3, 5)),
}


def semiclassical_model(built):
    """The SCF's initial-guess charge model of a device."""
    return SemiclassicalCharge(
        mu=built.contact_mu("source"), band_edge=built.band_edge,
        m_rel=built.m_dos, kT=built.spec.kT,
        semiconductor_mask=built.semiconductor_mask,
    )


@lru_cache(maxsize=None)
def mesh_problem(name):
    """``(built, solver)``: the SCF's Poisson operator on one of MESHES."""
    from repro.core import DeviceSpec, build_device

    built = build_device(DeviceSpec(**MESHES[name]))
    grid = built.poisson_grid
    donors = grid.deposit(
        built.device.structure.positions, built.donors_per_atom
    ) / grid.node_volume()
    return built, NonlinearPoisson(
        grid, built.eps_r, donors, dirichlet_mask=built.gate_mask
    )


def spsolve_step(J_bc, rhs_bc, mask):
    """A Newton step by SuperLU on the eliminated Jacobian."""
    return spla.spsolve(sp.csc_matrix(J_bc), rhs_bc)


def band_cholesky_step(J_bc, rhs_bc, mask):
    """A Newton step by LAPACK ``dpbsv`` on ``S J_bc``, S = -1 off the gate,
    the band read off the dense matrix diagonal by diagonal."""
    sign = np.where(mask, 1.0, -1.0)
    dense = (sp.diags(sign) @ J_bc).toarray()
    rows, cols = np.nonzero(dense)
    kd = int(np.abs(rows - cols).max())
    ab = np.zeros((kd + 1, dense.shape[0]))
    for d in range(kd + 1):
        ab[kd - d, d:] = np.diagonal(dense, d)
    _, delta, info = lapack.dpbsv(ab, sign * rhs_bc)
    assert info == 0
    return delta


def unpack_upper_band(ab):
    """Dense upper triangle of LAPACK upper band storage ``(kd + 1, n)``;
    the unused corner ``ab[kd - d, :d]`` must be zero."""
    kd = ab.shape[0] - 1
    upper = np.zeros((ab.shape[1], ab.shape[1]))
    for d in range(kd + 1):
        assert not ab[kd - d, :d].any()
        upper += np.diag(ab[kd - d, d:], d)
    return upper


class TestHoistedDirichletElimination:
    """The Dirichlet-eliminated Laplacian is geometry-only: built once at
    construction, and every Newton step `==` the per-step elimination."""

    @staticmethod
    def newton_with_per_step_elimination(
        solver, model, v_gate, tol, max_iter, linear_step
    ):
        """The Newton loop as it was: ``apply_dirichlet`` on every step,
        then ``linear_step(J_bc, rhs_bc, mask)``."""
        phi = np.zeros(solver.grid.n_nodes)
        phi[solver.mask] = v_gate
        history = []
        for _ in range(max_iter):
            F = solver.residual(phi, model)
            history.append(float(np.abs(F).max()))
            if history[-1] < tol:
                break
            dn = model.d_density_d_phi(phi)
            J = solver.L - sp.diags(Q_OVER_EPS0_V_NM * dn)
            J_bc, rhs_bc = apply_dirichlet(J, -F, solver.mask, 0.0)
            phi = phi + linear_step(J_bc, rhs_bc, solver.mask)
        return phi, history

    @pytest.mark.parametrize("v_gate", [-0.3, 0.2])
    def test_solve_equals_per_step_elimination(self, built, v_gate):
        from repro.core import SelfConsistentSolver, TransportCalculation

        scf = SelfConsistentSolver(built, TransportCalculation(built, n_energy=11))
        solver = scf.poisson
        assert built.gate_mask.any()
        model = semiclassical_model(built)
        res = solver.solve(model, tol=1e-8, max_iter=60, dirichlet_values=v_gate)
        phi, history = self.newton_with_per_step_elimination(
            solver, model, v_gate, tol=1e-8, max_iter=60,
            linear_step=band_cholesky_step,
        )
        assert res.converged and res.n_iterations > 2
        assert res.n_iterations == len(history)
        assert res.history == history
        assert np.array_equal(res.phi, phi)

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    def test_solve_matches_a_superlu_newton_loop(self, mesh):
        """Oracle independent of the band: the SuperLU Newton loop takes as
        many steps to the same potential."""
        built, solver = mesh_problem(mesh)
        model = semiclassical_model(built)
        res = solver.solve(model, tol=1e-8, max_iter=60, dirichlet_values=-0.3)
        phi, history = self.newton_with_per_step_elimination(
            solver, model, -0.3, tol=1e-8, max_iter=60, linear_step=spsolve_step
        )
        assert res.converged and res.n_iterations > 2
        assert res.n_iterations == len(history)
        assert np.abs(res.phi - phi).max() <= 1e-12 * np.abs(phi).max()

    @pytest.mark.parametrize("mesh", sorted(MESHES))
    def test_half_bandwidth_is_the_x_stride(self, mesh):
        """A grid reordering must not silently widen the band."""
        built, solver = mesh_problem(mesh)
        _, ny, nz = built.poisson_grid.shape
        assert solver._band.shape == (ny * nz + 1, built.poisson_grid.n_nodes)

    def test_eliminated_operator_is_apply_dirichlet_of_the_laplacian(self, built):
        solver = NonlinearPoisson(
            built.poisson_grid, built.eps_r, np.zeros(built.poisson_grid.n_nodes),
            dirichlet_mask=built.gate_mask, dirichlet_values=0.1,
        )
        ref, _ = apply_dirichlet(
            solver.L, np.zeros(solver.grid.n_nodes), solver.mask, 0.0
        )
        assert (solver.L_bc != ref).nnz == 0
        gate = np.flatnonzero(solver.mask)
        dense = solver.L_bc.toarray()
        assert np.array_equal(dense[gate][:, gate], np.eye(gate.size))
        assert not dense[~solver.mask][:, gate].any()

    def test_step_band_is_the_sign_flipped_jacobian(self, built, monkeypatch):
        """A Newton step rewrites the diagonal row of one band: unpacked,
        it is ``S (L_bc - diag(q/eps0 dn))`` entry for entry, symmetric."""
        from repro.poisson import nonlinear

        n = built.poisson_grid.n_nodes
        solver = NonlinearPoisson(
            built.poisson_grid, built.eps_r, np.zeros(n),
            dirichlet_mask=built.gate_mask,
        )
        bands = []

        def recording_solve(ab, b):
            bands.append(ab.copy())
            return lapack.dpbsv(ab, b)

        monkeypatch.setattr(nonlinear, "_band_solve", recording_solve)
        sign = np.where(solver.mask, 1.0, -1.0)
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1.0, 1e3):
            dn = scale * rng.random(n)
            dn[np.flatnonzero(solver.mask)[0]] = np.nan  # a masked row

            class Charge:
                def density(self, phi):
                    return np.full(n, 1e-2)  # a non-zero residual

                def d_density_d_phi(self, phi):
                    return dn

            solver.solve(Charge(), max_iter=1)
            ref = (sp.diags(sign) @ (
                solver.L_bc
                - sp.diags(np.where(solver.mask, 0.0, Q_OVER_EPS0_V_NM * dn))
            )).toarray()
            upper = unpack_upper_band(bands.pop())
            assert np.array_equal(ref, ref.T)
            assert np.array_equal(ref, upper + np.triu(upper, 1).T)

    @pytest.mark.parametrize("mode", ["contain", "strict", "off"])
    def test_jacobian_that_is_not_positive_definite_raises_typed(
        self, built, mode, monkeypatch
    ):
        """No gate and ``dn == 0``: ``S J`` is the negated Laplacian, exactly
        singular, so the first factorisation reports ``info > 0``."""
        from repro.errors import NumericalBreakdownError
        from repro.poisson import nonlinear
        from repro.resilience.health import HealthSentinel, use_sentinel

        n = built.poisson_grid.n_nodes
        solver = NonlinearPoisson(built.poisson_grid, built.eps_r, np.zeros(n))
        solves = []

        def counting_solve(ab, b):
            solves.append(lapack.dpbsv(ab, b))
            return solves[-1]

        monkeypatch.setattr(nonlinear, "_band_solve", counting_solve)

        class UnscreenedCharge:
            def density(self, phi):
                return np.full_like(phi, 1e-3)

            def d_density_d_phi(self, phi):
                return np.zeros_like(phi)

        sentinel = HealthSentinel(mode=mode)
        with use_sentinel(sentinel):
            if mode == "off":  # unchecked: the step is NaN, nothing raises
                res = solver.solve(UnscreenedCharge(), max_iter=2)
                assert not res.converged and np.isnan(res.phi).all()
            else:
                with pytest.raises(NumericalBreakdownError):
                    solver.solve(UnscreenedCharge(), max_iter=5)
                assert sentinel.trips_since(0) == {
                    "poisson:not_positive_definite": 1
                }
                assert len(solves) == 1  # at the first step
        assert solves[0][2] > 0

    def test_non_finite_derivative_on_a_gate_node_is_eliminated(self):
        """Gate rows are identity rows whatever the charge model returns there."""
        n = 9
        g = PoissonGrid(shape=(n, 1, 1), spacing=(0.5, 0.5, 0.5))
        mask = np.zeros(n, dtype=bool)
        mask[0] = True

        class GateBlindCharge(SemiclassicalCharge):
            def d_density_d_phi(self, phi):
                out = super().d_density_d_phi(phi)
                out[0] = np.nan
                return out

        kwargs = dict(mu=-0.2, band_edge=0.0, m_rel=1.0, kT=0.0259)
        args = (g, np.ones(n), np.full(n, 1e-5), mask, 0.3)
        res = NonlinearPoisson(*args).solve(GateBlindCharge(**kwargs))
        ref = NonlinearPoisson(*args).solve(SemiclassicalCharge(**kwargs))
        assert res.converged
        assert np.array_equal(res.phi, ref.phi)


class TestAndersonMixer:
    def test_fixed_point_linear_map(self):
        """x -> A x + b with spectral radius < 1: Anderson beats plain mixing."""
        rng = np.random.default_rng(0)
        A = rng.normal(size=(8, 8))
        A = 0.8 * A / np.abs(np.linalg.eigvals(A)).max()
        b = rng.normal(size=8)
        x_star = np.linalg.solve(np.eye(8) - A, b)

        def run(mixer, n_iter):
            x = np.zeros(8)
            for _ in range(n_iter):
                x = mixer.update(x, A @ x + b)
            return np.linalg.norm(x - x_star)

        err_anderson = run(AndersonMixer(depth=5, beta=0.7), 25)
        plain = AndersonMixer(depth=0, beta=0.7)
        err_plain = run(plain, 25)
        assert err_anderson < err_plain * 0.1

    def test_reset(self):
        m = AndersonMixer(depth=3)
        m.update(np.zeros(3), np.ones(3))
        m.reset()
        assert m._xs == []

    def test_first_step_is_damped(self):
        m = AndersonMixer(beta=0.5)
        x = np.array([0.0])
        out = m.update(x, np.array([1.0]))
        assert out[0] == pytest.approx(0.5)
