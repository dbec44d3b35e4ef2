"""RGF kernel tests: analytic chain oracle, dense-inversion oracle, identities."""

import numpy as np
import pytest

from repro.lattice import partition_into_slabs, rectangular_grid_device
from repro.negf import (
    RGFSolver,
    assemble_system_blocks,
    dense_observables,
    dense_transmission,
    landauer_current,
    carrier_density,
    orbital_to_atom,
)
from repro.physics.grids import uniform_grid
from repro.solvers import BlockTridiagLU
from repro.tb import BlockTridiagonalHamiltonian, build_device_hamiltonian
from repro.tb.chain import chain_blocks, square_barrier_transmission
from repro.tb import single_band_material


def chain_hamiltonian(n=8, e0=0.0, t=1.0, potential=None):
    diag, up = chain_blocks(n, e0, t, potential)
    return BlockTridiagonalHamiltonian(diag, up)


class TestChainTransmission:
    @pytest.mark.parametrize("energy", [-1.5, -0.4, 0.3, 1.1, 1.8])
    def test_clean_chain_unit_transmission(self, energy):
        H = chain_hamiltonian(6)
        solver = RGFSolver(H)
        assert solver.transmission(energy) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("energy", [-3.0, 2.4, 10.0])
    def test_outside_band_zero(self, energy):
        H = chain_hamiltonian(6)
        solver = RGFSolver(H)
        assert solver.transmission(energy) == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("energy", [-1.2, -0.3, 0.5, 1.4])
    def test_square_barrier_matches_transfer_matrix(self, energy):
        n, nb, vb = 12, 4, 0.8
        pot = np.zeros(n)
        pot[4 : 4 + nb] = vb
        H = chain_hamiltonian(n, potential=pot)
        solver = RGFSolver(H, eta=1e-9)
        exact = square_barrier_transmission(energy, 0.0, 1.0, vb, nb)
        assert solver.transmission(energy) == pytest.approx(exact, abs=1e-5)

    def test_barrier_transmission_below_one(self):
        pot = np.zeros(10)
        pot[3:6] = 1.5
        H = chain_hamiltonian(10, potential=pot)
        solver = RGFSolver(H)
        t = solver.transmission(0.2)
        assert 0.0 < t < 0.9

    def test_resonant_double_barrier_peak(self):
        """Double barrier shows a resonance with T near 1 inside the well."""
        pot = np.zeros(15)
        pot[4] = pot[10] = 2.0
        H = chain_hamiltonian(15, potential=pot)
        solver = RGFSolver(H, eta=1e-10)
        energies = np.linspace(-1.9, -1.0, 300)
        ts = [solver.transmission(e) for e in energies]
        assert max(ts) > 0.9  # resonance
        assert min(ts) < 0.1  # off resonance


class TestAgainstDense:
    def make_grid_system(self, seed=0):
        rng = np.random.default_rng(seed)
        mat = single_band_material(m_rel=0.3, spacing_nm=0.3)
        s = rectangular_grid_device(0.3, 6, 2, 2)
        dev = partition_into_slabs(s, 0.3, 0.3)
        pot = np.zeros(s.n_atoms)
        # a smooth barrier in the middle slabs
        slab = dev.slab_of_atom()
        pot[(slab >= 2) & (slab <= 3)] = 0.15
        H = build_device_hamiltonian(dev, mat, potential=pot)
        return H

    def test_transmission_matches_dense(self):
        H = self.make_grid_system()
        solver = RGFSolver(H)
        lead_l = (H.diagonal[0], H.upper[0])
        lead_r = (H.diagonal[-1], H.upper[-1])
        for e in (0.45, 0.6, 0.9):
            t_rgf = solver.transmission(e)
            t_dense = dense_transmission(H, e, lead_l, lead_r)
            assert t_rgf == pytest.approx(t_dense, rel=1e-8), e

    def test_full_solve_matches_dense(self):
        H = self.make_grid_system()
        solver = RGFSolver(H)
        lead_l = (H.diagonal[0], H.upper[0])
        lead_r = (H.diagonal[-1], H.upper[-1])
        e = 0.62
        res = solver.solve(e)
        ref = dense_observables(H, e, lead_l, lead_r)
        assert res.transmission == pytest.approx(ref["transmission"], rel=1e-8)
        np.testing.assert_allclose(res.dos, ref["dos"], atol=1e-8)
        np.testing.assert_allclose(
            res.spectral_left, ref["spectral_left"], atol=1e-8
        )
        np.testing.assert_allclose(
            res.spectral_right, ref["spectral_right"], atol=1e-8
        )

    def test_spectral_identity(self):
        """A_L + A_R = i(G - G^+) in the coherent ballistic limit."""
        H = self.make_grid_system()
        lead_l = (H.diagonal[0], H.upper[0])
        lead_r = (H.diagonal[-1], H.upper[-1])
        ref = dense_observables(H, 0.7, lead_l, lead_r, eta=1e-9)
        scale = np.linalg.norm(ref["green_function"])
        assert ref["identity_defect"] / scale < 1e-5

    def make_si_wire_system(self):
        """The ``nanowire-zb`` Si-sp3s* 1x1 wire: m = 30 blocks coupled by
        matrices (the atomistic input), one open channel at 2.45 eV."""
        from repro.core import DeviceSpec, build_device

        built = build_device(DeviceSpec(
            geometry="nanowire-zb", material="Si-sp3s*", n_x=4, n_y=1,
            n_z=1, source_cells=1, drain_cells=1, gate_cells=(1, 3),
        ))
        return built.hamiltonian(np.zeros(built.n_atoms)), 2.45

    @pytest.mark.parametrize("device", ["grid", "si_wire"])
    def test_dos_equals_spectral_sum(self, device):
        """In the coherent limit A_L + A_R = i(G - G^+) = -2 Im G, so the
        stage's dos = diag(A_L + A_R)/(2 pi) = sL + sR is -Im diag(G)/pi,
        which the selected inversion of the same factor computes on its
        own path, and the dense oracle on a third.

        Checked in band (one open channel), where the dos is O(0.1) and an
        rtol-only comparison sees a factor error; below the band edge the
        dos is ~1e-12 and any atol would hide one.  The grid device's
        couplings are ``c·I`` scalars, the wire's m = 30 matrices.
        """
        if device == "grid":
            H, e = self.make_grid_system(), 3.0
            assert np.ndim(H.couplings()[0]) == 0
        else:
            H, e = self.make_si_wire_system()
            assert np.ndim(H.couplings()[0]) == 2
        solver = RGFSolver(H, eta=1e-9)
        res = solver.solve(e)
        assert res.n_channels_left == 1
        energies = np.array([e])
        lu = BlockTridiagLU(*assemble_system_blocks(
            H, energies, *solver.contacts.sigma_stacks(energies)
        ))
        diag_g = np.concatenate(
            [g[0].diagonal() for g in lu.diagonal_of_inverse()]
        )
        ref = dense_observables(
            H, e, (H.diagonal[0], H.upper[0]), (H.diagonal[-1], H.upper[-1]),
            eta=1e-9,
        )
        np.testing.assert_allclose(res.dos, -diag_g.imag / np.pi, rtol=1e-12)
        np.testing.assert_allclose(res.dos, ref["dos"], rtol=1e-12)

    def test_reciprocity(self):
        """T_LR = T_RL: swap leads by reversing the device."""
        H = self.make_grid_system()
        # reversed device
        diag_r = [d.copy() for d in reversed(H.diagonal)]
        upper_r = [u.conj().T.copy() for u in reversed(H.upper)]
        H_rev = BlockTridiagonalHamiltonian(diag_r, upper_r)
        s1 = RGFSolver(H)
        s2 = RGFSolver(H_rev)
        for e in (0.5, 0.8):
            assert s1.transmission(e) == pytest.approx(
                s2.transmission(e), rel=1e-6
            )

    def test_channel_count_bounds_transmission(self):
        H = self.make_grid_system()
        solver = RGFSolver(H)
        for e in (0.5, 0.7, 1.0):
            res = solver.solve(e)
            assert res.transmission <= min(
                res.n_channels_left, res.n_channels_right
            ) + 1e-6

    def test_one_system_assembly_for_scalar_and_stack(self):
        """``assemble_system_blocks`` takes one energy or an array; the
        slice of the stacked assembly is the scalar assembly, bitwise,
        and the solver's scalar self-energies are its stack of one."""
        H = self.make_grid_system()
        solver = RGFSolver(H)
        energies = np.array([0.45, 0.6, 0.9])
        sigs_l, sigs_r = solver.contacts.self_energies(energies)
        diag, upper, lower = assemble_system_blocks(
            H, energies,
            np.stack([s.sigma for s in sigs_l]),
            np.stack([s.sigma for s in sigs_r]),
        )
        assert all(d.shape == (3,) + h.shape for d, h in zip(diag, H.diagonal))
        for b, e in enumerate(energies):
            sig_l, sig_r = solver.self_energies(float(e))
            assert np.array_equal(sig_l.sigma, sigs_l[b].sigma)
            assert np.array_equal(sig_r.sigma, sigs_r[b].sigma)
            d1, u1, l1 = assemble_system_blocks(
                H, float(e), sig_l.sigma, sig_r.sigma
            )
            assert all(a.ndim == 2 for a in d1)
            assert all(np.array_equal(a, d[b]) for a, d in zip(d1, diag))
            assert all(np.array_equal(a, c) for a, c in zip(u1, upper))
            assert all(np.array_equal(a, c) for a, c in zip(l1, lower))

    def test_grid_stage_multiplies_by_its_scalar_couplings(self, monkeypatch):
        """A grid device's ``-t I`` couplings reach the block LU as 0-d
        scalars: one RGF kernel stage issues 3(N-1)+2 block products
        (7(N-1)+2 on matrix couplings) and matches dense inversion."""
        from repro.solvers import block_tridiagonal

        H = self.make_grid_system()
        _, upper, lower = assemble_system_blocks(
            H, 0.6, np.zeros((4, 4)), np.zeros((4, 4))
        )
        assert all(np.ndim(c) == 0 for c in upper + lower)
        solver = RGFSolver(H)
        energies = np.array([0.45, 0.62])
        sigmas = solver.contacts.sigma_stacks(energies)
        products = []

        def matmul(a, b, out=None):
            products.append(b.shape)
            return np.matmul(a, b, out=out)

        monkeypatch.setattr(block_tridiagonal, "_matmul", matmul)
        res = solver.kernel_stage(energies, *sigmas)
        assert len(products) == 3 * (H.n_blocks - 1) + 2
        lead_l = (H.diagonal[0], H.upper[0])
        lead_r = (H.diagonal[-1], H.upper[-1])
        for row in res:
            ref = dense_observables(H, row.energy, lead_l, lead_r)
            assert row.transmission == pytest.approx(
                ref["transmission"], rel=1e-10
            )
            np.testing.assert_allclose(
                row.spectral_left, ref["spectral_left"], rtol=1e-10
            )

    def test_matrix_coupled_stage_issues_seven_products_a_slab(
        self, monkeypatch
    ):
        """On matrix couplings (the m = 30 Si wire) one RGF kernel stage
        issues 7(N-1)+2 block products — the factor 2 a slab, the first
        column 4 with ``Q`` formed once, the last column 1 — and runs no
        selected inversion."""
        from tests.test_solvers import recorded_products

        H, e = self.make_si_wire_system()
        solver = RGFSolver(H)
        energies = np.array([e, e + 0.1])
        sigmas = solver.contacts.sigma_stacks(energies)
        products = recorded_products(monkeypatch)
        solver.kernel_stage(energies, *sigmas)
        assert len(products) == 7 * (H.n_blocks - 1) + 2

    def test_chain_stage_calls_no_lapack_inverse(self, monkeypatch):
        """At m = 1 every Schur complement is a reciprocal: an RGF kernel
        stage makes no ``numpy.linalg.inv`` call."""
        H = chain_hamiltonian(8, potential=0.3 * np.sin(np.arange(8)))
        solver = RGFSolver(H)
        energies = np.linspace(-1.5, 1.5, 7)
        sigmas = solver.contacts.sigma_stacks(energies)
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(
            np.linalg, "inv", lambda a: inverses.append(a.shape) or inv(a)
        )
        res = solver.kernel_stage(energies, *sigmas)
        assert inverses == []
        monkeypatch.undo()
        lead_l = (H.diagonal[0], H.upper[0])
        lead_r = (H.diagonal[-1], H.upper[-1])
        for row in res:
            ref = dense_observables(H, row.energy, lead_l, lead_r)
            assert row.transmission == pytest.approx(
                ref["transmission"], rel=1e-10, abs=1e-12
            )
            np.testing.assert_allclose(row.dos, ref["dos"], rtol=1e-10)

    def test_chain_density_multiply_is_the_gemm(self):
        """At m = 1 the contact density multiplies by Gamma instead of a
        GEMM: its one entry is real (Gamma is Hermitian), so the complex
        product's cross terms are exact zeros and the multiply's bits are
        the GEMM's, whatever the stack length or the row's position."""
        from repro.negf.rgf import _contact_density, _row_sums
        from repro.negf.self_energy import broadening

        H = chain_hamiltonian(40, potential=0.3 * np.sin(np.arange(40)))
        solver = RGFSolver(H)
        energies = np.linspace(-1.9, 1.9, 37)
        sigma_l, _ = solver.contacts.sigma_stacks(energies)
        gamma = broadening(sigma_l)
        assert gamma.shape[1:] == (1, 1) and not gamma.imag.any()
        rng = np.random.default_rng(11)
        column = rng.normal(size=(37, 40, 1)) + 1j * rng.normal(size=(37, 40, 1))
        want = _row_sums(column @ gamma, column) / (2.0 * np.pi)
        assert np.array_equal(_contact_density(column, gamma), want)
        assert np.array_equal(
            _contact_density(column[5:6], gamma[5:6]), want[5:6]
        )

    def test_needs_two_slabs(self):
        d = [np.zeros((2, 2), dtype=complex)]
        with pytest.raises(ValueError):
            RGFSolver(BlockTridiagonalHamiltonian(d, []))


class TestObservables:
    def test_landauer_zero_bias(self):
        g = uniform_grid(-1.0, 1.0, 51)
        t = np.ones(51)
        assert landauer_current(g, t, 0.0, 0.0, 0.025) == 0.0

    def test_landauer_linear_response(self):
        """Unit transmission, small bias: I = G0 * V."""
        from repro.physics.constants import G0_SIEMENS

        v = 1e-3
        g = uniform_grid(-0.5, 0.5, 4001)
        t = np.ones(len(g))
        i = landauer_current(g, t, v / 2, -v / 2, 0.020)
        assert i == pytest.approx(G0_SIEMENS * v, rel=1e-4)

    def test_landauer_sign(self):
        g = uniform_grid(-0.5, 0.5, 101)
        t = np.ones(101)
        assert landauer_current(g, t, 0.1, -0.1, 0.02) > 0
        assert landauer_current(g, t, -0.1, 0.1, 0.02) < 0

    def test_spin_degeneracy_factor(self):
        g = uniform_grid(-0.5, 0.5, 101)
        t = np.ones(101)
        i2 = landauer_current(g, t, 0.1, -0.1, 0.02, spin_degeneracy=2)
        i1 = landauer_current(g, t, 0.1, -0.1, 0.02, spin_degeneracy=1)
        assert i2 == pytest.approx(2 * i1)

    def test_carrier_density_shape_and_occupation(self):
        g = uniform_grid(0.0, 1.0, 21)
        sl = np.ones((21, 6)) * 0.1
        sr = np.ones((21, 6)) * 0.2
        # mu very high: both fully occupied
        n = carrier_density(g, sl, sr, 10.0, 10.0, 0.02)
        np.testing.assert_allclose(n, 2 * (0.1 + 0.2) * 1.0, rtol=1e-6)

    def test_carrier_density_shape_mismatch(self):
        g = uniform_grid(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            carrier_density(g, np.ones((5, 3)), np.ones((5, 4)), 0, 0, 0.02)

    def test_orbital_to_atom(self):
        per_orb = np.arange(12.0)
        per_atom = orbital_to_atom(per_orb, 4)
        np.testing.assert_allclose(per_atom, [6.0, 22.0, 38.0])

    def test_orbital_to_atom_bad_divisor(self):
        with pytest.raises(ValueError):
            orbital_to_atom(np.ones(10), 4)
