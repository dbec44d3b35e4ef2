"""Tests for the Keating VFF, phonon bands and thermal transport."""

import numpy as np
import pytest

from repro.lattice import (
    ZincblendeCell,
    build_neighbor_table,
    partition_into_slabs,
    zincblende_nanowire,
)
from repro.phonons import (
    AMU_KG,
    KEATING_PARAMS,
    KeatingModel,
    PhononTransport,
    bulk_dynamical_matrix,
    bulk_phonon_bands,
    omega2_to_thz,
    periodic_wire_dynamics,
    thermal_conductance,
    wire_phonon_blocks,
)

SI = ZincblendeCell(0.5431, "Si", "Si")

#: quantum of thermal conductance g0 = pi^2 k_B^2 T / (3 h), W/K per channel
G0_THERMAL = lambda T: 9.464e-13 * T


def si_model(n_cells=2):
    wire = zincblende_nanowire(SI, n_cells, 1, 1)
    table = build_neighbor_table(wire, SI.bond_length_nm)
    p = KEATING_PARAMS["Si"]
    return wire, KeatingModel(wire, table, p["alpha"], p["beta"], SI.bond_length_nm)


class TestKeatingModel:
    def test_equilibrium_energy_zero(self):
        _, model = si_model()
        assert model.energy() == pytest.approx(0.0, abs=1e-12)

    def test_equilibrium_forces_zero(self):
        _, model = si_model()
        np.testing.assert_allclose(model.forces(), 0.0, atol=1e-10)

    def test_energy_positive_off_equilibrium(self):
        wire, model = si_model()
        rng = np.random.default_rng(0)
        u = rng.normal(scale=1e-3, size=(wire.n_atoms, 3))
        assert model.energy(u) > 0

    def test_forces_match_energy_gradient(self):
        wire, model = si_model()
        rng = np.random.default_rng(1)
        u = rng.normal(scale=2e-3, size=(wire.n_atoms, 3))
        f = model.forces(u)
        h = 1e-6
        for (i, a) in [(0, 0), (3, 1), (7, 2)]:
            up = u.copy()
            up[i, a] += h
            um = u.copy()
            um[i, a] -= h
            num = -(model.energy(up) - model.energy(um)) / (2 * h)
            assert f[i, a] == pytest.approx(num, rel=1e-4, abs=1e-10)

    def test_translation_invariance(self):
        wire, model = si_model()
        shift = np.tile([0.01, -0.02, 0.005], (wire.n_atoms, 1))
        assert model.energy(shift) == pytest.approx(0.0, abs=1e-12)

    def test_hessian_symmetric_psd(self):
        _, model = si_model()
        phi = model.force_constants()
        np.testing.assert_allclose(phi, phi.T, atol=1e-8)
        ev = np.linalg.eigvalsh(phi)
        assert ev.min() > -1e-6  # stable equilibrium

    def test_acoustic_sum_rule(self):
        """Rigid translations cost nothing: rows of Phi sum to zero."""
        wire, model = si_model()
        phi = model.force_constants()
        n = wire.n_atoms
        for a in range(3):
            t = np.zeros(3 * n)
            t[a::3] = 1.0
            np.testing.assert_allclose(phi @ t, 0.0, atol=1e-6)

    def test_invalid_params(self):
        wire, _ = si_model()
        table = build_neighbor_table(wire, SI.bond_length_nm)
        with pytest.raises(ValueError):
            KeatingModel(wire, table, alpha=-1.0, beta=1.0, d0_nm=0.2)
        with pytest.raises(ValueError):
            KeatingModel(wire, table, alpha=1.0, beta=1.0, d0_nm=0.0)


class TestBulkPhonons:
    def test_gamma_acoustic_modes_vanish(self):
        f = bulk_phonon_bands(SI, np.zeros((1, 3)))[0]
        np.testing.assert_allclose(f[:3], 0.0, atol=0.05)

    def test_gamma_optical_triplet(self):
        """Si Raman mode: 3-fold degenerate optical phonon at Gamma.

        Keating(48.5, 13.8) gives ~12.9 THz (experiment 15.5; the classic
        2-parameter Keating underestimate)."""
        f = bulk_phonon_bands(SI, np.zeros((1, 3)))[0]
        assert f[3] == pytest.approx(f[5], abs=1e-3)
        assert 11.0 < f[3] < 16.5

    def test_sound_velocities(self):
        k = 0.1
        f = bulk_phonon_bands(SI, np.array([[k, 0, 0]]))[0]
        v = 2 * np.pi * f[:3] * 1e12 / (k * 1e9)
        # TA doublet then LA; Si experiment: 5840 and 8430 m/s
        assert v[0] == pytest.approx(v[1], rel=1e-3)
        assert 4000 < v[0] < 7000
        assert 6000 < v[2] < 9500
        assert v[2] > v[0]

    def test_hermitian_at_generic_k(self):
        D = bulk_dynamical_matrix(SI, np.array([2.0, 1.0, -0.5]))
        np.testing.assert_allclose(D, D.conj().T, atol=1e-10)

    def test_frequencies_real_across_bz(self):
        kx = 2 * np.pi / SI.a_nm
        for frac in (0.25, 0.5, 1.0):
            f = bulk_phonon_bands(SI, np.array([[frac * kx, 0, 0]]))[0]
            assert np.all(f > -0.05)

    def test_omega2_conversion(self):
        # omega2 = (2 pi * 1 THz)^2 * amu -> 1 THz
        w2 = (2 * np.pi * 1e12) ** 2 * AMU_KG
        assert omega2_to_thz(np.array([w2]))[0] == pytest.approx(1.0)
        assert omega2_to_thz(np.array([-w2]))[0] == pytest.approx(-1.0)


@pytest.fixture(scope="module")
def si_wire_device():
    wire = zincblende_nanowire(SI, 5, 1, 1)
    return partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)


class TestWirePhonons:
    def test_block_structure(self, si_wire_device):
        p = KEATING_PARAMS["Si"]
        dyn = wire_phonon_blocks(
            si_wire_device, p["alpha"], p["beta"], SI.bond_length_nm
        )
        assert dyn.n_blocks == si_wire_device.n_slabs
        assert dyn.block_sizes[0] == si_wire_device.slab_size(0) * 3
        assert dyn.is_hermitian()

    def test_interior_translation_invariance(self, si_wire_device):
        p = KEATING_PARAMS["Si"]
        dyn = wire_phonon_blocks(
            si_wire_device, p["alpha"], p["beta"], SI.bond_length_nm
        )
        np.testing.assert_allclose(dyn.diagonal[1], dyn.diagonal[2], atol=1e-8)

    def test_perfect_wire_integer_transmission(self, si_wire_device):
        pt = PhononTransport(si_wire_device, n_device_slabs=5)
        xi = pt.transmission(np.array([1.0, 5.0]))
        for x in xi:
            assert abs(x - round(x)) < 1e-2

    def test_low_frequency_acoustic_channels(self, si_wire_device):
        """A wire carries >= 3 acoustic-like branches at low frequency."""
        pt = PhononTransport(si_wire_device, n_device_slabs=5)
        xi = pt.transmission(np.array([0.3]))[0]
        assert xi >= 2.5

    def test_transmission_zero_above_band(self, si_wire_device):
        pt = PhononTransport(si_wire_device, n_device_slabs=5)
        assert pt.transmission(np.array([25.0]))[0] < 1e-4

    def test_mass_disorder_reduces_conductance(self, si_wire_device):
        pt = PhononTransport(si_wire_device, n_device_slabs=6)
        atoms = pt.dynamics.diagonal[0].shape[0] // 3 * 6
        rng = np.random.default_rng(0)
        masses = np.where(rng.random(atoms) < 0.5, 28.0855, 72.63)
        pt_dis = PhononTransport(
            si_wire_device, n_device_slabs=6, mass_override=masses
        )
        g_clean = pt.conductance(300.0, n_freq=24)
        g_dis = pt_dis.conductance(300.0, n_freq=24)
        assert g_dis < 0.5 * g_clean

    def test_conductance_bounded_by_quantum(self, si_wire_device):
        """G_th <= (max open channels) * g0(T)."""
        pt = PhononTransport(si_wire_device, n_device_slabs=5)
        nus = np.linspace(0.5, 16.0, 24)
        max_channels = pt.transmission(nus).max()
        for T in (77.0, 300.0):
            g = pt.conductance(T, n_freq=24)
            assert 0 < g <= (max_channels + 0.5) * G0_THERMAL(T)

    def test_conductance_increases_with_temperature(self, si_wire_device):
        pt = PhononTransport(si_wire_device, n_device_slabs=5)
        g100 = pt.conductance(100.0, n_freq=24)
        g300 = pt.conductance(300.0, n_freq=24)
        assert g300 > g100

    def test_invalid_inputs(self, si_wire_device):
        p = KEATING_PARAMS["Si"]
        with pytest.raises(ValueError):
            periodic_wire_dynamics(
                si_wire_device, p["alpha"], p["beta"], SI.bond_length_nm,
                n_device_slabs=4,
                mass_override=np.ones(3),
            )
        with pytest.raises(ValueError):
            thermal_conductance(
                wire_phonon_blocks(
                    si_wire_device, p["alpha"], p["beta"], SI.bond_length_nm
                ),
                temperature_k=-1.0,
            )
