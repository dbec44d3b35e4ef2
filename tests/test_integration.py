"""Cross-package integration tests: end-to-end flows through the full stack."""

import numpy as np
import pytest

from repro.core import (
    DeviceSpec,
    SelfConsistentSolver,
    TransportCalculation,
    build_device,
)
from repro.io import load_json, save_json, spec_from_dict, spec_to_dict


class TestFullBandEndToEnd:
    def test_zincblende_wire_bias_point(self):
        """Geometry -> sp3s* Hamiltonian -> contacts -> current, one call."""
        spec = DeviceSpec(
            geometry="nanowire-zb",
            material="Si-sp3s*",
            n_x=4,
            n_y=1,
            n_z=1,
            source_cells=1,
            drain_cells=1,
            gate_cells=(1, 2),
            donor_density_nm3=0.05,
        )
        built = build_device(spec)
        tc = TransportCalculation(built, n_energy=21)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        assert res.current_a > 0
        assert res.transmission.max() >= 1.0 - 1e-6
        assert np.all(res.density_per_atom >= 0)

    def test_utb_k_summed_current_exceeds_single_k(self):
        """UTB: the k-summed current is a weighted average over k."""
        spec = DeviceSpec(
            geometry="utb-zb",
            material="Si-sp3s*",
            n_x=4,
            n_z=1,
            source_cells=1,
            drain_cells=1,
            gate_cells=(1, 2),
            donor_density_nm3=0.05,
        )
        built = build_device(spec)
        tc = TransportCalculation(built, n_energy=11)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        # transmission varies with k (different subband alignments)
        t_by_k = res.transmission.max(axis=1)
        assert t_by_k.max() > 0
        assert res.current_a > 0

    def test_spin_orbit_wire_transport(self):
        """Spin-doubled basis flows through the entire pipeline."""
        spec = DeviceSpec(
            geometry="nanowire-zb",
            material="Si-sp3s*",
            n_x=4,
            n_y=1,
            n_z=1,
            source_cells=1,
            drain_cells=1,
            gate_cells=(1, 2),
            donor_density_nm3=0.05,
            spin_orbit=True,
        )
        built = build_device(spec)
        tc = TransportCalculation(built, n_energy=7)
        assert tc.spin_degeneracy == 1
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        # Kramers degeneracy: spinful transmission is (near-)even
        t = res.transmission[0]
        open_t = t[t > 0.5]
        if open_t.size:
            assert np.all(np.abs(open_t - 2 * np.round(open_t / 2)) < 1e-2)


class TestAdaptiveEnergyMode:
    def make_resonant_device(self):
        spec = DeviceSpec(
            n_x=16,
            n_y=2,
            n_z=2,
            spacing_nm=0.25,
            source_cells=3,
            drain_cells=3,
            gate_cells=(6, 9),
            donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        )
        built = build_device(spec)
        # double barrier -> quasi-bound resonance
        pot = np.zeros(built.n_atoms)
        slab = built.device.slab_of_atom()
        pot[slab == 5] = 0.6
        pot[slab == 10] = 0.6
        return built, pot

    def test_adaptive_refinement_occurs(self):
        """The adaptive grid samples beyond its initial nodes where the
        integrand (carrier density, with its subband van Hove edges) has
        structure."""
        from repro.perf import sancho_rubio_flops

        built, pot = self.make_resonant_device()
        n_initial = 21
        tc = TransportCalculation(
            built, n_energy=n_initial, energy_mode="adaptive",
            adaptive_tol=0.005,
        )
        res = tc.solve_bias(pot, v_drain=0.02)
        m = built.device.uniform_slab_size()  # single-band: orbitals = atoms
        per_sample = 2 * sancho_rubio_flops(m, 25)
        n_samples = res.flops.counts["surface_gf"] / per_sample
        assert n_samples > n_initial

    def test_adaptive_matches_fine_uniform_current(self):
        built, pot = self.make_resonant_device()
        fine = TransportCalculation(built, n_energy=401)
        adaptive = TransportCalculation(
            built, n_energy=41, energy_mode="adaptive", adaptive_tol=0.01,
            max_energy_points=400,
        )
        i_fine = fine.solve_bias(pot, v_drain=0.05).current_a
        i_adaptive = adaptive.solve_bias(pot, v_drain=0.05).current_a
        i_coarse = TransportCalculation(built, n_energy=41).solve_bias(
            pot, v_drain=0.05
        ).current_a
        err_adaptive = abs(i_adaptive - i_fine) / abs(i_fine)
        err_coarse = abs(i_coarse - i_fine) / abs(i_fine)
        assert err_adaptive < max(err_coarse, 0.02)

    def test_invalid_energy_mode(self):
        built, _ = self.make_resonant_device()
        with pytest.raises(ValueError):
            TransportCalculation(built, energy_mode="magic")


class TestSerializationRoundTrips:
    def test_spec_through_build(self, tmp_path):
        spec = DeviceSpec(
            n_x=10, n_y=2, n_z=2, source_cells=3, drain_cells=3,
            gate_cells=(4, 6), donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        )
        clone = spec_from_dict(spec_to_dict(spec))
        b1 = build_device(spec)
        b2 = build_device(clone)
        assert b1.n_atoms == b2.n_atoms
        np.testing.assert_allclose(b1.donors_per_atom, b2.donors_per_atom)

    def test_scf_result_serialises(self, tmp_path):
        spec = DeviceSpec(
            n_x=10, n_y=2, n_z=2, source_cells=3, drain_cells=3,
            gate_cells=(4, 6), donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        )
        built = build_device(spec)
        tc = TransportCalculation(built, n_energy=31)
        scf = SelfConsistentSolver(built, tc)
        out = scf.run(0.0, 0.05)
        payload = {
            "current_a": out.transport.current_a,
            "residuals": out.residuals,
            "phi": out.phi,
            "density": out.transport.density_per_atom,
        }
        path = tmp_path / "result.json"
        save_json(payload, path)
        back = load_json(path)
        assert back["current_a"] == pytest.approx(out.transport.current_a)
        assert len(back["phi"]) == built.poisson_grid.n_nodes


class TestKernelInteroperability:
    def test_phonon_dynamics_through_electronic_kernels(self):
        """The phonon dynamical blocks are valid transport 'Hamiltonians'."""
        from repro.lattice import (
            ZincblendeCell,
            partition_into_slabs,
            zincblende_nanowire,
        )
        from repro.negf import RGFSolver
        from repro.phonons import AMU_KG, PhononTransport
        from repro.wf import WFSolver

        SI = ZincblendeCell(0.5431, "Si", "Si")
        wire = zincblende_nanowire(SI, 5, 1, 1)
        dev = partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)
        pt = PhononTransport(dev, n_device_slabs=5)
        omega2 = (2 * np.pi * 1.0e12) ** 2 * AMU_KG
        scale = float(np.abs(pt.dynamics.diagonal[0]).max())
        t_rgf = RGFSolver(pt.dynamics, eta=1e-8 * scale).transmission(omega2)
        t_wf = WFSolver(pt.dynamics, eta=1e-8 * scale).transmission(omega2)
        assert t_rgf == pytest.approx(t_wf, rel=1e-5, abs=1e-8)
        assert t_rgf == pytest.approx(3.0, abs=1e-2)

    def test_flop_accounting_methods_differ(self):
        spec = DeviceSpec(
            n_x=10, n_y=2, n_z=2, source_cells=3, drain_cells=3,
            gate_cells=(4, 6), donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        )
        built = build_device(spec)
        pot = np.zeros(built.n_atoms)
        f_wf = TransportCalculation(built, method="wf", n_energy=11).solve_bias(
            pot, 0.1
        ).flops
        f_rgf = TransportCalculation(built, method="rgf", n_energy=11).solve_bias(
            pot, 0.1
        ).flops
        assert "wf" in f_wf.counts and "rgf" in f_rgf.counts
        assert f_rgf.counts["rgf"] > f_wf.counts["wf"]
