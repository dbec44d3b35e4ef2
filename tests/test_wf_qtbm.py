"""Wave-function solver tests: must agree with RGF and the analytic chain."""

import numpy as np
import pytest

from repro.lattice import (
    ZincblendeCell,
    partition_into_slabs,
    rectangular_grid_device,
    zincblende_nanowire,
)
from repro.negf import RGFSolver, dense_observables
from repro.negf.self_energy import broadening
from repro.tb import (
    BlockTridiagonalHamiltonian,
    build_device_hamiltonian,
    silicon_sp3s,
    single_band_material,
)
from repro.tb.chain import chain_blocks, square_barrier_transmission
from repro.wf import WFSolver

SI = ZincblendeCell(0.5431, "Si", "Si")


def chain_hamiltonian(n=10, e0=0.0, t=1.0, potential=None):
    diag, up = chain_blocks(n, e0, t, potential)
    return BlockTridiagonalHamiltonian(diag, up)


def grid_system(barrier=0.15):
    mat = single_band_material(m_rel=0.3, spacing_nm=0.3)
    s = rectangular_grid_device(0.3, 6, 2, 2)
    dev = partition_into_slabs(s, 0.3, 0.3)
    pot = np.zeros(s.n_atoms)
    slab = dev.slab_of_atom()
    pot[(slab >= 2) & (slab <= 3)] = barrier
    return build_device_hamiltonian(dev, mat, potential=pot)


class TestChain:
    @pytest.mark.parametrize("energy", [-1.5, 0.3, 1.7])
    def test_clean_chain_unit_transmission(self, energy):
        solver = WFSolver(chain_hamiltonian())
        assert solver.transmission(energy) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("energy", [-0.9, 0.4, 1.2])
    def test_square_barrier(self, energy):
        pot = np.zeros(12)
        pot[4:8] = 0.8
        solver = WFSolver(chain_hamiltonian(12, potential=pot), eta=1e-9)
        exact = square_barrier_transmission(energy, 0.0, 1.0, 0.8, 4)
        assert solver.transmission(energy) == pytest.approx(exact, abs=1e-5)

    def test_outside_band_zero(self):
        solver = WFSolver(chain_hamiltonian())
        assert solver.transmission(4.0) == pytest.approx(0.0, abs=1e-6)

    def test_flux_conservation(self):
        pot = np.zeros(10)
        pot[5] = 1.0
        solver = WFSolver(chain_hamiltonian(10, potential=pot), eta=1e-9)
        res = solver.solve(0.4)
        assert res.current_conservation_defect < 1e-5


class TestAgainstRGF:
    def test_transmission_identical(self):
        H = grid_system()
        wf = WFSolver(H)
        rgf = RGFSolver(H)
        for e in (0.45, 0.62, 0.9):
            assert wf.transmission(e) == pytest.approx(
                rgf.transmission(e), rel=1e-7
            ), e

    def test_full_solve_identical(self):
        """Every observable of WF equals RGF's and the dense oracle's.

        In band (one open channel at 3 eV), rtol only: below the band
        edge the dos is ~1e-12 and an atol hides a factor error in it.
        """
        H = grid_system()
        wf = WFSolver(H)
        rgf = RGFSolver(H)
        e = 3.0
        rw = wf.solve(e)
        rr = rgf.solve(e)
        ref = dense_observables(
            H, e, (H.diagonal[0], H.upper[0]), (H.diagonal[-1], H.upper[-1])
        )
        assert rw.n_channels_left == rr.n_channels_left == 1
        assert rw.transmission == pytest.approx(rr.transmission, rel=1e-12)
        for field in ("spectral_left", "spectral_right", "dos"):
            np.testing.assert_allclose(
                getattr(rw, field), getattr(rr, field), rtol=1e-12,
                err_msg=field,
            )
        np.testing.assert_allclose(rw.dos, ref["dos"], rtol=1e-12)

    def test_channel_economy(self):
        """The WF solver's RHS count equals the open channels, not m
        (1 and 3 of the 4 lead modes are open at these energies)."""
        H = grid_system()
        wf = WFSolver(H, injection_tol_ev=1e-4)
        energies = np.array([3.5, 6.5])
        sigma_l, _ = wf.contacts.sigma_stacks(energies)
        _, _, width = wf._injection(broadening(sigma_l))
        n_open = [wf.solve(e).n_channels_left for e in energies]
        assert width.tolist() == n_open == [1, 3]
        assert max(n_open) < H.diagonal[0].shape[0]

    def test_silicon_nanowire_agreement(self):
        """Full-band sp3s* Si wire: WF == RGF transmission."""
        mat = silicon_sp3s()
        wire = zincblende_nanowire(SI, 4, 1, 1)
        dev = partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)
        H = build_device_hamiltonian(dev, mat)
        wf = WFSolver(H)
        rgf = RGFSolver(H)
        # The 1x1-cell wire's conduction band starts near 2.31 eV
        # (strong confinement); probe inside the band and inside the gap.
        for e in (2.4, 2.7, 1.5):
            t_wf = wf.transmission(e)
            t_rgf = rgf.transmission(e)
            assert t_wf == pytest.approx(t_rgf, rel=1e-6, abs=1e-9), e

    def test_silicon_wire_integer_plateaus(self):
        """Ballistic uniform wire: T(E) equals the subband count (integer)."""
        mat = silicon_sp3s()
        wire = zincblende_nanowire(SI, 4, 1, 1)
        dev = partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)
        H = build_device_hamiltonian(dev, mat)
        wf = WFSolver(H)
        for e in (2.4, 2.6):  # above the wire CBM at ~2.31 eV
            t = wf.transmission(e)
            assert abs(t - round(t)) < 1e-3, (e, t)
            assert t > 0.5


class TestValidation:
    def test_needs_two_slabs(self):
        d = [np.zeros((2, 2), dtype=complex)]
        with pytest.raises(ValueError):
            WFSolver(BlockTridiagonalHamiltonian(d, []))

    def test_bad_factorization(self):
        """One factorisation: the stacked block LU, not an option."""
        with pytest.raises(TypeError):
            WFSolver(chain_hamiltonian(), factorization="banded")

    def test_result_symmetry_left_right_channels(self):
        H = grid_system(barrier=0.0)
        res = WFSolver(H).solve(0.8)
        assert res.n_channels_left == res.n_channels_right
