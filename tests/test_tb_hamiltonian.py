"""Tests for device Hamiltonian assembly (blocks, passivation, wires)."""

import numpy as np
import pytest

from repro.core import DeviceSpec, build_device
from repro.lattice import (
    ZincblendeCell,
    partition_into_slabs,
    rectangular_grid_device,
    zincblende_nanowire,
    zincblende_ultra_thin_body,
)
from repro.negf import Contacts
from repro.negf.surface_gf import _scalar_coupled
from repro.tb.hamiltonian import identity_scalars
from repro.physics.constants import effective_mass_hopping
from repro.tb import (
    BlockTridiagonalHamiltonian,
    HamiltonianSkeleton,
    build_device_hamiltonian,
    periodic_wire_blocks,
    silicon_sp3s,
    single_band_material,
    wire_band_edges,
    wire_band_structure,
    bulk_band_edges,
    lead_conduction_minimum,
    wire_bloch_hamiltonian,
)

SI = ZincblendeCell(0.5431, "Si", "Si")


def grid_device(nx=5, ny=2, nz=2, spacing=0.25):
    s = rectangular_grid_device(spacing, nx, ny, nz)
    return partition_into_slabs(s, spacing, spacing)


class TestBlockTridiagonal:
    def test_structure_checks(self):
        with pytest.raises(ValueError):
            BlockTridiagonalHamiltonian([np.eye(2)], [np.eye(2)])
        with pytest.raises(ValueError):
            BlockTridiagonalHamiltonian(
                [np.eye(2), np.eye(3)], [np.zeros((3, 3))]
            )

    def test_to_dense_hermitian(self):
        dev = grid_device()
        mat = single_band_material(spacing_nm=0.25)
        H = build_device_hamiltonian(dev, mat)
        dense = H.to_dense()
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)

    def test_to_csr_matches_dense(self):
        dev = grid_device()
        mat = single_band_material(spacing_nm=0.25)
        H = build_device_hamiltonian(dev, mat)
        np.testing.assert_allclose(H.to_csr().toarray(), H.to_dense(), atol=1e-14)

    def test_total_size(self):
        dev = grid_device(4, 2, 3)
        mat = single_band_material(spacing_nm=0.25)
        H = build_device_hamiltonian(dev, mat)
        assert H.total_size == 4 * 2 * 3
        assert H.n_blocks == 4

    def test_block_offsets(self):
        dev = grid_device(3, 1, 2)
        mat = single_band_material(spacing_nm=0.25)
        H = build_device_hamiltonian(dev, mat)
        np.testing.assert_array_equal(H.block_offsets(), [0, 2, 4, 6])


class TestSingleBandDevice:
    def test_onsite_and_hopping_values(self):
        t = effective_mass_hopping(0.25, 0.25)
        mat = single_band_material(m_rel=0.25, spacing_nm=0.25)
        dev = grid_device(3, 1, 1)
        H = build_device_hamiltonian(dev, mat)
        assert H.diagonal[0][0, 0] == pytest.approx(6 * t)
        assert H.upper[0][0, 0] == pytest.approx(-t)

    def test_potential_added(self):
        mat = single_band_material(spacing_nm=0.25)
        dev = grid_device(3, 1, 1)
        pot = np.array([0.1, 0.2, 0.3])
        H = build_device_hamiltonian(dev, mat, potential=pot)
        H0 = build_device_hamiltonian(dev, mat)
        for i in range(3):
            assert H.diagonal[i][0, 0] - H0.diagonal[i][0, 0] == pytest.approx(
                pot[i]
            )

    def test_potential_shape_check(self):
        mat = single_band_material(spacing_nm=0.25)
        dev = grid_device(3, 1, 1)
        with pytest.raises(ValueError):
            build_device_hamiltonian(dev, mat, potential=np.zeros(5))

    def test_particle_in_box_levels(self):
        """Closed 1-D chain spectrum = discretized particle-in-a-box."""
        n = 30
        a = 0.2
        m_rel = 0.5
        t = effective_mass_hopping(m_rel, a)
        mat = single_band_material(m_rel=m_rel, spacing_nm=a, n_dim=1)
        dev = grid_device(n, 1, 1, spacing=a)
        H = build_device_hamiltonian(dev, mat)
        ev = np.linalg.eigvalsh(H.to_dense())
        # exact lattice levels: E_k = 2t(1 - cos(pi k /(n+1)))
        exact = 2 * t * (1 - np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        np.testing.assert_allclose(ev, np.sort(exact), atol=1e-10)


class TestUTBPhases:
    def test_k_zero_real(self):
        mat = single_band_material(spacing_nm=0.25)
        s = rectangular_grid_device(0.25, 4, 3, 2, periodic_y=True)
        dev = partition_into_slabs(s, 0.25, 0.25)
        H = build_device_hamiltonian(dev, mat, k_transverse=0.0)
        assert np.abs(H.to_dense().imag).max() < 1e-14

    def test_k_nonzero_hermitian(self):
        mat = single_band_material(spacing_nm=0.25)
        s = rectangular_grid_device(0.25, 4, 3, 2, periodic_y=True)
        dev = partition_into_slabs(s, 0.25, 0.25)
        H = build_device_hamiltonian(dev, mat, k_transverse=1.3).to_dense()
        np.testing.assert_allclose(H, H.conj().T, atol=1e-12)

    def test_transverse_dispersion(self):
        """Eigenvalues of a periodic 1-atom-y ring shift by -2t cos(k L)."""
        t = effective_mass_hopping(0.25, 0.25)
        mat = single_band_material(m_rel=0.25, spacing_nm=0.25)
        s = rectangular_grid_device(0.25, 2, 1, 1, periodic_y=True)
        dev = partition_into_slabs(s, 0.25, 0.25)
        L = 0.25
        for ky in (0.0, 1.0, 2.0):
            H = build_device_hamiltonian(dev, mat, k_transverse=ky)
            # single y cell periodic: wrap bonds add -t e^{ikL} + h.c.
            onsite = H.diagonal[0][0, 0]
            expected = 6 * t - 2 * t * np.cos(ky * L)
            assert onsite.real == pytest.approx(expected, abs=1e-12)


class TestContactBasis:
    """The effective-mass grid family couples its slabs by an exact scalar,
    ``h01 = -t I``, so its contacts take the closed form of the lead's
    mode basis (no decimation step) and the block LU multiplies by the
    0-d couplings :meth:`BlockTridiagonalHamiltonian.couplings` hands it;
    an atomistic device keeps matrix couplings and decimates at m.  Pinned
    here because a grid assembly that breaks the scalar — one rounding,
    one stray entry — drops every grid workload back to an O(m^3)
    decimation with nothing else failing."""

    @staticmethod
    def assert_scalar_coupled(H):
        for block in H.upper:
            assert np.array_equal(block, block[0, 0] * np.eye(block.shape[0]))
        couplings = H.couplings()
        assert all(np.ndim(c) == 0 for c in couplings)
        assert [complex(c) for c in couplings] == [u[0, 0] for u in H.upper]
        contacts = Contacts(H)
        assert _scalar_coupled(*contacts.left)
        assert _scalar_coupled(*contacts.right)

    @pytest.mark.parametrize("k", [0.0, 1.3])
    def test_grid_leads_take_the_mode_basis(self, k):
        mat = single_band_material(spacing_nm=0.25)
        s = rectangular_grid_device(0.25, 4, 3, 2, periodic_y=True)
        dev = partition_into_slabs(s, 0.25, 0.25)
        potential = np.random.default_rng(0).uniform(-0.1, 0.1, s.n_atoms)
        self.assert_scalar_coupled(build_device_hamiltonian(
            dev, mat, potential=potential, k_transverse=k
        ))

    def test_built_grid_device_takes_the_mode_basis(self):
        """The skeleton path every transport workload runs."""
        built = build_device(DeviceSpec(
            n_x=8, n_y=2, n_z=3, source_cells=2, drain_cells=2,
            gate_cells=(3, 5), spacing_nm=0.25, donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        ))
        potential = np.random.default_rng(1).uniform(-0.2, 0.2, built.n_atoms)
        self.assert_scalar_coupled(built.hamiltonian(potential))

    def test_identity_scalars_are_exact_and_finite(self):
        eye = np.eye(3, dtype=complex)
        stray = -eye
        stray[0, 2] = 1e-300
        blocks = [-2.0 * eye, np.zeros((3, 3)), stray, np.diag([np.inf] * 3)]
        got = identity_scalars(blocks)
        assert got[:2] == [-2.0, 0.0] and got[2:] == [None, None]
        assert all(type(c) is np.complex128 for c in got[:2])
        # a ragged list is tested block by block; a non-square block is
        # never c·I, a zero one included
        assert identity_scalars(
            [np.ones((1, 1)), np.ones((1, 2)), np.zeros((1, 2))]
        ) == [1.0, None, None]
        assert identity_scalars([np.full((1, 1), np.nan)]) == [None]

    def test_atomistic_leads_decimate_at_m(self):
        built = build_device(DeviceSpec(
            geometry="nanowire-zb", material="Si-sp3s*", n_x=4, n_y=1,
            n_z=1, source_cells=1, drain_cells=1, gate_cells=(1, 3),
        ))
        H = built.hamiltonian(np.zeros(built.n_atoms))
        couplings = H.couplings()
        assert all(c is u for c, u in zip(couplings, H.upper))
        assert all(np.ndim(c) == 2 for c in couplings)
        contacts = Contacts(H)
        assert not _scalar_coupled(*contacts.left)
        assert not _scalar_coupled(*contacts.right)


class TestStackedSkeleton:
    """The skeleton keeps its diagonal blocks of one size as one stack and
    builds a Hamiltonian as one copy and one strided diagonal write per
    size; the result is bit for bit the per-block build (a copy and a
    ``fill_diagonal`` per slab) it replaced."""

    @staticmethod
    def per_block(skeleton, potential):
        """The per-block build: every block copied, its diagonal filled."""
        diag = skeleton.onsite_diag + potential[skeleton.atom_of_orbital]
        for layer in skeleton.layers:
            diag += layer
        blocks = [block.copy() for block in skeleton.diagonal]
        ends = np.cumsum([b.shape[0] for b in blocks])[:-1]
        for block, entries in zip(blocks, np.split(diag, ends)):
            np.fill_diagonal(block, entries)
        return blocks

    @staticmethod
    def ragged_device():
        """A 3-slab 2x2 wire continued by a 2-slab single-atom chain:
        block sizes 4, 4, 4, 1, 1."""
        wide = rectangular_grid_device(0.25, 3, 2, 2)
        thin = rectangular_grid_device(0.25, 2, 1, 1).translated([0.75, 0, 0])
        return partition_into_slabs(wide.merged_with(thin), 0.25, 0.25)

    def cases(self):
        grid = single_band_material(spacing_nm=0.25)
        utb = zincblende_ultra_thin_body(SI, 3, 2)
        si = silicon_sp3s()
        return {
            "uniform": HamiltonianSkeleton(grid_device(6, 2, 3), grid),
            "ragged": HamiltonianSkeleton(self.ragged_device(), grid),
            "complex-k": HamiltonianSkeleton(
                partition_into_slabs(utb, si.slab_length_nm, si.bond_cutoff_nm),
                si, k_transverse=1.3,
            ),
        }

    @pytest.mark.parametrize("case", ["uniform", "ragged", "complex-k"])
    def test_bit_identical_to_the_per_block_build(self, case):
        skeleton = self.cases()[case]
        n_atoms = int(skeleton.atom_of_orbital[-1]) + 1
        potential = np.random.default_rng(3).uniform(-0.4, 0.4, n_atoms)
        H = skeleton.hamiltonian(potential)
        want = self.per_block(skeleton, potential)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(H.diagonal, want))
        sizes = {b.shape[0] for b in want}
        assert len(H.diagonal_stacks) == len(sizes)
        for slabs, stack in H.diagonal_stacks:
            assert stack.flags.writeable and stack.flags.c_contiguous
            assert all(H.diagonal[i].base is stack for i in slabs)
        if case == "ragged":
            assert H.block_sizes.tolist() == [4, 4, 4, 1, 1]
        if case == "complex-k":
            assert skeleton.layers and any(
                np.iscomplexobj(u) and np.abs(u.imag).max() > 0
                for u in H.upper
            )
        # the blocks handed out are fresh: writing one leaves the skeleton
        H.diagonal[0][0, 0] = np.nan
        assert np.isfinite(skeleton.diagonal[0]).all()
        assert np.array_equal(skeleton.hamiltonian(potential).diagonal[0],
                              want[0])

    def test_the_constructor_stacks_what_it_is_given(self):
        """A Hamiltonian built elsewhere copies its blocks into the stacks
        of its sizes, keeps them in slab order and takes its coupling
        verdicts once."""
        rng = np.random.default_rng(5)
        sizes = [2, 3, 2, 2]
        diag = [rng.normal(size=(m, m)) + 0j for m in sizes]
        upper = [-0.5 * np.eye(2, 3), rng.normal(size=(3, 2)),
                 -0.7 * np.eye(2)]
        H = BlockTridiagonalHamiltonian(diag, upper)
        assert all(np.array_equal(a, b) and a is not b
                   for a, b in zip(H.diagonal, diag))
        assert [s.tolist() for s, _ in H.diagonal_stacks] == [[0, 2, 3], [1]]
        couplings = H.couplings()
        assert couplings[0] is upper[0] and couplings[1] is upper[1]
        assert np.ndim(couplings[2]) == 0 and couplings[2] == -0.7
        H.upper[2] = np.zeros((2, 2))  # read once: the verdict stands
        assert H.couplings()[2] == -0.7

    def test_a_pickled_hamiltonian_carries_each_stack_once(self):
        """Pickling ships the stacks, not the per-slab views (which would
        each pickle as a copy), and one byte per coupling verdict."""
        import pickle

        H = build_device_hamiltonian(
            grid_device(8, 3, 3), single_band_material(spacing_nm=0.25)
        )
        blob = pickle.dumps(H)
        diagonal = sum(b.nbytes for b in H.diagonal)
        upper = sum(u.nbytes for u in H.upper)
        assert diagonal + upper < len(blob) < 2 * diagonal + upper
        back = pickle.loads(blob)
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.diagonal, H.diagonal))
        assert back.diagonal[1].base is back.diagonal_stacks[0][1]
        assert [complex(c) for c in back.couplings()] == [
            complex(c) for c in H.couplings()
        ]
        assert all(type(c) is np.complex128 for c in back.couplings())


class TestStackedKScan:
    """:func:`wire_band_structure` and :func:`lead_conduction_minimum` form
    the ``(n_k, m, m)`` Bloch stack in one broadcast and take its subbands
    in one ``eigvalsh`` call: ``==`` the per-k loop they replace."""

    @staticmethod
    def built_lead(spec):
        built = build_device(spec)
        H = built.hamiltonian(np.zeros(built.n_atoms))
        return (H.diagonal[0], H.upper[0], built.device.slab_length_nm,
                built.midgap)

    @pytest.mark.parametrize("lead", ["fet", "chain", "si-wire"])
    @pytest.mark.parametrize("n_k", [7, 9])
    def test_one_eigvalsh_equals_the_per_k_loop(self, lead, n_k, monkeypatch):
        if lead == "chain":
            h00, h01, period, floor = (
                np.array([[0.0 + 0j]]), np.array([[-1.0 + 0j]]), 1.0, -np.inf
            )
        elif lead == "fet":
            h00, h01, period, floor = self.built_lead(DeviceSpec(
                n_x=12, n_y=2, n_z=2, source_cells=4, drain_cells=4,
                gate_cells=(4, 8), spacing_nm=0.25, donor_density_nm3=0.05,
                material_params={"m_rel": 0.3},
            ))
        else:
            h00, h01, period, floor = self.built_lead(DeviceSpec(
                geometry="nanowire-zb", material="Si-sp3s*", n_x=4, n_y=1,
                n_z=1, source_cells=1, drain_cells=1, gate_cells=(1, 3),
            ))
        ks = np.linspace(0.0, np.pi / period, n_k)
        loop = np.array([
            np.linalg.eigvalsh(wire_bloch_hamiltonian(h00, h01, k, period))
            for k in ks
        ])
        bottom = min(float(e[e > floor].min()) for e in loop if (e > floor).any())
        calls = []
        real = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        got_ks, stacked = wire_band_structure(h00, h01, period, n_k)
        assert np.array_equal(got_ks, ks) and np.array_equal(stacked, loop)
        assert lead_conduction_minimum(
            h00, h01, period, floor=floor, n_k=n_k
        ) == bottom
        m = h00.shape[0]
        assert calls == [(n_k, m, m)] * 2


class TestWireHamiltonian:
    def test_passivation_opens_gap(self):
        """Unpassivated Si wire has mid-gap surface states; passivated none."""
        mat = silicon_sp3s()
        wire = zincblende_nanowire(SI, 2, 1, 1)
        h00p, h01p, L = periodic_wire_blocks(wire, mat, passivate=True)
        h00u, h01u, _ = periodic_wire_blocks(wire, mat, passivate=False)
        edges = bulk_band_edges(mat, n_samples=41)
        mid = 0.5 * (edges["Ec"] + edges["Ev"])
        _, e_pass = wire_band_structure(h00p, h01p, L, n_k=11)
        _, e_unpass = wire_band_structure(h00u, h01u, L, n_k=11)
        # passivated: clean gap around bulk midgap
        gap_zone_pass = np.sum(np.abs(e_pass - mid) < 0.3)
        gap_zone_unpass = np.sum(np.abs(e_unpass - mid) < 0.3)
        assert gap_zone_pass == 0
        assert gap_zone_unpass > 0

    def test_confinement_widens_gap(self):
        mat = silicon_sp3s()
        bulk_gap = bulk_band_edges(mat, n_samples=41)["gap"]
        wire = zincblende_nanowire(SI, 2, 1, 1)
        h00, h01, L = periodic_wire_blocks(wire, mat)
        edges = bulk_band_edges(mat, n_samples=41)
        mid = 0.5 * (edges["Ec"] + edges["Ev"])
        w = wire_band_edges(h00, h01, L, reference_midgap=mid)
        assert w["gap"] > bulk_gap + 0.1

    def test_larger_wire_smaller_gap(self):
        mat = silicon_sp3s()
        edges = bulk_band_edges(mat, n_samples=41)
        mid = 0.5 * (edges["Ec"] + edges["Ev"])
        gaps = []
        for n in (1, 2):
            wire = zincblende_nanowire(SI, 2, n, n)
            h00, h01, L = periodic_wire_blocks(wire, mat)
            gaps.append(wire_band_edges(h00, h01, L, reference_midgap=mid)["gap"])
        assert gaps[1] < gaps[0]

    def test_open_ends_not_passivated_along_x(self):
        """End slabs must keep lead-facing bonds unpassivated."""
        mat = silicon_sp3s()
        wire = zincblende_nanowire(SI, 3, 1, 1)
        dev = partition_into_slabs(wire, SI.a_nm, SI.bond_length_nm)
        H_open = build_device_hamiltonian(dev, mat, open_left=True, open_right=True)
        # translation invariance: all diagonal blocks equal for a uniform wire
        np.testing.assert_allclose(
            H_open.diagonal[0], H_open.diagonal[1], atol=1e-9
        )
        # closed ends break it
        H_closed = build_device_hamiltonian(
            dev, mat, open_left=False, open_right=False
        )
        assert not np.allclose(H_closed.diagonal[0], H_closed.diagonal[1], atol=1e-6)

    def test_periodic_wire_blocks_requires_uniform(self):
        mat = single_band_material(spacing_nm=0.25)
        s = rectangular_grid_device(0.25, 4, 2, 2)
        # knock out one atom to break periodicity
        s2 = s.select([True] * (s.n_atoms - 1) + [False])
        with pytest.raises(ValueError):
            periodic_wire_blocks(s2, mat)

    def test_spinful_wire_doubles_dimension(self):
        mat = silicon_sp3s()
        wire = zincblende_nanowire(SI, 2, 1, 1)
        h00, _, _ = periodic_wire_blocks(wire, mat)
        h00s, _, _ = periodic_wire_blocks(wire, mat.with_spin())
        assert h00s.shape[0] == 2 * h00.shape[0]

    def test_spinful_wire_kramers_degeneracy(self):
        mat = silicon_sp3s().with_spin()
        wire = zincblende_nanowire(SI, 2, 1, 1)
        h00, h01, L = periodic_wire_blocks(wire, mat)
        ev = np.linalg.eigvalsh(h00)  # k-independent check on the slab block
        # every level of the (real + SO) Hamiltonian doubly degenerate
        np.testing.assert_allclose(ev[0::2], ev[1::2], atol=1e-9)
