"""Tests for the linked-cell neighbour search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import (
    AtomicStructure,
    ZincblendeCell,
    build_neighbor_table,
    rectangular_grid_device,
    zincblende_nanowire,
    zincblende_ultra_thin_body,
)
from repro.lattice.neighbors import _brute_force

SI = ZincblendeCell(0.5431, "Si", "Si")


def assert_equals_brute_force(structure, cutoff):
    """The linked-cell table is ``==`` the O(N^2) oracle, array for array
    (sign of zero included: the bond vectors feed the Hamiltonian bits)."""
    fast = build_neighbor_table(structure, cutoff)
    slow = _brute_force(structure, (cutoff * (1 + 1e-3)) ** 2)
    for name in ("i", "j", "wrap_y", "displacement"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    return fast


def grid_structure(n, spacing=0.3, periodic_y=None):
    xs, ys, zs = np.meshgrid(
        np.arange(n), np.arange(n), np.arange(n), indexing="ij"
    )
    pos = spacing * np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    return AtomicStructure(
        pos.astype(float), ["X"] * pos.shape[0], periodic_y=periodic_y
    )


def random_cloud(seed, periodic):
    """``(structure, cutoff)``: 5-39 random atoms, open in y or periodic
    with a period of 2-5 cuts (``"linked-cell"``) or 0.6-1.98 cuts
    (``"fallback"``); the atoms lie within one period."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    cutoff = float(rng.uniform(0.2, 0.6))
    pos = rng.uniform(0, 1.5, size=(n, 3))
    period = None
    if periodic is not None:
        low, high = (1.0, 2.5) if periodic == "linked-cell" else (0.3, 0.99)
        period = 2 * cutoff * (1 + 1e-3) * float(rng.uniform(low, high))
        pos[:, 1] *= period / 1.5
    return AtomicStructure(pos, ["X"] * n, periodic_y=period), cutoff


class TestNeighborTable:
    def test_cubic_grid_interior_coordination(self):
        s = grid_structure(4)
        table = build_neighbor_table(s, 0.3)
        coord = table.coordination(s.n_atoms)
        # Interior atoms of a 4^3 grid: 6 neighbours.
        interior = [
            i
            for i in range(s.n_atoms)
            if np.all(s.positions[i] > 0.15) and np.all(s.positions[i] < 0.75)
        ]
        assert len(interior) == 8
        assert all(coord[i] == 6 for i in interior)

    def test_corner_coordination(self):
        s = grid_structure(3)
        table = build_neighbor_table(s, 0.3)
        coord = table.coordination(s.n_atoms)
        corner = np.flatnonzero(
            np.all(s.positions == 0.0, axis=1)
        )[0]
        assert coord[corner] == 3

    def test_directed_bonds_symmetric(self):
        s = grid_structure(3)
        table = build_neighbor_table(s, 0.3)
        pairs = set(zip(table.i.tolist(), table.j.tolist()))
        for i, j in pairs:
            assert (j, i) in pairs

    def test_displacement_antisymmetric(self):
        s = grid_structure(3)
        table = build_neighbor_table(s, 0.3)
        lookup = {}
        for b in range(table.n_bonds):
            lookup[(table.i[b], table.j[b], table.wrap_y[b])] = table.displacement[b]
        for (i, j, w), d in lookup.items():
            np.testing.assert_allclose(lookup[(j, i, -w)], -d, atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        pos = rng.uniform(0, 2.0, size=(60, 3))
        assert_equals_brute_force(AtomicStructure(pos, ["X"] * 60), 0.45)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_random(self, seed):
        table = assert_equals_brute_force(*random_cloud(seed, None))
        assert not table.wrap_y.any()

    @pytest.mark.parametrize("periodic", ["linked-cell", "fallback"])
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_random_periodic(self, periodic, seed):
        """Periodic in y with a period at least twice the cut (the
        linked-cell pass) or below it (the brute-force fallback)."""
        structure, cutoff = random_cloud(seed, periodic)
        assert (structure.periodic_y >= 2 * cutoff * (1 + 1e-3)) == (
            periodic == "linked-cell"
        )
        assert_equals_brute_force(structure, cutoff)

    @pytest.mark.parametrize("family", ["grid-48x5x5", "nanowire-zb-8x2x2", "utb-zb-8x2"])
    def test_device_families_match_brute_force(self, family):
        structure, cutoff = {
            "grid-48x5x5": lambda: (rectangular_grid_device(0.25, 48, 5, 5), 0.25),
            "nanowire-zb-8x2x2": lambda: (zincblende_nanowire(SI, 8, 2, 2), SI.bond_length_nm),
            "utb-zb-8x2": lambda: (zincblende_ultra_thin_body(SI, 8, 2), SI.bond_length_nm),
        }[family]()
        table = assert_equals_brute_force(structure, cutoff)
        assert table.n_bonds > 0
        assert table.wrap_y.any() == (structure.periodic_y is not None)

    def test_bonds_of_is_the_rows_of_the_atom(self):
        table = build_neighbor_table(zincblende_ultra_thin_body(SI, 4, 2), SI.bond_length_nm)
        for atom in range(int(table.i.max()) + 2):
            assert np.array_equal(table.bonds_of(atom), np.flatnonzero(table.i == atom))

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            build_neighbor_table(grid_structure(2), 0.0)


class TestPeriodicY:
    def test_periodic_wrap_bonds(self):
        # 1 x 2 x 1 chain of spacing 0.3, periodic in y with period 0.6:
        # each atom gets its +y and -y neighbour (one direct, one wrapped).
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.3, 0.0]])
        s = AtomicStructure(pos, ["X", "X"], periodic_y=0.6)
        table = build_neighbor_table(s, 0.3)
        coord = table.coordination(2)
        assert coord[0] == 2  # neighbour at +0.3 and wrapped at -0.3
        assert np.any(table.wrap_y != 0)

    def test_wrap_displacement_length(self):
        pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.3, 0.0]])
        s = AtomicStructure(pos, ["X", "X"], periodic_y=0.6)
        table = build_neighbor_table(s, 0.3)
        norms = np.linalg.norm(table.displacement, axis=1)
        np.testing.assert_allclose(norms, 0.3, atol=1e-9)

    def test_periodic_film_coordination(self):
        # 3x2x3 grid periodic in y: all interior-x/z atoms have y-coordination 2.
        s = grid_structure(3, periodic_y=None)
        # make a film periodic in y with 2 cells
        xs, ys, zs = np.meshgrid(np.arange(3), np.arange(2), np.arange(3), indexing="ij")
        pos = 0.3 * np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        film = AtomicStructure(pos.astype(float), ["X"] * 18, periodic_y=0.6)
        table = build_neighbor_table(film, 0.3)
        coord = table.coordination(18)
        center = np.flatnonzero(
            (pos[:, 0] == 0.3) & (pos[:, 2] == 0.3)
        )
        for c in center:
            assert coord[c] == 6  # 2x + 2y(periodic) + 2z

    def test_no_duplicate_bonds(self):
        xs, ys, zs = np.meshgrid(np.arange(2), np.arange(3), np.arange(2), indexing="ij")
        pos = 0.25 * np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        film = AtomicStructure(pos.astype(float), ["X"] * 12, periodic_y=0.75)
        table = build_neighbor_table(film, 0.25)
        keys = list(
            zip(
                table.i.tolist(),
                table.j.tolist(),
                table.wrap_y.tolist(),
                [tuple(np.round(d, 6)) for d in table.displacement],
            )
        )
        assert len(keys) == len(set(keys))
