"""The assemble-once contract of the device Hamiltonian.

``HamiltonianSkeleton`` holds everything of the device Hamiltonian that
does not depend on the potential; ``skeleton.hamiltonian(U)`` is a diagonal
add.  The contract is *bit identity* with the one-pass builder it replaced:

* ``tests/data/hamiltonian_digests.json`` is a golden table of sha256
  digests of every diagonal/upper block, recorded at the parent commit
  (``c715933``, the last one-pass ``build_device_hamiltonian``) with
  ``PYTHONPATH=<parent>/src python tests/test_tb_skeleton.py --record``;
* the cache on ``BuiltDevice`` is counted: after ``build_device`` a whole
  SCF sweep, a process-backend solve and a distributed solve assemble
  nothing on a Gamma-only device and ``len(k_points) - 1`` skeletons on a
  k-sampled film.
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.core import DeviceSpec, build_device
from repro.lattice import (
    partition_into_slabs,
    rectangular_grid_device,
    zincblende_nanowire,
    zincblende_ultra_thin_body,
)
# HamiltonianSkeleton is imported inside the tests that use it: the
# recorder below must also import under the parent commit's ``repro``,
# which has only the one-pass builder
from repro.tb import build_device_hamiltonian, silicon_sp3s, single_band_material

GOLDEN = pathlib.Path(__file__).parent / "data" / "hamiltonian_digests.json"

_GRID = {"m_rel": 0.3}
FET = dict(n_x=12, n_y=2, n_z=2, spacing_nm=0.25, source_cells=4,
           drain_cells=4, gate_cells=(4, 8), donor_density_nm3=0.05,
           material_params=_GRID)
CHAIN = dict(n_x=40, n_y=1, n_z=1, spacing_nm=0.25, source_cells=4,
             drain_cells=4, gate_cells=(12, 28), donor_density_nm3=0.05,
             material_params=_GRID)


def _cases():
    """name -> (device, material, builder kwargs) of the golden table."""
    cases = {}
    for name, spec in (("fet", FET), ("chain", CHAIN)):
        built = build_device(DeviceSpec(**spec))
        cases[name] = (built.device, built.material, {})

    si = silicon_sp3s()
    wire = zincblende_nanowire(si.cell, 3, 1, 1)
    wire_dev = partition_into_slabs(wire, si.slab_length_nm, si.bond_cutoff_nm)
    cases["si-wire"] = (wire_dev, si, {})
    cases["si-wire-so"] = (wire_dev, si.with_spin(), {})
    cases["si-wire-unpassivated"] = (wire_dev, si, {"passivate": False})
    cases["si-wire-closed"] = (
        wire_dev, si, {"open_left": False, "open_right": False}
    )

    compressed = wire.take(range(wire.n_atoms))
    compressed.positions *= 0.98
    strained_dev = partition_into_slabs(
        compressed, si.cell.a_nm * 0.98, si.bond_cutoff_nm
    )
    cases["si-wire-strained"] = (strained_dev, si, {"strain_eta": 2.0})

    film = zincblende_ultra_thin_body(si.cell, 3, 1)
    film_dev = partition_into_slabs(film, si.slab_length_nm, si.bond_cutoff_nm)
    for label, k in (("k0", 0.0), ("k1", 1.7), ("k2", -4.1)):
        cases[f"utb-{label}"] = (film_dev, si, {"k_transverse": k})

    # one node wide and periodic in y: every atom bonds to its own image
    # (the self-wrap branch, which lands hopping on the on-site diagonal)
    ribbon = rectangular_grid_device(0.25, 4, 1, 2, periodic_y=True)
    ribbon_dev = partition_into_slabs(ribbon, 0.25, 0.25)
    cases["ribbon-selfwrap"] = (
        ribbon_dev, single_band_material(spacing_nm=0.25), {"k_transverse": 2.3}
    )
    return cases


def _potentials(device):
    """The two potentials every case is recorded at."""
    n_atoms = device.structure.n_atoms
    rng = np.random.default_rng(20111112 + n_atoms)
    return {"none": None, "random": rng.uniform(-0.6, 0.6, n_atoms)}


def _digest(block) -> str:
    block = np.ascontiguousarray(block, dtype=complex)
    return hashlib.sha256(
        repr(block.shape).encode() + block.tobytes()
    ).hexdigest()


def _table(H) -> dict:
    return {
        "diagonal": [_digest(d) for d in H.diagonal],
        "upper": [_digest(u) for u in H.upper],
    }


def _record() -> dict:
    out = {}
    for name, (device, material, kwargs) in _cases().items():
        out[name] = {
            label: _table(
                build_device_hamiltonian(device, material, potential=U, **kwargs)
            )
            for label, U in _potentials(device).items()
        }
    return out


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


CASE_NAMES = [
    "fet", "chain", "si-wire", "si-wire-so", "si-wire-unpassivated",
    "si-wire-closed", "si-wire-strained", "utb-k0", "utb-k1", "utb-k2",
    "ribbon-selfwrap",
]


class TestGoldenDigests:
    """(a) every block of the new builder == the parent commit's, bitwise."""

    def test_table_covers_every_case(self, cases, golden):
        assert sorted(cases) == sorted(CASE_NAMES) == sorted(golden)

    @pytest.mark.parametrize("name", CASE_NAMES)
    @pytest.mark.parametrize("label", ["none", "random"])
    def test_blocks_match_parent_commit(self, cases, golden, name, label):
        device, material, kwargs = cases[name]
        U = _potentials(device)[label]
        H = build_device_hamiltonian(device, material, potential=U, **kwargs)
        assert _table(H) == golden[name][label]

    def test_cases_exercise_the_order_sensitive_branches(self, cases):
        from repro.tb import HamiltonianSkeleton

        n_layers = {
            name: len(HamiltonianSkeleton(dev, mat, **kw).layers)
            for name, (dev, mat, kw) in cases.items()
        }
        # the grid family adds nothing to the on-site diagonal after the
        # potential; passivated atoms and self-wrapped atoms do
        assert n_layers["fet"] == n_layers["chain"] == 0
        assert n_layers["si-wire-unpassivated"] == 0
        assert n_layers["si-wire"] >= 1 and n_layers["utb-k1"] >= 1
        assert n_layers["ribbon-selfwrap"] == 2


class TestSkeletonApply:
    """(b) the apply half alone."""

    @pytest.mark.parametrize("name", ["fet", "si-wire-so", "utb-k1",
                                      "ribbon-selfwrap"])
    def test_equals_the_builder_bitwise(self, cases, name):
        from repro.tb import HamiltonianSkeleton

        device, material, kwargs = cases[name]
        skeleton = HamiltonianSkeleton(device, material, **kwargs)
        for U in _potentials(device).values():
            H = skeleton.hamiltonian(U)
            ref = build_device_hamiltonian(device, material, potential=U, **kwargs)
            assert _table(H) == _table(ref)

    def test_consecutive_calls_return_independent_diagonals(self, cases):
        from repro.tb import HamiltonianSkeleton

        device, material, kwargs = cases["fet"]
        skeleton = HamiltonianSkeleton(device, material, **kwargs)
        U = _potentials(device)["random"]
        H1, H2 = skeleton.hamiltonian(U), skeleton.hamiltonian(U)
        before = _table(H2)
        for d1, d2 in zip(H1.diagonal, H2.diagonal):
            assert not np.shares_memory(d1, d2)
            d1[...] = np.nan          # fresh and writable
        assert _table(H2) == before
        assert _table(skeleton.hamiltonian(U)) == before

    def test_shared_arrays_are_read_only(self, cases):
        from repro.tb import HamiltonianSkeleton

        device, material, kwargs = cases["si-wire"]
        skeleton = HamiltonianSkeleton(device, material, **kwargs)
        H = skeleton.hamiltonian()
        shared = [*skeleton.diagonal, *skeleton.upper, skeleton.onsite_diag,
                  skeleton.atom_of_orbital, *skeleton.layers, *H.upper]
        for arr in shared:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        for d in H.diagonal:
            assert d.flags.writeable

    def test_wrong_length_potential_raises_the_same_error(self, cases):
        from repro.tb import HamiltonianSkeleton

        device, material, kwargs = cases["fet"]
        n = device.structure.n_atoms
        message = rf"potential must have one entry per atom \({n}\), got \({n + 1},\)"
        with pytest.raises(ValueError, match=message):
            build_device_hamiltonian(device, material, potential=np.zeros(n + 1))
        with pytest.raises(ValueError, match=message):
            HamiltonianSkeleton(device, material).hamiltonian(np.zeros(n + 1))

    def test_non_finite_potential_poisons_the_diagonal_only(self, cases):
        device, material, kwargs = cases["si-wire"]
        U = np.zeros(device.structure.n_atoms)
        U[0] = np.nan
        H = build_device_hamiltonian(device, material, potential=U)
        n_orb = material.orbitals_per_atom
        bad = ~np.isfinite(H.diagonal[0])
        assert bad.sum() == n_orb
        assert np.array_equal(np.flatnonzero(bad.diagonal()), np.arange(n_orb))


def _count_assemblies(monkeypatch):
    """Count ``HamiltonianSkeleton`` constructions from here on."""
    from repro.tb import hamiltonian

    made = []
    init = hamiltonian.HamiltonianSkeleton.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("k_transverse", args[2] if len(args) > 2 else 0.0))
        init(self, *args, **kwargs)

    monkeypatch.setattr(hamiltonian.HamiltonianSkeleton, "__init__", counting)
    return made


MINI = dict(n_x=10, n_y=2, n_z=2, spacing_nm=0.25, source_cells=3,
            drain_cells=3, gate_cells=(4, 6), donor_density_nm3=0.05,
            material_params=_GRID)
UTB = dict(geometry="utb-zb", material="Si-sp3s*", n_x=4, n_z=1,
           source_cells=1, drain_cells=1, gate_cells=(1, 2),
           donor_density_nm3=0.05)


class TestAssemblyCounts:
    """(c) the cache on ``BuiltDevice`` is bounded by the momentum grid."""

    def test_build_device_keeps_its_own_assembly(self, monkeypatch):
        made = _count_assemblies(monkeypatch)
        built = build_device(DeviceSpec(**MINI))
        assert len(made) == 1
        assert list(built.skeletons) == [float(built.momentum_grid.k_points[0])]

    def test_gamma_only_sweep_assembles_nothing(self, monkeypatch):
        from repro.core import IVSweep, SelfConsistentSolver, TransportCalculation

        built = build_device(DeviceSpec(**MINI))
        made = _count_assemblies(monkeypatch)
        scf = SelfConsistentSolver(
            built, TransportCalculation(built, method="wf", n_energy=21)
        )
        assert scf.run(-0.2, 0.05).converged
        IVSweep(scf).transfer_curve([-0.3, -0.2], v_drain=0.05)
        assert made == []

    def test_process_backend_assembles_nothing(self, monkeypatch):
        from repro.core import TransportCalculation

        built = build_device(DeviceSpec(**MINI))
        made = _count_assemblies(monkeypatch)
        tc = TransportCalculation(
            built, method="rgf", n_energy=21, backend="process", workers=2
        )
        tc.solve_bias(np.zeros(built.n_atoms), 0.05)
        assert made == []

    def test_distributed_solve_assembles_nothing(self, monkeypatch):
        from repro.core import DistributedTransport, TransportCalculation

        built = build_device(DeviceSpec(**MINI))
        made = _count_assemblies(monkeypatch)
        from repro.parallel import SerialComm

        dist = DistributedTransport(
            TransportCalculation(built, method="rgf", n_energy=11)
        )
        out = dist.solve_bias(np.zeros(built.n_atoms), 0.05, SerialComm(), n_ranks=3)
        assert out["n_tasks_total"] == 11
        assert made == []

    def test_k_sampled_film_assembles_each_other_k_once(self, monkeypatch):
        from repro.core import TransportCalculation

        built = build_device(DeviceSpec(**UTB))
        k_points = [float(k) for k in built.momentum_grid.k_points]
        assert len(k_points) > 1
        made = _count_assemblies(monkeypatch)
        tc = TransportCalculation(built, n_energy=5)
        U = np.zeros(built.n_atoms)
        tc.solve_bias(U, 0.1)
        assert sorted(made) == sorted(k_points[1:])
        tc.solve_bias(U + 0.01, 0.1)
        assert len(made) == len(k_points) - 1
        assert sorted(built.skeletons) == sorted(k_points)

    def test_off_grid_k_is_assembled_and_not_retained(self, monkeypatch):
        built = build_device(DeviceSpec(**UTB))
        cached = dict(built.skeletons)
        made = _count_assemblies(monkeypatch)
        off_grid = 0.123456
        assert off_grid not in [float(k) for k in built.momentum_grid.k_points]
        H = built.hamiltonian(None, off_grid)
        ref = build_device_hamiltonian(
            built.device, built.material, k_transverse=off_grid
        )
        # the second assembly is the reference builder's own
        assert made == [off_grid, off_grid]
        assert _table(H) == _table(ref)
        assert built.skeletons == cached

    def test_wrong_length_potential_through_the_cache(self):
        built = build_device(DeviceSpec(**MINI))
        with pytest.raises(ValueError, match="potential must have one entry per atom"):
            built.hamiltonian(np.zeros(built.n_atoms + 1))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_tb_skeleton.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(_record(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
