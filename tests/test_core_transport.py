"""Tests for the transport facade: physics of the integrated observables."""

import numpy as np
import pytest

from repro.core import DeviceSpec, build_device, TransportCalculation


@pytest.fixture(scope="module")
def built():
    spec = DeviceSpec(
        n_x=10,
        n_y=2,
        n_z=2,
        spacing_nm=0.25,
        source_cells=3,
        drain_cells=3,
        gate_cells=(4, 6),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    return build_device(spec)


class TestEnergyGrid:
    def test_window_covers_mus(self, built):
        tc = TransportCalculation(built, n_energy=31)
        grid = tc.energy_grid(np.zeros(built.n_atoms), v_drain=0.2)
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", 0.2)
        assert grid.energies.max() > mu_s
        assert grid.energies.min() <= mu_d + 1e-9

    def test_window_clipped_at_band_bottom(self, built):
        tc = TransportCalculation(built, n_energy=31)
        grid = tc.energy_grid(np.zeros(built.n_atoms), v_drain=0.0)
        # nothing deeper than the wire CBM minus the 2 kT margin
        assert grid.energies.min() >= built.band_edge - 3 * built.spec.kT

    def test_lead_band_minimum_tracks_potential(self, built):
        tc = TransportCalculation(built)
        H0 = tc.hamiltonian(np.zeros(built.n_atoms))
        H1 = tc.hamiltonian(np.full(built.n_atoms, 0.25))
        assert tc.lead_band_minimum(H1) == pytest.approx(
            tc.lead_band_minimum(H0) + 0.25, abs=1e-9
        )

    def test_bad_method(self, built):
        with pytest.raises(ValueError):
            TransportCalculation(built, method="dft")


class TestSolveBias:
    def test_zero_bias_zero_current(self, built):
        tc = TransportCalculation(built, n_energy=31)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.0)
        assert res.current_a == pytest.approx(0.0, abs=1e-15)

    def test_current_sign_follows_bias(self, built):
        tc = TransportCalculation(built, n_energy=31)
        fwd = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        assert fwd.current_a > 0

    def test_flat_band_unit_plateau(self, built):
        """Uniform wire: T is the (integer) number of open subbands."""
        tc = TransportCalculation(built, n_energy=31)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.05)
        t = res.transmission[0]
        ints = np.round(t)
        np.testing.assert_allclose(t, ints, atol=1e-4)
        assert t.max() >= 1.0 - 1e-9

    def test_barrier_cuts_current(self, built):
        tc = TransportCalculation(built, n_energy=31)
        open_res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        barrier = np.zeros(built.n_atoms)
        slab = built.device.slab_of_atom()
        # 1.25 nm x 1.0 eV barrier: tunnelling-dominated, ~1e-3 of the
        # open-channel current for m* = 0.3
        barrier[(slab >= 3) & (slab <= 7)] = 1.0
        closed_res = tc.solve_bias(barrier, v_drain=0.1)
        assert closed_res.current_a < 0.02 * open_res.current_a

    def test_wf_equals_rgf_current(self, built):
        wf = TransportCalculation(built, method="wf", n_energy=21)
        rgf = TransportCalculation(built, method="rgf", n_energy=21)
        pot = np.zeros(built.n_atoms)
        slab = built.device.slab_of_atom()
        pot[(slab >= 4) & (slab <= 6)] = 0.05
        a = wf.solve_bias(pot, v_drain=0.1)
        b = rgf.solve_bias(pot, v_drain=0.1)
        assert a.current_a == pytest.approx(b.current_a, rel=1e-6)
        np.testing.assert_allclose(
            a.density_per_atom, b.density_per_atom, rtol=1e-5, atol=1e-12
        )

    def test_density_higher_in_contacts(self, built):
        """Doped, mu-aligned contacts hold more electrons than the channel
        under a barrier."""
        tc = TransportCalculation(built, n_energy=41)
        pot = np.zeros(built.n_atoms)
        slab = built.device.slab_of_atom()
        pot[(slab >= 4) & (slab <= 6)] = 0.3
        res = tc.solve_bias(pot, v_drain=0.0)
        n = res.density_per_atom
        assert n[slab == 0].mean() > 2 * n[slab == 5].mean()

    def test_density_positive(self, built):
        tc = TransportCalculation(built, n_energy=31)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        assert np.all(res.density_per_atom >= 0)

    def test_flops_accounted(self, built):
        tc = TransportCalculation(built, n_energy=11)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        assert res.flops.total > 0
        assert "wf" in res.flops.counts
        assert "surface_gf" in res.flops.counts

    def test_channels_recorded(self, built):
        tc = TransportCalculation(built, n_energy=31)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        assert res.channels.max() >= 1

    def test_custom_energy_grid(self, built):
        from repro.physics.grids import uniform_grid

        tc = TransportCalculation(built, n_energy=31)
        grid = uniform_grid(built.band_edge, built.band_edge + 0.5, 11)
        res = tc.solve_bias(np.zeros(built.n_atoms), 0.05, energy_grid=grid)
        assert len(res.energy_grid) == 11


class TestUTBTransport:
    def test_k_integration(self):
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
        tc = TransportCalculation(built, n_energy=9)
        res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
        assert res.transmission.shape[0] == len(built.momentum_grid)
        assert res.current_a > 0


class TestOneDriver:
    """Structural guards: the (k, E) computation is written once."""

    @staticmethod
    def _core_trees():
        import ast
        from pathlib import Path

        import repro.core

        root = Path(repro.core.__file__).parent
        return {
            path.name: ast.parse(path.read_text())
            for path in sorted(root.glob("*.py"))
        }

    def test_observable_integrals_have_one_caller(self):
        """``carrier_density`` / ``landauer_current`` are reduced in one
        function under ``repro.core`` — the bias loop and the distributed
        rank share it instead of each integrating on their own."""
        import ast

        callers = {"carrier_density": set(), "landauer_current": set()}
        for name, tree in self._core_trees().items():
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in callers
                    ):
                        callers[node.func.id].add(f"{name}:{func.name}")
        assert callers == {
            "carrier_density": {"transport.py:_integrate"},
            "landauer_current": {"transport.py:_integrate"},
        }

    def test_bias_loop_has_no_closures_and_no_injector(self):
        """``_solve_bias`` enumerates k-points and reduces; fault hooks
        live in the node solver, not in the production loop."""
        import ast

        tree = self._core_trees()["transport.py"]
        (solve_bias,) = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name == "_solve_bias"
        ]
        inner = [node for node in ast.walk(solve_bias) if node is not solve_bias]
        assert not [
            node for node in inner
            if isinstance(node, (ast.FunctionDef, ast.Lambda))
        ]
        names = {
            node.id for node in inner if isinstance(node, ast.Name)
        } | {
            node.attr for node in inner if isinstance(node, ast.Attribute)
        }
        assert "injector" not in names

    def test_three_fault_sites_in_the_transport_driver(self):
        """hblock (k-point set-up), energy (one place in the ladder loop)
        and worker (the stacked sweep) — test hooks do not spread."""
        import ast

        tree = self._core_trees()["transport.py"]
        sites = sorted(
            node.args[0].value
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "fire"
        )
        assert sites == ["energy", "hblock", "worker"]


class TestOneEnvironmentReader:
    """The five ``REPRO_*`` variables are read in ``repro.env`` only."""

    def test_no_other_module_touches_the_environment(self):
        import ast
        from pathlib import Path

        import repro

        readers = set()
        root = Path(repro.__file__).parent
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv", "putenv")
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module == "os"
                    and {a.name for a in node.names} & {"environ", "getenv"}
                ):
                    readers.add(str(path.relative_to(root)))
        assert readers == {"env.py"}

    def test_empty_means_unset_and_values_are_parsed(self, monkeypatch):
        from repro import env

        for name in env.resolved():
            monkeypatch.setenv(name, "")
        assert env.resolved() == {
            "REPRO_BACKEND": "serial", "REPRO_WORKERS": 2,
            "REPRO_DEADLINE_S": None, "REPRO_ADAPTIVE": False,
            "REPRO_EVENTS": "",
        }
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_DEADLINE_S", "2.5")
        monkeypatch.setenv("REPRO_ADAPTIVE", " Yes ")
        assert env.read("REPRO_WORKERS") == 3
        assert env.read("REPRO_DEADLINE_S") == 2.5
        assert env.read("REPRO_ADAPTIVE") is True
        assert env.read("REPRO_EVENTS", "e.jsonl") == "e.jsonl"
        for deleted in ("REPRO_ZERO_COPY", "REPRO_PRECISION"):
            with pytest.raises(KeyError):
                env.read(deleted)
