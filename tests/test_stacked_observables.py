"""Stack-native observables of both transport kernels.

Everything after the block LU is a stacked GEMM/LAPACK/ufunc call over
the energy axis.  These tests pin what that must not change: the dense
oracle (<= 1e-10), slice-of-stack == stack-of-one bit for bit (also when
the WF injection widths are ragged), per-energy invariant reports, the
sentinel sites and the ladder that heals them — and, structurally, that
no three-operand ``einsum`` and no per-energy eigendecomposition is left
on the ``solve_batch`` path.
"""

import sys

import numpy as np
import pytest

from repro.core import TransportCalculation
from repro.lattice import partition_into_slabs, rectangular_grid_device
from repro.negf import RGFSolver, dense_observables
from repro.negf.rgf import RGFResult, equal_width_groups
from repro.observability import InvariantMonitor, use_monitor
from repro.resilience import (
    FaultInjector,
    HealthSentinel,
    nan_like,
    non_finite,
    result_non_finite,
    use_sentinel,
)
from repro.tb import (
    BlockTridiagonalHamiltonian,
    build_device_hamiltonian,
    single_band_material,
)
from repro.wf import WFSolver

from tests.conftest import band_energy_grid, mini_device, random_device


def grid_system(n_x, n_yz, barrier=0.1):
    """Effective-mass wire of ``n_yz**2`` orbitals per slab with a barrier."""
    mat = single_band_material(m_rel=0.3, spacing_nm=0.25)
    s = rectangular_grid_device(0.25, n_x, n_yz, n_yz)
    dev = partition_into_slabs(s, 0.25, 0.25)
    pot = np.zeros(s.n_atoms)
    slab = dev.slab_of_atom()
    mid = dev.n_slabs // 2
    pot[(slab >= mid - 1) & (slab <= mid)] = barrier
    return build_device_hamiltonian(dev, mat, potential=pot)


def ragged_system(seed=7):
    """Random Hermitian device with 2-4-3 orbitals per slab and its leads."""
    rng = np.random.default_rng(seed)

    def rand(a, b):
        return rng.normal(size=(a, b)) + 1j * rng.normal(size=(a, b))

    def herm(m):
        a = rand(m, m)
        return 0.5 * (a + a.conj().T)

    sizes = [2, 4, 3]
    H = BlockTridiagonalHamiltonian(
        [herm(m) for m in sizes],
        [0.6 * rand(a, b) for a, b in zip(sizes[:-1], sizes[1:])],
    )
    leads = (
        (H.diagonal[0], 0.6 * rand(2, 2)), (H.diagonal[-1], 0.6 * rand(3, 3))
    )
    return H, leads


def fields(result):
    """Float fields of a kernel result, by name."""
    return {
        name: np.asarray(value) for name, value in vars(result).items()
        if value is not None
    }


def assert_results_identical(got, want):
    got, want = fields(got), fields(want)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


# ---------------------------------------------------------------------------
# (a) the GEMM contraction against the dense oracle
# ---------------------------------------------------------------------------

class TestDenseOracle:
    def check(self, H, leads, energies, **solver_kwargs):
        solver = RGFSolver(
            H, lead_left=leads[0], lead_right=leads[1], **solver_kwargs
        )
        for e, res in zip(energies, solver.solve_batch(energies)):
            ref = dense_observables(H, float(e), *leads)
            assert res.transmission == pytest.approx(
                ref["transmission"], abs=1e-10
            )
            for name in ("dos", "spectral_left", "spectral_right"):
                np.testing.assert_allclose(
                    getattr(res, name), ref[name], atol=1e-10, rtol=0,
                    err_msg=f"{name} at E={e}",
                )

    def test_ragged_blocks(self):
        H, leads = ragged_system()
        self.check(H, leads, np.linspace(-1.7, 1.9, 9))

    @pytest.mark.parametrize("n_yz", [1, 2, 5])
    def test_block_sizes_1_4_25(self, n_yz):
        H = grid_system(n_x=5, n_yz=n_yz)
        leads = (
            (H.diagonal[0], H.upper[0]), (H.diagonal[-1], H.upper[-1])
        )
        self.check(H, leads, band_energy_grid(H, n_energy=6))


# ---------------------------------------------------------------------------
# (b) slice of a stack == stack of one, bit for bit
# ---------------------------------------------------------------------------

class TestStackInvariance:
    def test_rgf_slice_is_stack_of_one(self):
        H = grid_system(n_x=6, n_yz=3)
        solver = RGFSolver(H)
        energies = band_energy_grid(H, n_energy=9)
        stack = solver.solve_batch(energies)
        for e, res in zip(energies, stack):
            assert_results_identical(solver.solve_batch([e])[0], res)
        for res, again in zip(stack[2:5], solver.solve_batch(energies[2:5])):
            assert_results_identical(again, res)

    @pytest.mark.parametrize("injection_tol_ev", [None, 1e-4])
    def test_wf_slice_is_stack_of_one(self, injection_tol_ev):
        H = grid_system(n_x=6, n_yz=3)
        solver = WFSolver(H, injection_tol_ev=injection_tol_ev)
        energies = band_energy_grid(H, n_energy=9)
        stack = solver.solve_batch(energies)
        for e, res in zip(energies, stack):
            assert_results_identical(solver.solve_batch([e])[0], res)

    def test_wf_ragged_injection_widths_do_not_couple_stack_mates(self):
        """Regression: padding every energy to the stack-wide channel
        count made 24 of these 35 slices depend on their stack-mates
        (BLAS GEMM is not bitwise invariant under RHS column count)."""
        solver = WFSolver(grid_system(n_x=12, n_yz=5), injection_tol_ev=1e-4)
        energies = np.linspace(0.5, 9.0, 35)
        stack = solver.solve_batch(energies)
        assert len({r.n_channels_left for r in stack}) >= 6  # ragged indeed
        for e, res in zip(energies, stack):
            assert_results_identical(solver.solve_batch([e])[0], res)

    def test_equal_width_groups_partition_the_stack(self):
        left = np.array([3, 0, 3, 1, 0, 3])
        right = np.array([3, 0, 2, 1, 0, 3])
        groups = equal_width_groups(left, right)
        assert sorted(np.concatenate(groups).tolist()) == list(range(6))
        assert [g.tolist() for g in groups] == [[1, 4], [3], [2], [0, 5]]

    @pytest.mark.parametrize("factorization", ["sparse", "banded"])
    @pytest.mark.parametrize("injection_tol_ev", [None, 1e-4])
    def test_wf_scalar_reference_shares_the_observables(
        self, factorization, injection_tol_ev
    ):
        """SuperLU / banded ``solve`` vs the stacked kernel: different
        factorisations, the one observables function, <= 1e-10."""
        H = grid_system(n_x=6, n_yz=3)
        scalar = WFSolver(
            H, factorization=factorization, injection_tol_ev=injection_tol_ev
        )
        energies = band_energy_grid(H, n_energy=7)
        for e, res in zip(energies, WFSolver(
            H, injection_tol_ev=injection_tol_ev
        ).solve_batch(energies)):
            one = fields(scalar.solve(float(e)))
            for name, value in fields(res).items():
                np.testing.assert_allclose(
                    one[name], value, atol=1e-10, rtol=0, err_msg=name
                )
            assert scalar.transmission(float(e)) == pytest.approx(
                res.transmission, abs=1e-10
            )


# ---------------------------------------------------------------------------
# (c) safety nets: per-energy invariants, sentinel sites, the ladder
# ---------------------------------------------------------------------------

class TestSafetyNets:
    @pytest.mark.parametrize("solver_cls,kernel", [
        (RGFSolver, "rgf"), (WFSolver, "wf"),
    ])
    def test_monitor_reports_each_energy(self, solver_cls, kernel):
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=5)
        # a density floor no spectral function can meet: every energy and
        # side must be reported, each with its own energy
        monitor = InvariantMonitor(tol_density=-1e6)
        with use_monitor(monitor):
            solver_cls(H).solve_batch(energies)
        reported = sorted(
            (dict(v.context)["energy"], dict(v.context)["side"])
            for v in monitor.violations
            if v.invariant == "density_nonnegative"
        )
        assert reported == sorted(
            (float(e), side) for e in energies for side in ("left", "right")
        )
        assert {dict(v.context)["kernel"] for v in monitor.violations} == {
            kernel
        }

    def test_monitor_flags_only_the_violating_energy(self):
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=5)
        clean = RGFSolver(H).solve_batch(energies)
        open_ = [r for r in clean if r.n_channels_left > 0]
        assert open_
        # a transmission tolerance only the largest T/N ratio can violate
        target = max(open_, key=lambda r: r.transmission)
        monitor = InvariantMonitor(
            tol_transmission=-(target.n_channels_left - target.transmission)
            - 1e-9
        )
        with use_monitor(monitor):
            RGFSolver(H).solve_batch(energies)
        flagged = {
            dict(v.context)["energy"] for v in monitor.violations
            if v.invariant == "transmission_bounds"
        }
        assert target.energy in flagged
        assert flagged <= {r.energy for r in open_}

    @pytest.mark.parametrize("solver_cls,site", [
        (RGFSolver, "rgf:nonfinite"), (WFSolver, "wf:nonfinite"),
    ])
    def test_poisoned_stack_trips_the_kernel_site(self, solver_cls, site):
        H = grid_system(n_x=5, n_yz=2)
        H.diagonal[2][0, 0] = np.nan
        sentinel = HealthSentinel(mode="contain")
        with use_sentinel(sentinel):
            results = solver_cls(H).solve_batch(
                band_energy_grid(H, n_energy=4)
            )
        assert sentinel.trips_since(0).get(site, 0) >= 1
        assert all(result_non_finite(r) for r in results)

    @pytest.mark.parametrize("method", ["rgf", "wf"])
    def test_ladder_heals_a_poisoned_kpoint_per_point(self, method):
        built = mini_device()
        pot = np.zeros(built.n_atoms)
        # pinned uniform: the rung count below is the 11-node grid's
        clean = TransportCalculation(
            built, method=method, n_energy=11, energy_mode="uniform"
        ).solve_bias(pot, 0.05)
        sentinel = HealthSentinel(mode="contain")
        with use_sentinel(sentinel):
            healed = TransportCalculation(
                built, method=method, n_energy=11, energy_mode="uniform",
                injector=FaultInjector(plan={("hblock", 0): "nan"}),
            ).solve_bias(pot, 0.05)
        assert healed.current_a == clean.current_a
        np.testing.assert_array_equal(
            healed.density_per_atom, clean.density_per_atom
        )
        assert healed.degradation.ladder_steps.get("per-point:robust") == 11
        assert not healed.degradation.quarantined_points
        assert sentinel.n_trips >= 11


class TestResultGuard:
    def results(self):
        H = grid_system(n_x=5, n_yz=2)
        e = float(band_energy_grid(H, n_energy=3)[1])
        return [RGFSolver(H).solve(e), WFSolver(H).solve(e)]

    def test_clean_results_pass(self):
        for res in self.results():
            assert not result_non_finite(res)
            assert not non_finite(res)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_poisoned_float_leaf_rejects_like_the_walker(self, bad):
        import dataclasses

        for res in self.results():
            for name, value in vars(res).items():
                if isinstance(value, np.ndarray):
                    poisoned = value.copy()
                    poisoned[-1] = bad
                elif isinstance(value, float):
                    poisoned = bad
                else:
                    continue  # channel counts carry no float
                broken = dataclasses.replace(res, **{name: poisoned})
                assert result_non_finite(broken), name
                assert non_finite(broken), name

    def test_nan_fault_payload_is_caught(self):
        for res in self.results():
            assert result_non_finite(nan_like(res))

    def test_oracle_rung_results_are_guarded_too(self):
        res = RGFResult(0.1, 0.5, np.ones(3), np.ones(3), np.ones(3), 1, 1)
        assert not result_non_finite(res)
        res.spectral_right[1] = np.nan
        assert result_non_finite(res)


# ---------------------------------------------------------------------------
# (d) structure: no scalar-loop contraction, no per-energy eigensolve
# ---------------------------------------------------------------------------

# Explicit ids keep each case's name stable: kwargs1 belonged to the
# deleted mixed-precision RGF case, and the WF cases keep their indices.
KERNELS = [
    pytest.param(RGFSolver, {}, id="RGFSolver-kwargs0"),
    pytest.param(WFSolver, {}, id="WFSolver-kwargs2"),
    pytest.param(WFSolver, {"injection_tol_ev": 1e-4}, id="WFSolver-kwargs3"),
]


class TestStructure:
    @pytest.mark.parametrize("solver_cls,kwargs", KERNELS)
    def test_no_three_operand_einsum(self, monkeypatch, solver_cls, kwargs):
        calls = []
        real = np.einsum

        def spy(*operands, **kw):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            n_arrays = sum(not isinstance(op, str) for op in operands)
            calls.append((caller, n_arrays))
            return real(*operands, **kw)

        monkeypatch.setattr(np, "einsum", spy)
        H = grid_system(n_x=5, n_yz=2)
        solver_cls(H, **kwargs).solve_batch(band_energy_grid(H, n_energy=6))
        offenders = [
            c for c in calls
            if c[0].startswith(("repro.negf", "repro.wf")) and c[1] >= 3
        ]
        assert not offenders

    @pytest.mark.parametrize("solver_cls,kwargs", KERNELS)
    def test_eigensolves_do_not_grow_with_the_stack(
        self, monkeypatch, solver_cls, kwargs
    ):
        counts = {"eigh": 0, "eigvalsh": 0}

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapper(*args, **kw):
                counts[name] += 1
                return real(*args, **kw)

            return wrapper

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name))
        # inside the lead band every energy injects the same widths, so
        # the count is that of one group whatever the stack length
        H = random_device(3)
        solver = solver_cls(H, eta=1e-5, **kwargs)
        per_length = {}
        for n_energy in (2, 16):
            counts.update(eigh=0, eigvalsh=0)
            solver.solve_batch(np.linspace(-0.2, 0.2, n_energy))
            per_length[n_energy] = dict(counts)
        assert per_length[2] == per_length[16]
        assert 0 < sum(per_length[16].values()) <= 4


# ---------------------------------------------------------------------------
# the CI guard itself: scripts/profile_kernels.py
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile_kernels():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts/profile_kernels.py"
    spec = importlib.util.spec_from_file_location("profile_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestProfileKernelsScript:
    def test_sites_cover_the_solve(self, profile_kernels):
        """C time lands in the calling repro / numpy.linalg frame and the
        sites add up to the profiled wall time."""
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=4)
        seconds = profile_kernels.profile(RGFSolver(H), energies, repeats=1)
        assert {
            "numpy.linalg.inv", "numpy.linalg.eigvalsh", "negf.rgf:_row_sums",
            "negf.rgf:_contact_density",
            "solvers.block_tridiagonal:BlockTridiagLU.block_column",
        } <= set(seconds)
        assert not any(site.startswith("numpy._core") for site in seconds)
        assert all(s >= 0.0 for s in seconds.values())
        # whatever the kernel modules do outside the column GEMM and the
        # assembly counts as non-BLAS contraction work, wherever it lives
        for site in ("negf.rgf:_row_sums", "wf.qtbm:_inner_imag",
                     "negf.rgf:RGFSolver.kernel_stage.<locals>.<listcomp>",
                     "wf.qtbm:WFSolver._observables"):
            assert profile_kernels.category_of(site) == (
                profile_kernels.OBSERVABLES
            )
        assert profile_kernels.category_of("negf.rgf:_contact_density") == (
            "contraction GEMM"
        )

    @pytest.mark.parametrize("share,status", [(0.04, 0), (0.06, 1)])
    def test_check_trips_on_a_slow_non_blas_site(
        self, profile_kernels, monkeypatch, capsys, share, status
    ):
        def fake_profile(solver, energies, repeats):
            return {"wf.qtbm:_row_norms": share, "numpy.linalg.inv": 1 - share}

        monkeypatch.setattr(profile_kernels, "profile", fake_profile)
        monkeypatch.setattr(
            profile_kernels, "wide_hamiltonian",
            lambda: grid_system(n_x=4, n_yz=1),
        )
        assert profile_kernels.main(["--check"]) == status
        assert profile_kernels.main([]) == 0  # the table alone never fails
        assert "call sites" in capsys.readouterr().out
