"""Stack-native observables of both transport kernels.

Everything after the block LU is a stacked GEMM/LAPACK/ufunc call over
the energy axis.  These tests pin what that must not change: the dense
oracle (<= 1e-10), slice-of-stack == stack-of-one bit for bit (also when
the WF injection widths are ragged), per-energy invariant reports, the
sentinel sites, the ``finite`` mask of a result stack and the ladder that
heals what it rejects — and, structurally, that no three-operand
``einsum`` and no per-energy eigendecomposition is left on the
``solve_batch`` path, and that the driver accepts and charges a k-point
as a stack, not energy by energy.
"""

import sys

import numpy as np
import pytest

from repro.core import TransportCalculation
from repro.core.transport import _KPoint
from repro.lattice import partition_into_slabs, rectangular_grid_device
from repro.negf import RGFSolver, dense_observables
from repro.negf.rgf import equal_width_groups
from repro.observability import MetricsRegistry, use_run
from repro.perf.flops import sancho_rubio_flops, wf_solve_flops
from repro.physics.grids import uniform_grid
from repro.resilience import (
    FaultInjector,
    HealthSentinel,
    dense_oracle_solve,
    nan_like,
    non_finite,
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
            assert_results_identical(solver.solve(e), res)
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
            assert_results_identical(solver.solve(e), res)

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


# ---------------------------------------------------------------------------
# (c) safety nets: per-energy invariants, sentinel sites, the ladder
# ---------------------------------------------------------------------------

class TestSafetyNets:
    @pytest.mark.parametrize("solver_cls,kernel", [
        (RGFSolver, "rgf"), (WFSolver, "wf"),
    ])
    def test_monitor_reports_each_energy(self, solver_cls, kernel,
                                         set_constant):
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=5)
        # a density floor no spectral function can meet: every energy and
        # side must be reported, each with its own energy
        set_constant(HealthSentinel, "TOL_DENSITY", -1e6)
        monitor = HealthSentinel()
        with use_sentinel(monitor):
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

    @pytest.mark.parametrize("solver_cls", [RGFSolver, WFSolver])
    def test_monitor_ledger_does_not_depend_on_the_stacking(self, solver_cls,
                                                            set_constant):
        """One reduction per invariant over a stack records what stacks of
        one record: the same violations in the same order, each with its
        energy, and the same ``invariant.*`` counters."""
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=9)
        solver = solver_cls(H)
        # tolerances some energies fail and others pass
        floor = np.median(solver.solve_batch(energies).spectral_left.min(1))
        set_constant(HealthSentinel, "TOL_TRANSMISSION", -0.01)
        set_constant(HealthSentinel, "TOL_DENSITY", -floor)
        ledgers = []
        for stacks in ([energies], [[e] for e in energies]):
            monitor = HealthSentinel()
            registry = MetricsRegistry()
            with use_run(sentinel=monitor, metrics=registry):
                for stack in stacks:
                    solver.solve_batch(stack)
            ledgers.append((monitor.violations, {
                key: value
                for key, value in registry.snapshot().counters.items()
                if key.startswith("invariant.")
            }))
        assert ledgers[0] == ledgers[1]
        violations, counters = ledgers[0]
        assert {v.invariant for v in violations} == {
            "transmission_bounds", "density_nonnegative",
        }
        assert counters["invariant.checks{invariant=transmission_bounds}"] > 0
        assert counters["invariant.checks{invariant=density_nonnegative}"] > 0

    def test_monitor_flags_only_the_violating_energy(self, set_constant):
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=5)
        clean = RGFSolver(H).solve_batch(energies)
        open_ = [r for r in clean if r.n_channels_left > 0]
        assert open_
        # a transmission tolerance only the largest T/N ratio can violate
        target = max(open_, key=lambda r: r.transmission)
        set_constant(
            HealthSentinel, "TOL_TRANSMISSION",
            -(target.n_channels_left - target.transmission) - 1e-9,
        )
        monitor = HealthSentinel()
        with use_sentinel(monitor):
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
        assert not results.finite.any()

    @pytest.mark.parametrize("method", ["rgf", "wf"])
    def test_ladder_heals_a_poisoned_kpoint_per_point(self, method):
        """A NaN block in the k-point's H: its 11-node stack fails as one
        (a factor and a kernel trip per node, one ``chunk:per-point``),
        then each node alone trips both again on the configured solver
        and heals on ``per-point:robust``, built on a fresh H — 22 + 22
        trips (the ledger counts nodes, however they were stacked),
        1 + 11 ladder steps."""
        built = mini_device()
        pot = np.zeros(built.n_atoms)
        # uniform: the counts below are the 11-node grid's
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
        assert healed.degradation.to_dict() == {
            "ladder_steps": {"chunk:per-point": 1, "per-point:robust": 11},
            "sentinel_trips": {
                "block_lu:nonfinite": 22, f"{method}:nonfinite": 22,
            },
            "quarantined_points": [], "reweighted_grids": 0,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            "injected_faults": 0, "organic_faults": 0, "retries": 0,
            "rank_failures": 0, "requeued_tasks": 0, "resumed_points": 0,
            "total_events": 56,
        }
        assert sentinel.n_trips == 44


class TestResultGuard:
    """The ``finite`` mask of a result stack: the verdict the driver
    accepts rows by and every heal rung reads."""

    def stacks(self):
        H = grid_system(n_x=5, n_yz=2)
        energies = band_energy_grid(H, n_energy=3)
        return [RGFSolver(H).solve_batch(energies),
                WFSolver(H).solve_batch(energies)]

    def test_clean_results_pass(self):
        for stack in self.stacks():
            assert stack.finite.tolist() == [True] * len(stack)
            assert not any(non_finite(row) for row in stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_poisoned_float_leaf_rejects_like_the_walker(self, bad):
        """One bad entry in any float field of row b rejects row b alone,
        as the recursive ``non_finite`` walker rejects that row."""
        for stack in self.stacks():
            arrays = {k: v for k, v in vars(stack).items() if k != "finite"}
            floats = [k for k, v in arrays.items() if v.dtype.kind == "f"]
            assert {"transmission", "dos", "spectral_left"} <= set(floats)
            for name in floats:  # channel counts carry no float
                for b in range(len(stack)):
                    poisoned = arrays[name].copy()
                    poisoned[(b,) + (-1,) * (poisoned.ndim - 1)] = bad
                    broken = type(stack).checked(**{**arrays, name: poisoned})
                    assert broken.finite.tolist() == [
                        row != b for row in range(len(stack))
                    ], name
                    assert [non_finite(row) for row in broken] == [
                        row == b for row in range(len(stack))
                    ], name

    def test_nan_fault_payload_is_caught(self):
        for stack in self.stacks():
            assert not nan_like(stack).finite.any()

    def test_oracle_rung_results_are_guarded_too(self, monkeypatch):
        from repro.negf import dense_ref

        H = grid_system(n_x=5, n_yz=2)
        e = float(band_energy_grid(H, n_energy=3)[1])
        clean = dense_oracle_solve(H, e)
        assert len(clean) == 1 and clean.finite.tolist() == [True]
        assert clean[0].transmission == pytest.approx(
            RGFSolver(H).solve(e).transmission, abs=1e-10
        )
        real = dense_ref.dense_stage

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            out["spectral_right"][1] = np.nan
            return out

        monkeypatch.setattr(dense_ref, "dense_stage", poisoned)
        assert dense_oracle_solve(H, e).finite.tolist() == [False]


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
# (e) the driver consumes stacks: accept by mask, heal the rejected rows,
#     charge once per stack
# ---------------------------------------------------------------------------

class _PoisonedRow:
    """Kernel mix-in: the row of energy ``poisoned`` leaves the kernel NaN
    (its energy is NaN on the way in), a breakdown confined to one energy
    of a clean stack.  An instance attribute, so the pickled solver
    carries it into process-pool workers."""

    poisoned = None

    def kernel_stage(self, energies, sigma_l, sigma_r):
        energies = np.where(
            np.asarray(energies) == self.poisoned, np.nan, energies
        )
        return super().kernel_stage(energies, sigma_l, sigma_r)


class _PoisonedRGF(_PoisonedRow, RGFSolver):
    pass


class _PoisonedWF(_PoisonedRow, WFSolver):
    pass


class TestStackedDriver:
    N_ENERGY = 11
    POISONED = 5

    def calculation(self, method, backend, injector=None):
        return TransportCalculation(
            mini_device(), method=method, n_energy=self.N_ENERGY,
            energy_mode="uniform", backend=backend,
            workers=2 if backend == "process" else None, injector=injector,
        )

    @pytest.mark.parametrize("backend,planted", [
        pytest.param("serial", "kernel", id="serial"),
        pytest.param("process", "kernel", id="process"),
        pytest.param("serial", "injector", id="serial-injector"),
    ])
    @pytest.mark.parametrize("method", ["rgf", "wf"])
    def test_one_poisoned_row_alone_is_healed(
        self, monkeypatch, method, backend, planted
    ):
        """One NaN row in a clean stack — from a kernel that poisons it
        on every solve (``kernel``: it climbs to ``per-point:robust``) or
        from a transient planted ``"energy"`` fault (``injector``: it
        fired on the stacked attempt, so the first rung heals it) — costs
        one stacked dispatch and sends only that energy down the ladder."""
        pot = np.zeros(mini_device().n_atoms)
        clean = self.calculation(method, backend).solve_bias(pot, 0.05)
        e_bad = float(clean.energy_grid.energies[self.POISONED])

        def injector():
            if planted == "injector":
                return FaultInjector(plan={("energy", (0, e_bad)): "nan"})
            return None

        if planted == "kernel":
            real = TransportCalculation._make_solver

            def make_solver(calc, H, surface_method="sancho"):
                # the configured solver poisons e_bad; the robust rung is
                # clean
                if surface_method != "sancho":
                    return real(calc, H, surface_method)
                solver = (
                    _PoisonedRGF if calc.method == "rgf" else _PoisonedWF
                )(H, eta=calc.eta)
                solver.poisoned = e_bad
                return solver

            monkeypatch.setattr(
                TransportCalculation, "_make_solver", make_solver
            )
        heal = _KPoint._heal
        sent_down = []

        def recording_heal(kp, e):
            sent_down.append(e)
            return heal(kp, e)

        dispatch = TransportCalculation._run_backend
        dispatched = []

        def recording_dispatch(calc, solver, energies):
            dispatched.append(len(energies))
            return dispatch(calc, solver, energies)

        monkeypatch.setattr(_KPoint, "_heal", recording_heal)
        monkeypatch.setattr(
            TransportCalculation, "_run_backend", recording_dispatch
        )
        with use_sentinel(HealthSentinel(mode="contain")):
            healed = self.calculation(method, backend, injector()).solve_bias(
                pot, 0.05
            )
        assert sent_down == [e_bad]
        assert dispatched == [self.N_ENERGY]  # one k-point, one dispatch
        climbed = {"per-point:robust": 1} if planted == "kernel" else {}
        assert healed.degradation.ladder_steps == {
            "chunk:per-point": 1, **climbed,
        }
        assert not healed.degradation.quarantined_points
        np.testing.assert_array_equal(healed.transmission, clean.transmission)
        np.testing.assert_array_equal(healed.channels, clean.channels)
        assert healed.current_a == clean.current_a
        np.testing.assert_array_equal(
            healed.density_per_atom, clean.density_per_atom
        )
        assert healed.flops.counts == clean.flops.counts

        # sentinel off: the rejected row takes the first rung only — the
        # poisoning kernel's NaN is accepted, as before the driver read
        # stacks; the transient fault has already fired
        with use_sentinel(HealthSentinel(mode="off")):
            off = self.calculation(method, backend, injector()).solve_bias(
                pot, 0.05
            )
        assert off.degradation.ladder_steps == {}
        assert off.flops.counts == clean.flops.counts
        if planted == "kernel":
            assert np.isnan(off.transmission[0, self.POISONED])
            assert np.isnan(off.current_a)
        else:
            assert off.current_a == clean.current_a

    def test_wf_flops_are_charged_per_distinct_channel_count(self):
        tc = self.calculation("wf", "serial")
        pot = np.zeros(tc.built.n_atoms)
        lo = float(tc.energy_grid(pot, 0.05).energies[0])
        # three subbands of the 2x2 wire: 0, 1 and 3 open channels
        res = tc.solve_bias(
            pot, 0.05, energy_grid=uniform_grid(lo, lo + 12.0, self.N_ENERGY)
        )
        channels = res.channels[0].tolist()
        assert len({max(c, 1) for c in channels}) >= 2
        H = tc.hamiltonian(pot)
        n, m = H.n_blocks, int(H.block_sizes.max())
        assert res.flops.counts == {
            "surface_gf": sum(2 * sancho_rubio_flops(m, 25) for _ in channels),
            "wf": sum(wf_solve_flops(n, m, max(c, 1)) for c in channels),
        }

    @pytest.mark.parametrize("method", ["rgf", "wf"])
    def test_accepting_a_kpoint_does_not_loop_over_energies(
        self, monkeypatch, method
    ):
        """The guard against a per-energy acceptance loop coming back:
        one k-point at 11 and at 513 energies (one sub-stack each) issues
        the same number of ``np.isfinite`` calls."""
        real = np.isfinite
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        pot = np.zeros(mini_device().n_atoms)
        per_grid = {}
        for n_energy in (11, 513):
            tc = TransportCalculation(
                mini_device(), method=method, n_energy=n_energy,
                energy_mode="uniform",
            )
            assert len(tc.built.momentum_grid) == 1
            assert n_energy <= tc.stack_length
            monkeypatch.setattr(np, "isfinite", counting)
            calls.clear()
            tc.solve_bias(pot, 0.05)
            monkeypatch.setattr(np, "isfinite", real)
            per_grid[n_energy] = len(calls)
        assert per_grid[11] == per_grid[513] > 0


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
        # the run's sentinel checks every stack: a health check, not a
        # contraction
        monitor = "observability.invariants:HealthSentinel._gamma"
        assert monitor in seconds
        assert profile_kernels.category_of(monitor) == "health checks"

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
