"""Numerical-health sentinel, degradation-ladder and elastic-backend tests.

The contracts under test:

* sentinels are **pure observers** — a run that trips nothing is
  bit-identical to a run with the sentinel off;
* non-finite values seeded anywhere in the hot path (Hamiltonian blocks,
  contact self-energies, Poisson right-hand sides) are either raised as
  typed errors (strict) or contained, healed and accounted (contain) —
  never silently propagated into observables;
* a hung backend worker is detected by deadline and recovered by an
  orderly pool restart — also inside a transport solve — and a crashed
  one breaks only its own call.

The property-based sections use hypothesis to sweep the *where* (which
block, which index, which non-finite flavour) rather than pinning one
hand-picked corruption site.
"""

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.errors import NumericalBreakdownError, SurfaceGFConvergenceError
from repro.negf import Contacts
from repro.negf.rgf import RGFSolver
from repro.observability.invariants import Ledger
from repro.parallel.backend import ProcessBackend, _resolve_deadline
from repro.poisson.nonlinear import NonlinearPoisson
from repro.resilience import (
    DegradationReport,
    FaultInjector,
    HealthSentinel,
    condition_estimate,
    corrupt_hamiltonian,
    get_sentinel,
    nan_like,
    non_finite,
    use_sentinel,
)
from repro.resilience import degrade
from repro.tb.hamiltonian import BlockTridiagonalHamiltonian

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def mini_built():
    """The 10-slab grid FET the transport-level drills solve."""
    return build_device(DeviceSpec(
        n_x=10, n_y=2, n_z=2, spacing_nm=0.25, source_cells=3,
        drain_cells=3, gate_cells=(4, 6), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    ))


def _chain_hamiltonian(n_blocks=8, t=1.0):
    """Single-orbital tight-binding chain: the smallest honest device."""
    diag = [np.array([[2.0 * t]], dtype=complex) for _ in range(n_blocks)]
    upper = [np.array([[-t]], dtype=complex) for _ in range(n_blocks - 1)]
    return BlockTridiagonalHamiltonian(diag, upper)


class TestConditionEstimate:
    def test_identity_is_one(self):
        eye = np.eye(4)
        assert condition_estimate(eye, eye) == pytest.approx(1.0)

    def test_diagonal_matrix_exact(self):
        a = np.diag([1.0, 1e-8])
        assert condition_estimate(a, np.diag([1.0, 1e8])) == pytest.approx(1e8)

    def test_batch_reports_worst(self):
        good = np.eye(2)
        bad = np.diag([1.0, 1e-10])
        a = np.stack([good, bad])
        a_inv = np.stack([good, np.diag([1.0, 1e10])])
        assert condition_estimate(a, a_inv) == pytest.approx(1e10)

    def test_nonfinite_factor_is_inf(self):
        a = np.array([[np.nan, 0.0], [0.0, 1.0]])
        assert condition_estimate(a, np.eye(2)) == float("inf")

    def test_empty_is_zero(self):
        assert condition_estimate(np.zeros((0, 2, 2)), np.zeros((0, 2, 2))) == 0.0


class TestHealthSentinel:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            HealthSentinel(mode="panic")

    def test_mode_flags(self):
        assert not HealthSentinel(mode="off").enabled
        assert HealthSentinel(mode="contain").enabled
        assert not HealthSentinel(mode="contain").strict
        assert HealthSentinel(mode="strict").strict

    def test_contain_records_without_raising(self):
        s = HealthSentinel(mode="contain")
        assert not s.check_finite("kernel", np.array([1.0, np.nan]))
        assert s.check_finite("kernel", np.arange(3.0))
        assert s.n_trips == 1
        assert s.trips_since(0) == {"kernel:nonfinite": 1}
        [event] = s.events_since(0)
        assert event.site == "kernel"
        assert event.kind == "nonfinite"

    def test_contain_is_a_pure_observer_of_a_clean_solve(self, mini_built):
        """With nothing to trip, a transport solve under a ``contain``
        sentinel is the solve with the sentinel off, bit for bit, and its
        account is empty."""
        potential = np.zeros(mini_built.n_atoms)

        def solve(mode):
            with use_sentinel(HealthSentinel(mode=mode)):
                return TransportCalculation(
                    mini_built, method="wf", n_energy=13
                ).solve_bias(potential, 0.1)

        off, contain = solve("off"), solve("contain")
        np.testing.assert_array_equal(contain.transmission, off.transmission)
        np.testing.assert_array_equal(
            contain.density_per_atom, off.density_per_atom
        )
        assert contain.current_a == off.current_a
        assert contain.degradation.total_events == 0

    def test_strict_raises_typed(self):
        s = HealthSentinel(mode="strict")
        with pytest.raises(NumericalBreakdownError):
            s.check_finite("kernel", np.array([np.inf]))

    def test_condition_and_residual_checks(self, set_constant):
        set_constant(HealthSentinel, "COND_THRESHOLD", 1e6)
        set_constant(HealthSentinel, "RESIDUAL_THRESHOLD", 1e-8)
        s = HealthSentinel(mode="contain")
        assert s.check_condition("lu", 10.0)
        assert not s.check_condition("lu", 1e7)
        assert not s.check_condition("lu", float("nan"))
        assert s.check_residual("gf", 1e-12)
        assert not s.check_residual("gf", 1e-3)
        assert s.trips_since(0) == {
            "lu:ill_conditioned": 1,
            "lu:nonfinite": 1,
            "gf:residual": 1,
        }

    def test_marker_windows_nest(self):
        s = HealthSentinel(mode="contain")
        s.trip("outer", "nonfinite")
        inner = s.marker()
        s.trip("inner", "nonfinite")
        assert s.trips_since(inner) == {"inner:nonfinite": 1}
        assert s.trips_since(0) == {
            "outer:nonfinite": 1, "inner:nonfinite": 1,
        }

    def test_ledger_bounded_counts_unbounded(self, set_constant):
        set_constant(Ledger, "MAX_RECORDS", 4)
        s = HealthSentinel(mode="contain")
        for _ in range(10):
            s.trip("site", "nonfinite")
        assert s.n_trips == 10
        assert len(s.events_since(0)) == 4
        # per-event details past the bound are dropped, counts keep going
        assert s.trips_since(0) == {"site:nonfinite": 10}
        s.reset()
        assert s.n_trips == 0

    def test_use_sentinel_restores_previous(self):
        before = get_sentinel()
        replacement = HealthSentinel(mode="strict")
        with use_sentinel(replacement):
            assert get_sentinel() is replacement
        assert get_sentinel() is before

    def test_summary_text(self):
        s = HealthSentinel(mode="contain")
        assert "no trips" in s.summary()
        s.trip("lu", "ill_conditioned", value=1e13)
        assert "lu:ill_conditioned=1" in s.summary()


class TestBlockLUSentinelSite:
    """One class reports one site: a 2-D factorisation, a stack of one
    and a stack of N are guarded by the same vectorised check."""

    @staticmethod
    def _system(n_batch):
        rng = np.random.default_rng(41)
        diag = [rng.normal(size=(n_batch, 2, 2)) + 8.0 * np.eye(2)
                for _ in range(3)]
        upper = [rng.normal(size=(2, 2)) + 0j for _ in range(2)]
        return diag, upper

    @pytest.mark.parametrize("entry", ["2d", "stack-of-1", "stack-of-5"])
    @pytest.mark.parametrize("kind", ["nonfinite", "ill_conditioned"])
    def test_bad_slice_trips_block_lu(self, entry, kind):
        from repro.solvers import BlockTridiagLU

        def enter(diag):
            return [d[0] for d in diag] if entry == "2d" else diag

        n_batch = 5 if entry == "stack-of-5" else 1
        healthy, upper = self._system(n_batch)
        bad, _ = self._system(n_batch)
        # poison only the *last* slice: the worst slice decides
        if kind == "nonfinite":
            bad[1][-1, 0, 0] = np.nan
        else:
            bad[0][-1] = np.diag([1.0, 1e-14])
        s = HealthSentinel(mode="contain")
        with use_sentinel(s):
            BlockTridiagLU(enter(healthy), upper)
            assert s.n_trips == 0
            BlockTridiagLU(enter(bad), upper)
        assert s.trips_since(0) == {f"block_lu:{kind}": 1}

    @pytest.mark.parametrize("entry", ["2d", "stack-of-5"])
    @pytest.mark.parametrize("poison", ["nan", "inf", "cond-1e13", "none"])
    def test_ledger_equals_the_two_pass_check(self, entry, poison):
        """The check reads finiteness off the 1-norms it needs anyway;
        kind, detail and value of every trip equal those of the check it
        replaced (an ``isfinite`` pass and ``condition_estimate`` a slab)."""
        from repro.solvers import BlockTridiagLU

        diag, upper = self._system(5)
        if poison == "cond-1e13":
            diag[0][-1] = np.diag([1.0, 1e-13])
        elif poison != "none":
            diag[1][-1, 0, 0] = float(poison)
        if entry == "2d":
            diag = [d[-1] for d in diag]
        got, want = HealthSentinel(mode="contain"), HealthSentinel(mode="contain")
        with use_sentinel(got):
            lu = BlockTridiagLU(diag, upper)
        cond = 0.0
        for d, dinv in zip(diag, lu._dinv):
            if not np.all(np.isfinite(dinv)):
                want.trip(
                    "block_lu", "nonfinite", detail="non-finite LU factor block"
                )
                break
            cond = max(cond, condition_estimate(d, dinv))
        else:
            want.check_condition("block_lu", cond, detail="block-LU factor")
        assert want.n_trips == (poison != "none")

        def ledger(sentinel):
            return [
                (e.site, e.kind, e.detail, repr(e.value))
                for e in sentinel.events_since(0)
            ]

        assert ledger(got) == ledger(want)


NONFINITE = st.sampled_from([np.nan, np.inf, -np.inf])


class TestNonFinitePropagationProperties:
    @PROPERTY_SETTINGS
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1, max_size=16,
        ),
        bad=st.one_of(st.none(), NONFINITE),
        index=st.integers(min_value=0, max_value=15),
    )
    def test_check_finite_trips_iff_nonfinite_present(
        self, values, bad, index
    ):
        arr = np.array(values, dtype=float)
        if bad is not None:
            arr[index % len(arr)] = bad
        s = HealthSentinel(mode="contain")
        ok = s.check_finite("prop", arr)
        assert ok == (bad is None)
        assert s.n_trips == (0 if bad is None else 1)

    @PROPERTY_SETTINGS
    @given(
        payload=st.dictionaries(
            st.sampled_from(["a", "b", "c"]),
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    max_size=4,
                ),
                st.text(max_size=4),
            ),
            min_size=1,
        )
    )
    def test_nan_like_always_detected_by_non_finite(self, payload):
        has_numeric = any(
            isinstance(v, float)
            or (isinstance(v, list) and len(v) > 0)
            for v in payload.values()
        )
        poisoned = nan_like(payload)
        assert non_finite(poisoned) == has_numeric
        # non-numeric leaves survive corruption untouched
        for key, value in payload.items():
            if isinstance(value, str):
                assert poisoned[key] == value

    @PROPERTY_SETTINGS
    @given(
        block=st.integers(min_value=1, max_value=6),
        bad=NONFINITE,
    )
    def test_nan_in_hamiltonian_block_strict_raises_typed(self, block, bad):
        # seed a non-finite entry into an *interior* diagonal block (the
        # lead blocks are owned by the surface-GF ladder, tested below)
        H = _chain_hamiltonian(n_blocks=8)
        H.diagonal[block][0, 0] = bad
        solver = RGFSolver(H, eta=1e-6)
        with use_sentinel(HealthSentinel(mode="strict")):
            with pytest.raises(NumericalBreakdownError):
                solver.solve(0.5)

    @PROPERTY_SETTINGS
    @given(block=st.integers(min_value=1, max_value=6), bad=NONFINITE)
    def test_nan_in_hamiltonian_block_contain_trips(self, block, bad):
        H = _chain_hamiltonian(n_blocks=8)
        H.diagonal[block][0, 0] = bad
        solver = RGFSolver(H, eta=1e-6)
        sentinel = HealthSentinel(mode="contain")
        with use_sentinel(sentinel):
            res = solver.solve(0.5)
        # contained: no exception, and the corruption is recorded.  A NaN
        # must also poison the result (never a silently wrong number); an
        # inf block inverts to ~0, so there only the trip is guaranteed.
        assert sentinel.n_trips >= 1
        if np.isnan(bad):
            assert non_finite(res)


    @pytest.mark.parametrize("poisoned,side", [
        (("left",), "left"), (("right",), "right"), (("left", "right"), "left"),
    ])
    def test_nan_in_a_lead_block_trips_once_with_its_side(self, poisoned, side):
        """Both leads decimate as one stack (left slices first): the trip
        and the typed error still name the lead that is poisoned, at its
        first energy — a left failure before a right one."""
        H = _chain_hamiltonian(n_blocks=4)
        leads = {"left": (H.diagonal[0], H.upper[0]),
                 "right": (H.diagonal[-1], H.upper[-1])}
        for name in poisoned:
            leads[name] = (np.full((1, 1), np.nan + 0j), leads[name][1])
        contacts = Contacts(
            H, lead_left=leads["left"], lead_right=leads["right"], eta=1e-6
        )
        energies = np.array([0.7, -3.0, 0.1])
        sentinel = HealthSentinel(mode="contain")
        with use_sentinel(sentinel):
            with pytest.raises(SurfaceGFConvergenceError) as info:
                contacts.sigma_stacks(energies)
        assert info.value.energy == energies[0]
        assert f"side = {side}" in str(info.value)
        (event,) = sentinel.events_since(0)
        assert (event.site, event.kind) == ("surface_gf", "nonfinite")
        assert f"side={side} E=0.7" in event.detail


class _PoisonedCharge:
    """Charge model returning a non-finite density (a poisoned rank)."""

    def __init__(self, bad=np.nan):
        self.bad = bad

    def density(self, phi):
        return np.full_like(phi, self.bad)

    def d_density_d_phi(self, phi):
        return np.zeros_like(phi)


class TestPoissonRHSPoisoning:
    @pytest.fixture(scope="class")
    def poisson(self):
        from repro.core import DeviceSpec, build_device

        built = build_device(DeviceSpec(
            n_x=8, n_y=2, n_z=2, spacing_nm=0.25, source_cells=2,
            drain_cells=2, gate_cells=(3, 5), donor_density_nm3=0.05,
            material_params={"m_rel": 0.3},
        ))
        return NonlinearPoisson(
            built.poisson_grid, built.eps_r,
            np.zeros(built.poisson_grid.n_nodes),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["contain", "strict"])
    def test_nonfinite_rhs_raises_typed_in_both_modes(
        self, poisson, bad, mode
    ):
        sentinel = HealthSentinel(mode=mode)
        with use_sentinel(sentinel):
            with pytest.raises(NumericalBreakdownError):
                poisson.solve(_PoisonedCharge(bad), max_iter=5)
        assert sentinel.trips_since(0).get("poisson:nonfinite", 0) >= 1

    def test_sentinel_off_preserves_legacy_behaviour(self, poisson):
        # with the sentinel off the historical code path runs unchecked;
        # it must at least not loop forever
        with use_sentinel(HealthSentinel(mode="off")):
            result = poisson.solve(_PoisonedCharge(), max_iter=3)
        assert not result.converged


# ----------------------------------------------------------------------
# elastic process backend: deadline, pool restart, crashed child


def _sleep_in_child_process(item):
    """Picklable; hangs only inside a pool child process."""
    if item == "hang" and multiprocessing.parent_process() is not None:
        time.sleep(30.0)
    return f"done:{item}"


def _exit_in_child_process(item):
    """Picklable; kills its pool child process outright."""
    if item == "exit" and multiprocessing.parent_process() is not None:
        os._exit(1)
    return f"done:{item}"


class TestDeadlineResolution:
    def test_nonpositive_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_S", "0.0")
        assert _resolve_deadline() is None
        monkeypatch.setenv("REPRO_DEADLINE_S", "-1.0")
        assert _resolve_deadline() is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEADLINE_S", "2.5")
        assert _resolve_deadline() == 2.5
        monkeypatch.setenv("REPRO_DEADLINE_S", "")
        assert _resolve_deadline() is None
        monkeypatch.delenv("REPRO_DEADLINE_S")
        assert _resolve_deadline() is None


class TestProcessBackendHangRecovery:
    def test_hung_child_triggers_pool_restart(self, monkeypatch):
        # warm the pool first so spawn latency doesn't eat the deadline
        ProcessBackend(workers=2).map(_sleep_in_child_process, ["a", "b"])
        backend = ProcessBackend(workers=2)
        monkeypatch.setenv("REPRO_DEADLINE_S", "2.0")
        out = backend.map(_sleep_in_child_process, ["a", "hang", "b"])
        monkeypatch.delenv("REPRO_DEADLINE_S")
        assert out == ["done:a", "done:hang", "done:b"]
        assert backend.stragglers >= 1
        assert backend.pool_restarts >= 1
        # the replacement pool is healthy again
        again = ProcessBackend(workers=2).map(
            _sleep_in_child_process, ["x", "y"]
        )
        assert again == ["done:x", "done:y"]

    def test_clean_path_untouched_without_deadline(self):
        backend = ProcessBackend(workers=2)
        out = backend.map(_sleep_in_child_process, ["a", "b"])
        assert out == ["done:a", "done:b"]
        assert backend.elastic_stats() == {
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
        }

    def test_hung_worker_heals_a_transport_solve(self, mini_built,
                                                 monkeypatch):
        """A ``"worker"`` hang planted in a transport solve on an elastic
        pool: the fault is keyed ``(k index, first energy of the call)``,
        so it hangs the worker solving chunk 0 of k-point 0 for longer
        than the deadline.  The deadline marks the straggler, the pool
        restarts, the chunk is salvaged, and the outputs are the serial
        solve's, bit for bit."""
        potential = np.zeros(mini_built.n_atoms)
        clean = TransportCalculation(
            mini_built, method="wf", n_energy=13, backend="serial"
        ).solve_bias(potential, 0.1)
        e_first = float(clean.energy_grid.energies[0])
        injector = FaultInjector(
            plan={("worker", (0, e_first)): "hang"}, hang_seconds=3.0
        )
        elastic = ProcessBackend(workers=2)
        # warm the pool so worker spawn latency is not counted against
        # the deadline of the faulted chunk
        elastic.map(_sleep_in_child_process, ["a", "b"])
        monkeypatch.setenv("REPRO_DEADLINE_S", "1.0")
        res = TransportCalculation(
            mini_built, method="wf", n_energy=13, backend=elastic,
            injector=injector,
        ).solve_bias(potential, 0.1)
        assert np.all(np.isfinite(res.transmission))
        assert np.isfinite(res.current_a)
        assert res.current_a == clean.current_a
        np.testing.assert_array_equal(
            res.density_per_atom, clean.density_per_atom
        )
        assert res.degradation.stragglers >= 1
        assert res.degradation.pool_restarts >= 1

    @pytest.mark.parametrize("deadline_s", [None, 30.0])
    def test_crashed_child_does_not_poison_the_pool(self, deadline_s,
                                                    monkeypatch):
        """A child that exits breaks its own call only: the broken pool
        is dropped, so the next call on the same worker count runs on a
        fresh pool instead of raising ``BrokenProcessPool`` forever."""
        backend = ProcessBackend(workers=2)
        if deadline_s is not None:
            monkeypatch.setenv("REPRO_DEADLINE_S", str(deadline_s))
        with pytest.raises(BrokenProcessPool):
            backend.map(_exit_in_child_process, ["a", "exit", "b"])
        monkeypatch.delenv("REPRO_DEADLINE_S", raising=False)
        again = ProcessBackend(workers=2).map(
            _exit_in_child_process, ["x", "y"]
        )
        assert again == ["done:x", "done:y"]


# ----------------------------------------------------------------------
# report plumbing


class TestDegradationAccounting:
    def test_budget_validation(self, set_constant):
        set_constant(degrade, "MAX_QUARANTINED_FRACTION", 0.5)
        check = degrade.check_quarantine
        check(0, 10)  # nothing lost: always fine
        check(3, 10)
        from repro.errors import DegradationBudgetError

        with pytest.raises(DegradationBudgetError):
            check(6, 10)  # fraction blown
        with pytest.raises(DegradationBudgetError):
            check(9, 10)  # too few survivors

    def test_report_merge_and_set_trips(self):
        a = DegradationReport()
        a.record_ladder("per-point:robust")
        a.quarantine(0, 0.5)
        b = DegradationReport()
        b.record_ladder("per-point:robust", 2)
        b.reweighted_grids = 1
        a.merge(b)
        assert a.ladder_steps == {"per-point:robust": 3}
        assert a.reweighted_grids == 1
        # set_trips overwrites (nested windows), merge adds
        a.set_trips({"rgf:nonfinite": 4})
        a.set_trips({})  # empty window keeps the previous authoritative count
        assert a.sentinel_trips == {"rgf:nonfinite": 4}
        assert a.total_events == 9
        d = a.to_dict()
        assert d["total_events"] == 9
        assert "per-point:robust" in a.summary()

    def test_corrupt_hamiltonian_modes(self):
        H = _chain_hamiltonian(n_blocks=5)
        bad = corrupt_hamiltonian(H, "nan")
        assert np.isnan(bad.diagonal[2]).all()
        ill = corrupt_hamiltonian(H, "illcond")
        assert np.all(np.isfinite(ill.diagonal[2]))
        assert np.abs(ill.diagonal[2]).max() >= 1e13
        with pytest.raises(ValueError):
            corrupt_hamiltonian(H, "gamma-ray")
