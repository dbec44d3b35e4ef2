"""Failure-path tests: fault injection, recovery ladders, checkpoint/resume.

The acceptance bar of the resilience layer is *exactness under recovery*:
with seeded injected faults (task exception, NaN observable, dead rank,
surface-GF breakdown) a run must complete AND its reduced observables must
match the fault-free run to machine precision, with every fault and
recovery path accounted on the :class:`ResilienceReport`.
"""

import types

import numpy as np
import pytest

from repro.core import (
    DeviceSpec,
    DistributedTransport,
    IVSweep,
    SelfConsistentSolver,
    TransportCalculation,
    build_device,
)
from repro.errors import (
    ConvergenceError,
    DegradationBudgetError,
    NumericalBreakdownError,
    RankFailure,
    ReproError,
    SCFConvergenceError,
    SurfaceGFConvergenceError,
    TaskFailure,
)
from repro.negf.self_energy import contact_self_energy
from repro.negf.surface_gf import eigen_surface_gf, sancho_rubio
from repro.parallel import SerialComm, UnreliableComm, run_tasks
from repro.perf.flops import FlopCounter
from repro.resilience import (
    DegradationBudget,
    DegradationReport,
    FaultInjector,
    RampCheckpoint,
    ResilienceReport,
    RetryPolicy,
    SCFRescue,
    SweepCheckpoint,
    nan_like,
    non_finite,
    robust_surface_gf,
)


@pytest.fixture(scope="module")
def system():
    spec = DeviceSpec(
        n_x=10, n_y=2, n_z=2, spacing_nm=0.25, source_cells=3,
        drain_cells=3, gate_cells=(4, 6), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    built = build_device(spec)
    tc = TransportCalculation(built, method="wf", n_energy=21)
    return built, tc


LEAD_H00 = np.array([[0.0]])
LEAD_H01 = np.array([[1.0]])


class TestErrorHierarchy:
    def test_all_are_runtime_errors(self):
        for cls in (
            ConvergenceError,
            SurfaceGFConvergenceError,
            SCFConvergenceError,
            NumericalBreakdownError,
            TaskFailure,
            RankFailure,
        ):
            assert issubclass(cls, ReproError)
            assert issubclass(cls, RuntimeError)

    def test_budget_error_is_not_a_breakdown(self):
        # the quarantine-bypass contract: the I-V engine quarantines
        # NumericalBreakdownError but must let a blown degradation budget
        # fail the whole sweep — so the one must never be the other
        assert issubclass(DegradationBudgetError, ReproError)
        assert not issubclass(DegradationBudgetError, NumericalBreakdownError)
        err = DegradationBudgetError("lost too much", n_quarantined=9,
                                     n_total=10)
        assert err.n_quarantined == 9
        assert err.n_total == 10

    def test_sancho_raises_typed_error(self):
        with pytest.raises(SurfaceGFConvergenceError) as info:
            sancho_rubio(0.5, LEAD_H00, LEAD_H01, eta=1e-6, max_iter=3)
        assert info.value.energy == 0.5
        assert info.value.eta == 1e-6
        assert not info.value.injected
        # still catchable as RuntimeError for pre-resilience callers
        with pytest.raises(RuntimeError):
            sancho_rubio(0.5, LEAD_H00, LEAD_H01, eta=1e-6, max_iter=3)

    def test_scf_constructor_validation(self, system):
        built, tc = system
        with pytest.raises(ValueError):
            SelfConsistentSolver(built, tc, max_iterations=0)
        with pytest.raises(ValueError):
            SelfConsistentSolver(built, tc, tol_v=0.0)
        with pytest.raises(ValueError):
            SelfConsistentSolver(built, tc, beta=0.0)


class TestFaultInjector:
    def test_deterministic_across_instances(self):
        keys = [("a", i) for i in range(200)]
        one = FaultInjector(seed=7, rate=0.3, sites=("task",))
        two = FaultInjector(seed=7, rate=0.3, sites=("task",))
        decisions = [one.decide("task", k) for k in keys]
        assert decisions == [two.decide("task", k) for k in keys]
        assert any(d is not None for d in decisions)
        assert any(d is None for d in decisions)
        # a different seed faults a different subset
        other = FaultInjector(seed=8, rate=0.3, sites=("task",))
        assert decisions != [other.decide("task", k) for k in keys]

    def test_plan_and_once_semantics(self):
        inj = FaultInjector(plan={("task", 3): "raise"})
        with pytest.raises(TaskFailure) as info:
            inj.fire("task", 3)
        assert info.value.injected
        # transient: the retry of the same key passes clean
        assert inj.fire("task", 3) is None
        assert inj.count("raise") == 1

    def test_permanent_fault(self):
        inj = FaultInjector(plan={("task", 0): "raise"}, once=False)
        for _ in range(3):
            with pytest.raises(TaskFailure):
                inj.fire("task", 0)
        assert inj.count() == 3

    def test_dead_rank_and_nan_actions(self):
        inj = FaultInjector(
            plan={("rank", 2): "dead_rank", ("task", 0): "nan"}
        )
        with pytest.raises(RankFailure) as info:
            inj.fire("rank", 2)
        assert info.value.rank == 2
        assert inj.fire("task", 0) == "nan"
        assert inj.fire("task", 1) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(rate=1.5)
        with pytest.raises(ValueError):
            FaultInjector(actions=("explode",))
        with pytest.raises(ValueError):
            FaultInjector(plan={("task", 0): "explode"})

    def test_max_faults_cap(self):
        inj = FaultInjector(rate=1.0, actions=("nan",), max_faults=2)
        fired = [inj.fire("task", i) for i in range(10)]
        assert fired.count("nan") == 2


class TestNonFinite:
    def test_detects_nested_nan(self):
        assert non_finite(float("nan"))
        assert non_finite(np.array([1.0, np.inf]))
        assert non_finite({"a": [1.0, (2.0, float("nan"))]})
        assert not non_finite({"a": np.arange(3.0), "b": "text"})

    def test_nan_like_corrupts_numerics_only(self):
        out = nan_like({"x": 1.0, "arr": np.ones(2), "s": "keep"})
        assert np.isnan(out["x"])
        assert np.all(np.isnan(out["arr"]))
        assert out["s"] == "keep"


class TestRetryPolicy:
    def test_recovers_after_transient(self):
        report = ResilienceReport()
        calls = []

        def attempt(n):
            calls.append(n)
            if n < 2:
                raise TaskFailure("flaky", injected=True)
            return "ok"

        policy = RetryPolicy(max_retries=3)
        assert policy.run(attempt, report=report) == "ok"
        assert calls == [0, 1, 2]
        assert report.retries == 2
        assert report.injected_faults == 2

    def test_exhausted_budget_reraises(self):
        report = ResilienceReport()
        policy = RetryPolicy(max_retries=1)

        def attempt(n):
            raise NumericalBreakdownError("broken")

        with pytest.raises(NumericalBreakdownError):
            policy.run(attempt, report=report)
        assert report.retries == 1
        assert report.organic_faults == 2  # both attempts counted

    def test_backoff_is_capped_exponential(self):
        slept = []
        policy = RetryPolicy(
            max_retries=4,
            backoff_s=0.1,
            backoff_factor=2.0,
            max_backoff_s=0.3,
            sleep=slept.append,
        )

        def attempt(n):
            if n < 4:
                raise TaskFailure("flaky")
            return n

        assert policy.run(attempt) == 4
        assert slept == [0.1, 0.2, 0.3, 0.3]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestRunTasksResilient:
    def test_legacy_fail_fast_unchanged(self):
        with pytest.raises(ZeroDivisionError):
            run_tasks([1, 0, 2], lambda x: 1.0 / x)

    def test_injected_exception_retried_to_exact_result(self):
        tasks = list(range(6))
        clean = run_tasks(tasks, float).results
        report = ResilienceReport()
        inj = FaultInjector(plan={("task", 2): "raise", ("task", 4): "nan"})
        out = run_tasks(
            tasks,
            float,
            retry=RetryPolicy(max_retries=2),
            injector=inj,
            report=report,
        )
        assert out.results == clean
        assert out.retries == 2
        assert not out.quarantined
        assert report.injected_faults == 2
        assert report.organic_faults == 0
        assert inj.count() == 2

    def test_permanent_fault_quarantined_not_fatal(self):
        report = ResilienceReport()
        inj = FaultInjector(plan={("task", 1): "raise"}, once=False)
        out = run_tasks(
            [10, 11, 12],
            float,
            retry=RetryPolicy(max_retries=1),
            injector=inj,
            report=report,
        )
        assert out.results == [10.0, None, 12.0]
        assert out.n_failed == 1
        assert out.quarantined[0][0] == 1
        assert report.quarantined == [1]

    def test_organic_nan_detected(self):
        out = run_tasks(
            [1.0, float("nan")],
            lambda x: x,
            retry=RetryPolicy(max_retries=1),
        )
        assert out.results[0] == 1.0
        assert out.results[1] is None


class TestSurfaceGFLadder:
    def test_eta_escalation_path(self):
        # at max_iter=21 the nominal eta (needs 26 iters) and eta*10
        # (needs 23) both fail; eta*100 (needs 20) converges
        report = ResilienceReport()
        g, path = robust_surface_gf(
            0.5, LEAD_H00, LEAD_H01, eta=1e-6, max_iter=21, report=report
        )
        assert path == "sancho-eta*100"
        assert report.organic_faults == 1
        assert report.fallbacks == {"surface_gf:sancho-eta*100": 1}
        assert np.all(np.isfinite(g))

    def test_eigen_fallback_matches_eigen_construction(self):
        report = ResilienceReport()
        g, path = robust_surface_gf(
            0.5, LEAD_H00, LEAD_H01, eta=1e-6, max_iter=3, report=report
        )
        assert path == "eigen"
        assert report.fallbacks == {"surface_gf:eigen": 1}
        reference = eigen_surface_gf(0.5, LEAD_H00, LEAD_H01, eta=1e-6)
        np.testing.assert_allclose(g, reference)

    def test_healthy_lead_takes_no_fallback(self):
        report = ResilienceReport()
        g, path = robust_surface_gf(0.5, LEAD_H00, LEAD_H01, report=report)
        assert path == "sancho"
        assert report.total_faults == 0
        reference, _ = sancho_rubio(0.5, LEAD_H00, LEAD_H01)
        np.testing.assert_array_equal(g, reference)

    def test_contact_self_energy_robust_method(self):
        healthy = contact_self_energy(
            0.5, LEAD_H00, LEAD_H01, side="left", method="sancho"
        )
        robust = contact_self_energy(
            0.5, LEAD_H00, LEAD_H01, side="left", method="robust"
        )
        np.testing.assert_array_equal(robust.sigma, healthy.sigma)
        with pytest.raises(ValueError):
            contact_self_energy(0.5, LEAD_H00, LEAD_H01, method="bogus")


class TestDeadRankRequeue:
    def test_requeue_is_bit_identical(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=4)
        report = ResilienceReport()
        inj = FaultInjector(plan={("rank", 1): "dead_rank"})
        faulted = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=4,
            injector=inj, report=report,
        )
        assert faulted["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            faulted["density_per_atom"], clean["density_per_atom"]
        )
        assert faulted["n_tasks_total"] == clean["n_tasks_total"]
        assert report.rank_failures == 1
        assert report.requeued_tasks > 0
        assert report.fallbacks.get("rank:requeue") == 1
        assert inj.count("dead_rank") == 1

    def test_injected_task_faults_retried_bit_identical(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
        report = ResilienceReport()
        inj = FaultInjector(
            plan={("task", (0, 0)): "raise", ("task", (0, 3)): "nan"}
        )
        faulted = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=3,
            injector=inj, retry=RetryPolicy(max_retries=2), report=report,
        )
        assert faulted["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            faulted["density_per_atom"], clean["density_per_atom"]
        )
        assert report.injected_faults == 2
        assert report.retries == 2

    @pytest.mark.parametrize("action", ["raise", "nan"])
    def test_faulted_task_is_retried_alone_as_a_stack_of_one(
        self, system, action, monkeypatch
    ):
        from repro.core import distributed

        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
        stacks = []
        real = distributed.solve_energies

        def recording(solver, energies, *args, **kwargs):
            stacks.append(list(energies))
            return real(solver, energies, *args, **kwargs)

        monkeypatch.setattr(distributed, "solve_energies", recording)
        grid = clean["energy_grid"]
        report = ResilienceReport()
        inj = FaultInjector(plan={("task", (0, 5)): action})
        faulted = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=3,
            injector=inj, retry=RetryPolicy(max_retries=2), report=report,
        )
        assert faulted["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            faulted["density_per_atom"], clean["density_per_atom"]
        )
        assert report.retries == 1 and inj.count(action) == 1
        # every attempt is a stack of one; only the faulted task repeats
        # (a "raise" fires before its first solve, a "nan" after it)
        assert all(len(stack) == 1 for stack in stacks)
        solved = [stack[0] for stack in stacks]
        e_bad = float(grid.energies[5])
        assert solved.count(e_bad) == (2 if action == "nan" else 1)
        assert sorted(set(solved)) == grid.energies.tolist()
        assert len(solved) == len(grid) + (action == "nan")

    def test_permanent_task_fault_raises_task_failure(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        inj = FaultInjector(plan={("task", (0, 0)): "raise"}, once=False)
        with pytest.raises(TaskFailure):
            dist.solve_bias(
                pot, 0.1, SerialComm(), n_ranks=3,
                injector=inj, retry=RetryPolicy(max_retries=1),
            )


class TestUnreliableComm:
    def test_injected_collective_failure(self):
        inj = FaultInjector(plan={("comm", ("allreduce", 1)): "dead_rank"})
        comm = UnreliableComm(SerialComm(), inj)
        assert comm.Get_size() == 1
        assert comm.Get_rank() == 0
        with pytest.raises(RankFailure):
            comm.allreduce(1.0)
        # transient: the repeated collective goes through
        assert comm.allreduce(1.0) == 1.0
        assert comm.bcast("x") == "x"

    def test_split_shares_injector(self):
        inj = FaultInjector(plan={("comm", ("barrier", 1)): "raise"})
        comm = UnreliableComm(SerialComm(), inj).Split(0)
        with pytest.raises(TaskFailure):
            comm.barrier()


def _fake_scf_result(converged, current=1e-9, residual=1e-3, n_atoms=3):
    return types.SimpleNamespace(
        phi=np.zeros(5),
        potential_ev=np.zeros(n_atoms),
        transport=types.SimpleNamespace(
            current_a=current, density_per_atom=np.zeros(n_atoms)
        ),
        residuals=[residual],
        converged=converged,
        n_iterations=1,
        flops=FlopCounter(),
    )


class _FlakySolver:
    """SCF stand-in: fails the first ``fail_attempts`` runs, then converges."""

    def __init__(self, fail_attempts=1):
        self.fail_attempts = fail_attempts
        self.calls = 0
        self.beta = 0.6
        self.mixing = "anderson"
        self.run_args = []

    def run(self, v_gate, v_drain, phi0=None, continuation_step=0.12):
        self.calls += 1
        self.run_args.append(
            {"phi0": phi0, "beta": self.beta, "mixing": self.mixing,
             "continuation_step": continuation_step}
        )
        return _fake_scf_result(self.calls > self.fail_attempts)


class TestSCFRescueLadder:
    def test_first_point_routed_through_rescue(self):
        """A non-converged *first* point (no warm start) is rescued, not
        silently recorded — the pre-resilience retry gap."""
        solver = _FlakySolver(fail_attempts=1)
        sweep = IVSweep(solver)
        curve = sweep.transfer_curve([0.0], v_drain=0.05)
        point = curve.points[0]
        assert point.converged
        assert point.recovery == ("beta-halved",)
        assert solver.calls == 2
        # the rescue rung really halved the damping for its attempt
        assert solver.run_args[1]["beta"] == pytest.approx(0.3)
        assert curve.report.degraded_points == [(0.0, 0.05)]
        # and the solver's own settings were restored afterwards
        assert solver.beta == 0.6
        assert solver.mixing == "anderson"

    def test_ladder_escalates_to_linear_mixing(self):
        solver = _FlakySolver(fail_attempts=2)
        sweep = IVSweep(solver)
        curve = sweep.transfer_curve([0.0], v_drain=0.05)
        point = curve.points[0]
        assert point.converged
        assert point.recovery == ("beta-halved", "linear-mixing")
        assert solver.run_args[2]["mixing"] == "linear"
        assert curve.report.fallbacks == {
            "scf:beta-halved": 1, "scf:linear-mixing": 1,
        }

    def test_warm_started_point_cold_restarts_first(self):
        solver = _FlakySolver(fail_attempts=3)  # second bias fails twice
        sweep = IVSweep(solver)
        # bump fail_attempts so point 1 converges immediately, point 2
        # fails its warm attempt and its cold restart, then converges
        solver.fail_attempts = 0

        real_run = solver.run

        def run(v_gate, v_drain, phi0=None, continuation_step=0.12):
            if v_gate > 0.05 and solver.calls < 3:
                solver.calls += 1
                solver.run_args.append({"phi0": phi0})
                return _fake_scf_result(False)
            return real_run(v_gate, v_drain, phi0, continuation_step)

        solver.run = run
        curve = sweep.transfer_curve([0.0, 0.1], v_drain=0.05)
        assert curve.points[0].recovery == ()
        assert curve.points[1].recovery == ("cold-restart", "beta-halved")

    def test_rescue_disabled(self):
        solver = _FlakySolver(fail_attempts=10)
        sweep = IVSweep(solver, rescue=None)
        curve = sweep.transfer_curve([0.0], v_drain=0.05)
        assert not curve.points[0].converged
        assert curve.points[0].recovery == ()
        assert solver.calls == 1
        assert curve.report.unconverged_points == [(0.0, 0.05)]

    def test_stages_shrink_continuation(self):
        rescue = SCFRescue(min_continuation_step=0.03)
        solver = _FlakySolver()
        stages = rescue.stages(solver, used_warm_start=True,
                               continuation_step=0.12)
        names = [s[0] for s in stages]
        assert names == [
            "cold-restart", "beta-halved", "linear-mixing",
            "continuation-halved",
        ]
        assert stages[-1][2] == pytest.approx(0.06)


class TestBiasFaultInjection:
    def test_injected_bias_faults_match_fault_free(self):
        clean_solver = _FlakySolver(fail_attempts=0)
        clean = IVSweep(clean_solver).transfer_curve([0.0, 0.1], 0.05)
        solver = _FlakySolver(fail_attempts=0)
        inj = FaultInjector(
            plan={
                ("bias", (0.0, 0.05)): "raise",
                ("bias", (0.1, 0.05)): "nan",
            }
        )
        report_sweep = IVSweep(
            solver, retry=RetryPolicy(max_retries=2), injector=inj
        )
        curve = report_sweep.transfer_curve([0.0, 0.1], 0.05)
        assert [p.current_a for p in curve.points] == [
            p.current_a for p in clean.points
        ]
        assert all(p.converged for p in curve.points)
        assert curve.report.injected_faults == 2
        assert curve.report.retries == 2
        assert curve.points[0].recovery == ("retry*1",)

    def test_exhausted_retries_quarantine_point(self):
        solver = _FlakySolver(fail_attempts=0)
        inj = FaultInjector(plan={("bias", (0.0, 0.05)): "raise"}, once=False)
        sweep = IVSweep(
            solver, retry=RetryPolicy(max_retries=1), injector=inj
        )
        curve = sweep.transfer_curve([0.0, 0.1], 0.05)
        assert curve.points[0].recovery[-1] == "quarantined"
        assert np.isnan(curve.points[0].current_a)
        assert curve.points[1].converged
        assert curve.report.quarantined == [(0.0, 0.05)]


class TestOnePoissonOperator:
    """The Poisson operator is geometry-only: one per solver, and every
    run imposes its own gate value on it."""

    def test_operator_is_built_once_across_gate_voltages(
        self, system, monkeypatch
    ):
        from unittest import mock

        from repro.poisson import nonlinear

        built, tc = system
        builders = ("assemble_laplacian", "apply_dirichlet")
        for name in builders:
            monkeypatch.setattr(
                nonlinear, name, mock.Mock(wraps=getattr(nonlinear, name))
            )
        scf = SelfConsistentSolver(built, tc)
        for v_gate in (-0.2, -0.1, 0.0, 0.1, 0.2):
            phi = scf.initial_potential(v_gate, 0.05)
            assert np.all(phi[built.gate_mask] == v_gate)
        assert [getattr(nonlinear, name).call_count for name in builders] == [1, 1]

    def test_each_run_imposes_its_own_gate_value(self, system):
        """Two gate voltages 4e-7 V apart used to share the solver built
        for the first one (rounded cache key) and its gate value."""
        built, tc = system
        scf = SelfConsistentSolver(built, tc, max_iterations=2, tol_v=0.5)
        imposed = []
        real_solve = scf.poisson.solve

        def spying_solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            imposed.append(result.phi[built.gate_mask])
            return result

        scf.poisson.solve = spying_solve
        for v_gate in (0.1, 0.1 + 4e-7):
            del imposed[:]
            phi = scf.run(v_gate, 0.05).phi
            assert np.all(phi[built.gate_mask] == v_gate)
            assert len(imposed) >= 2  # the cold start and every iteration
            assert all(np.all(gate == v_gate) for gate in imposed)


class TestCheckpointFiles:
    def test_sweep_checkpoint_roundtrip(self, tmp_path):
        ckpt = SweepCheckpoint(tmp_path / "sweep.npz")
        assert ckpt.load() is None
        phi = np.linspace(0.0, 1.0, 7)
        points = [
            {"v_gate": 0.0, "v_drain": 0.05, "current_a": 1e-9,
             "converged": True, "n_iterations": 4, "recovery": []},
        ]
        ckpt.save(points, phi, meta={"kind": "transfer"})
        state = ckpt.load()
        assert state["meta"] == {"kind": "transfer"}
        assert state["points"] == points
        np.testing.assert_array_equal(state["phi"], phi)  # bit-exact
        assert (0.0, 0.05) in ckpt.completed_keys()
        # atomic write leaves no temp droppings
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        ckpt.clear()
        assert not ckpt.exists()

    def test_ramp_checkpoint_roundtrip(self, tmp_path):
        ramp = RampCheckpoint(tmp_path / "ramp.npz")
        assert ramp.load() is None
        ramp.save(0.1, np.ones(4))
        vd, phi = ramp.load()
        assert vd == 0.1
        np.testing.assert_array_equal(phi, np.ones(4))
        ramp.clear()
        assert ramp.load() is None


@pytest.fixture(scope="module")
def scf_system():
    # the known-converging FET of test_core_scf_iv.py
    spec = DeviceSpec(
        n_x=12, n_y=2, n_z=2, spacing_nm=0.25, source_cells=4,
        drain_cells=4, gate_cells=(4, 7), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    built = build_device(spec)
    tc = TransportCalculation(built, method="wf", n_energy=31)
    return built, tc


VGS = [-0.2, 0.0, 0.1]


class TestKillAndResume:
    def test_interrupted_sweep_resumes_identically(self, scf_system, tmp_path):
        built, tc = scf_system
        path = tmp_path / "iv.npz"

        # uninterrupted reference
        full = IVSweep(
            SelfConsistentSolver(built, tc, max_iterations=40)
        ).transfer_curve(VGS, v_drain=0.05)

        # "kill" the sweep when it reaches the third bias point
        scf_killed = SelfConsistentSolver(built, tc, max_iterations=40)
        original_run = scf_killed.run

        def run_then_die(v_gate, v_drain, phi0=None, continuation_step=0.12):
            if v_gate == VGS[2]:
                raise KeyboardInterrupt
            return original_run(
                v_gate, v_drain, phi0=phi0,
                continuation_step=continuation_step,
            )

        scf_killed.run = run_then_die
        with pytest.raises(KeyboardInterrupt):
            IVSweep(scf_killed, checkpoint=path).transfer_curve(
                VGS, v_drain=0.05
            )
        state = SweepCheckpoint(path).load()
        assert len(state["points"]) == 2  # the completed prefix survived

        # resume: only the missing point is recomputed
        scf_resume = SelfConsistentSolver(built, tc, max_iterations=40)
        recomputed = []
        resume_run = scf_resume.run

        def counting_run(v_gate, *args, **kwargs):
            recomputed.append(v_gate)
            return resume_run(v_gate, *args, **kwargs)

        scf_resume.run = counting_run
        resumed = IVSweep(
            scf_resume, checkpoint=path, resume=True
        ).transfer_curve(VGS, v_drain=0.05)

        assert set(recomputed) == {VGS[2]}
        assert resumed.report.resumed_points == 2
        assert len(resumed.points) == len(full.points)
        for a, b in zip(resumed.points, full.points):
            assert a.v_gate == b.v_gate
            assert a.current_a == b.current_a  # bit-identical
            assert a.converged == b.converged
            assert a.n_iterations == b.n_iterations

    def test_fresh_run_clears_stale_checkpoint(self, scf_system, tmp_path):
        built, tc = scf_system
        path = tmp_path / "stale.npz"
        ckpt = SweepCheckpoint(path)
        ckpt.save(
            [{"v_gate": 9.0, "v_drain": 9.0, "current_a": 1.0,
              "converged": True, "n_iterations": 1, "recovery": []}],
            None,
        )
        solver = _FlakySolver(fail_attempts=0)
        curve = IVSweep(solver, checkpoint=ckpt).transfer_curve([0.0], 0.05)
        assert curve.report.resumed_points == 0
        state = ckpt.load()
        assert len(state["points"]) == 1
        assert state["points"][0]["v_gate"] == 0.0


class TestDegradationLadder:
    """The graceful step-down of the bias loop's node solver
    (``repro.core.transport._KPoint._heal``)."""

    def test_transient_corruption_healed_bit_identically(self, system):
        built, _ = system
        pot = np.zeros(built.n_atoms)
        clean = TransportCalculation(
            built, method="rgf", n_energy=21
        ).solve_bias(pot, 0.1)
        # a transient (once=True) conditioning fault on the k=0 Hamiltonian:
        # the per-point rung rebuilds a fresh H, so the healed solve is the
        # clean solve — bit for bit
        inj = FaultInjector(plan={("hblock", 0): "illcond"})
        healed = TransportCalculation(
            built, method="rgf", n_energy=21, injector=inj
        ).solve_bias(pot, 0.1)
        np.testing.assert_array_equal(
            healed.transmission, clean.transmission
        )
        np.testing.assert_array_equal(
            healed.density_per_atom, clean.density_per_atom
        )
        assert healed.current_a == clean.current_a
        d = healed.degradation
        assert d.ladder_steps.get("per-point:robust", 0) >= 1
        assert not d.quarantined_points
        assert inj.count("illcond") == 1

    @pytest.mark.parametrize("mode,trips", [
        ("illcond", {"block_lu:ill_conditioned": 21}),
        ("nan", {"block_lu:nonfinite": 21, "energy:nonfinite": 21,
                 "rgf:nonfinite": 21}),
    ])
    def test_hblock_fault_heals_to_the_same_account(self, system, mode, trips):
        """The whole account of a healed k-point, as it read before the
        two contacts shared one decimation stack (uniform grid pinned: the
        counts are per node of that grid)."""
        built, _ = system
        healed = TransportCalculation(
            built, method="rgf", n_energy=21, energy_mode="uniform",
            injector=FaultInjector(plan={("hblock", 0): mode}),
        ).solve_bias(np.zeros(built.n_atoms), 0.1)
        assert healed.degradation.to_dict() == {
            "ladder_steps": {"per-point:robust": 21},
            "sentinel_trips": trips,
            "quarantined_points": [], "reweighted_grids": 0,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            "total_events": 21 + sum(trips.values()),
        }

    def test_persistent_fault_quarantined_and_reweighted(self, system):
        built, _ = system
        pot = np.zeros(built.n_atoms)
        # pinned uniform: the fault keys off a node of the 21-point
        # uniform grid, which the adaptive seed would never visit
        probe = TransportCalculation(
            built, method="wf", n_energy=21, energy_mode="uniform"
        )
        e_bad = float(probe.energy_grid(pot, 0.1).energies[4])
        inj = FaultInjector(
            plan={("energy", (0, e_bad)): "nan"}, once=False
        )
        tc = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode="uniform",
        )
        res = tc.solve_bias(pot, 0.1)
        assert np.isfinite(res.current_a)
        assert np.all(np.isfinite(res.transmission))
        d = res.degradation
        assert d.quarantined_points == [(0, e_bad)]
        assert d.reweighted_grids == 1
        assert d.ladder_steps.get("dense-oracle", 0) >= 1
        assert d.ladder_steps.get("quadrature:reweight", 0) == 1
        # every rung re-fired the persistent fault, once, before giving up
        assert inj.count("nan") == 3
        assert [f.site for f in inj.injected] == ["energy"] * 3
        assert d.to_dict() == {
            "ladder_steps": {"per-point:robust": 1, "dense-oracle": 1,
                             "quadrature:reweight": 1},
            "sentinel_trips": {"energy:nonfinite": 1, "wf:nonfinite": 1,
                               "block_lu:nonfinite": 1},
            "quarantined_points": [[0, e_bad]], "reweighted_grids": 1,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            "total_events": 8,
        }

    def test_transient_energy_fault_fires_once_and_heals(self, system):
        built, _ = system
        pot = np.zeros(built.n_atoms)
        clean = TransportCalculation(
            built, method="wf", n_energy=21, energy_mode="uniform"
        ).solve_bias(pot, 0.1)
        e_bad = float(clean.energy_grid.energies[4])
        inj = FaultInjector(plan={("energy", (0, e_bad)): "nan"})
        healed = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode="uniform",
        ).solve_bias(pot, 0.1)
        # fired on the first rung only; the second rung is a clean stack
        # of one, bit-identical to the point's slice of the clean grid
        assert inj.count("nan") == inj.count() == 1
        assert healed.current_a == clean.current_a
        np.testing.assert_array_equal(
            healed.density_per_atom, clean.density_per_atom
        )
        d = healed.degradation
        assert d.ladder_steps == {"per-point:robust": 1}
        assert not d.quarantined_points
        assert healed.flops.total == clean.flops.total

    def test_blown_budget_raises_typed(self, system):
        built, _ = system
        pot = np.zeros(built.n_atoms)
        probe = TransportCalculation(
            built, method="wf", n_energy=21, energy_mode="uniform"
        )
        energies = probe.energy_grid(pot, 0.1).energies[4:6]
        inj = FaultInjector(
            plan={("energy", (0, float(e))): "nan" for e in energies},
            once=False,
        )
        tc = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode="uniform",
            degradation_budget=DegradationBudget(max_quarantined_points=1),
        )
        with pytest.raises(DegradationBudgetError):
            tc.solve_bias(pot, 0.1)

    def test_budget_error_fails_sweep_not_quarantined(self):
        class BudgetBlownSolver:
            beta = 0.6
            mixing = "anderson"

            def run(self, v_gate, v_drain, phi0=None,
                    continuation_step=0.12):
                raise DegradationBudgetError(
                    "lost the quadrature", n_quarantined=9, n_total=10
                )

        sweep = IVSweep(
            BudgetBlownSolver(), retry=RetryPolicy(max_retries=3)
        )
        with pytest.raises(DegradationBudgetError):
            sweep.transfer_curve([0.0, 0.1], v_drain=0.05)


class TestRankShrink:
    def test_shrink_redistributes_over_survivors(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=4)
        report = ResilienceReport()
        inj = FaultInjector(plan={("rank", 1): "dead_rank"})
        shrunk = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=4,
            injector=inj, report=report, rank_recovery="shrink",
        )
        # the dead rank's tasks are *split* over the survivors, so the
        # reduction order changes: agreement is to rounding, not bitwise
        # (the requeue mode keeps the bitwise contract)
        np.testing.assert_allclose(
            shrunk["density_per_atom"], clean["density_per_atom"],
            rtol=1e-9, atol=0.0,
        )
        assert np.isclose(
            shrunk["current_a"], clean["current_a"], rtol=1e-9
        )
        assert shrunk["n_tasks_total"] == clean["n_tasks_total"]
        assert report.rank_failures == 1
        assert report.requeued_tasks > 0
        assert report.fallbacks.get("rank:shrink") == 1

    @pytest.mark.parametrize("recovery", ["requeue", "shrink"])
    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_recovery_counters(self, system, recovery, n_ranks):
        """Both recoveries are one split-and-sum: the report counts the
        dead rank's whole task list once, under its own label — also
        when a shrink has a single survivor to shrink onto."""
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        decomp, _ = dist.decomposition(n_ranks, 0.1, pot)
        report = ResilienceReport()
        inj = FaultInjector(plan={("rank", 1): "dead_rank"})
        out = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=n_ranks,
            injector=inj, report=report, rank_recovery=recovery,
        )
        assert report.rank_failures == 1
        assert report.requeued_tasks == len(decomp.tasks_of_rank(1))
        assert report.fallbacks == {f"rank:{recovery}": 1}
        assert out["n_tasks_total"] == len(out["energy_grid"])

    def test_invalid_recovery_mode_rejected(self, system):
        built, tc = system
        dist = DistributedTransport(tc)
        with pytest.raises(ValueError):
            dist.solve_bias(
                np.zeros(built.n_atoms), 0.1, SerialComm(), n_ranks=4,
                rank_recovery="abandon-ship",
            )


class TestDegradationPlumbing:
    def test_scf_degradation_merged_into_iv_curve(self):
        solver = _FlakySolver(fail_attempts=0)
        real_run = solver.run

        def run(v_gate, v_drain, phi0=None, continuation_step=0.12):
            res = real_run(v_gate, v_drain, phi0, continuation_step)
            d = DegradationReport()
            d.record_ladder("per-point:robust")
            res.degradation = d
            return res

        solver.run = run
        curve = IVSweep(solver).transfer_curve([0.0, 0.1], v_drain=0.05)
        assert curve.degradation.ladder_steps == {"per-point:robust": 2}
        assert curve.degradation.total_events == 2

    def test_solvers_without_degradation_attr_still_work(self):
        # _FlakySolver results carry no .degradation — the plumbing must
        # treat that as an empty report, not crash
        curve = IVSweep(_FlakySolver(fail_attempts=0)).transfer_curve(
            [0.0], v_drain=0.05
        )
        assert curve.degradation.total_events == 0


class TestAdaptiveWaveFaults:
    """Fault routing inside the adaptive refinement waves."""

    def _seed_node(self, tc, pot, bias, n_energy=21, index=4):
        """One of the wave-0 seed nodes the refiner is guaranteed to visit."""
        grid = tc.energy_grid(pot, bias)
        n_initial = max(n_energy // 2, 9)
        seed = np.linspace(
            grid.energies.min(), grid.energies.max(), n_initial
        )
        return float(seed[index])

    def test_transient_wave_fault_healed_bit_identically(self, system):
        """A transient energy fault inside a wave takes the per-point
        ladder and heals: the refined result equals the clean run bit
        for bit, so the fault never influenced a refinement decision."""
        built, _ = system
        pot = np.zeros(built.n_atoms)
        clean_tc = TransportCalculation(
            built, method="wf", n_energy=21,
            energy_mode="adaptive", adaptive_tol=0.05,
        )
        clean = clean_tc.solve_bias(pot, 0.1)
        e_bad = self._seed_node(clean_tc, pot, 0.1)
        inj = FaultInjector(plan={("energy", (0, e_bad)): "nan"})
        healed = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode="adaptive", adaptive_tol=0.05,
        ).solve_bias(pot, 0.1)
        assert inj.count("nan") == 1
        np.testing.assert_array_equal(
            healed.transmission, clean.transmission
        )
        assert healed.current_a == clean.current_a
        assert healed.adaptive == clean.adaptive
        d = healed.degradation
        assert sum(
            v for k, v in d.ladder_steps.items() if k.startswith("per-point")
        ) >= 1 or d.ladder_steps.get("dense-oracle", 0) >= 1
        assert not d.quarantined_points

    def test_persistent_wave_fault_quarantines_node(self, system):
        """A persistent fault quarantines the node: the wave engine
        retires its intervals instead of pinning refinement, and the
        exclusion is accounted in both reports."""
        built, _ = system
        pot = np.zeros(built.n_atoms)
        tc = TransportCalculation(
            built, method="wf", n_energy=21,
            energy_mode="adaptive", adaptive_tol=0.05,
        )
        e_bad = self._seed_node(tc, pot, 0.1)
        inj = FaultInjector(
            plan={("energy", (0, e_bad)): "nan"}, once=False
        )
        res = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode="adaptive", adaptive_tol=0.05,
        ).solve_bias(pot, 0.1)
        assert np.isfinite(res.current_a)
        assert np.all(np.isfinite(res.transmission))
        stats = res.adaptive
        assert stats["excluded"] == 1
        assert stats["waves"] >= 1, "quarantine pinned refinement"
        assert not stats["budget_hits"]
        d = res.degradation
        assert d.quarantined_points == [(0, e_bad)]
        assert d.reweighted_grids == 1
        assert d.ladder_steps.get("quadrature:reweight", 0) == 1
        # every ladder rung re-fired the persistent fault before quarantine
        assert inj.count("nan") >= 3

    def test_quarantine_blows_budget_typed(self, system):
        """Exceeding the degradation budget inside adaptive refinement
        raises the typed budget error, not a silent thin grid."""
        built, _ = system
        pot = np.zeros(built.n_atoms)
        tc = TransportCalculation(
            built, method="wf", n_energy=21,
            energy_mode="adaptive", adaptive_tol=0.05,
        )
        e_bad = self._seed_node(tc, pot, 0.1)
        inj = FaultInjector(
            plan={("energy", (0, e_bad)): "nan"}, once=False
        )
        bad = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode="adaptive", adaptive_tol=0.05,
            degradation_budget=DegradationBudget(max_quarantined_points=0),
        )
        with pytest.raises(DegradationBudgetError):
            bad.solve_bias(pot, 0.1)

    def test_chaos_campaign_has_adaptive_stage(self):
        from repro.resilience.chaos import run_campaign

        campaign = run_campaign(
            backend="serial", stages=["adaptive-wave-crash"]
        )
        assert [s.name for s in campaign.stages] == ["adaptive-wave-crash"]
        assert campaign.passed

    def test_chaos_campaign_has_eight_stages(self):
        """``worker-hang`` drills deadline -> restart -> salvage on the one
        dispatch path; there is no shared-memory stage beside it, and no
        refinement-stall stage (there is no mixed-precision mode)."""
        from repro.resilience.chaos import _STAGES

        assert [runner.stage_name for runner in _STAGES] == [
            "clean-bit-identity", "bias-level-faults", "energy-numerical",
            "distributed-4level", "comm-faults", "worker-hang",
            "poisson-nan", "adaptive-wave-crash",
        ]
