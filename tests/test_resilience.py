"""Failure-path tests: fault injection, recovery ladders, checkpoint/resume.

The acceptance bar of the resilience layer is *exactness under recovery*:
with seeded injected faults (task exception, NaN observable, dead rank,
surface-GF breakdown) a run must complete AND its reduced observables must
match the fault-free run to machine precision, with every fault and
recovery path accounted on the run's one :class:`DegradationReport`.
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
from repro.parallel import SerialComm, UnreliableComm
from repro.perf.flops import FlopCounter
from repro.resilience import (
    DegradationBudget,
    DegradationReport,
    FaultInjector,
    HealthSentinel,
    RetryPolicy,
    SCFRescue,
    nan_like,
    non_finite,
    robust_surface_gf,
    use_sentinel,
)
from repro.resilience.checkpoint import RampCheckpoint, SweepCheckpoint


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
#: a lead coupled by a matrix, so its surface GF decimates (the chain above
#: is coupled by a scalar and takes its closed form, no step): at 0.7 eV it
#: needs 25 steps at eta = 1e-6, 21 at 1e-5 and 18 at 1e-4
DIMER_H00 = np.array([[0.1, -1.0], [-1.0, 0.1]])
DIMER_H01 = np.array([[0.0, 0.0], [-0.6, 0.0]])


#: the counters of a run's account that a (k, E) drill leaves at zero
NO_DRIVER_EVENTS = {
    "injected_faults": 0, "organic_faults": 0, "retries": 0,
    "rank_failures": 0, "requeued_tasks": 0, "resumed_points": 0,
}


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
            sancho_rubio(0.7, DIMER_H00, DIMER_H01, eta=1e-6, max_iter=3)
        assert info.value.energy == 0.7
        assert info.value.eta == 1e-6
        assert not info.value.injected
        # still catchable as RuntimeError for pre-resilience callers
        with pytest.raises(RuntimeError):
            sancho_rubio(0.7, DIMER_H00, DIMER_H01, eta=1e-6, max_iter=3)
        # a scalar-coupled lead takes no step, so no cap can stop it
        _, steps = sancho_rubio(0.5, LEAD_H00, LEAD_H01, eta=1e-6, max_iter=3)
        assert steps == 0

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
        report = DegradationReport()
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
        report = DegradationReport()
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


class TestSurfaceGFLadder:
    def test_eta_escalation_path(self):
        # at max_iter=20 the nominal eta (needs 25 iters) and eta*10
        # (needs 21) both fail; eta*100 (needs 18) converges
        g, path = robust_surface_gf(
            0.7, DIMER_H00, DIMER_H01, eta=1e-6, max_iter=20
        )
        assert path == "sancho-eta*100"
        assert np.all(np.isfinite(g))

    def test_eigen_fallback_matches_eigen_construction(self):
        g, path = robust_surface_gf(
            0.7, DIMER_H00, DIMER_H01, eta=1e-6, max_iter=3
        )
        assert path == "eigen"
        reference = eigen_surface_gf(0.7, DIMER_H00, DIMER_H01, eta=1e-6)
        np.testing.assert_allclose(g, reference)
        # the scalar-coupled chain needs no ladder at any cap
        g, path = robust_surface_gf(
            0.5, LEAD_H00, LEAD_H01, eta=1e-6, max_iter=3
        )
        assert path == "sancho"

    def test_healthy_lead_takes_no_fallback(self):
        g, path = robust_surface_gf(0.5, LEAD_H00, LEAD_H01)
        assert path == "sancho"
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
        inj = FaultInjector(plan={("rank", 1): "dead_rank"})
        faulted = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=4, injector=inj,
        )
        report = faulted["degradation"]
        assert faulted["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            faulted["density_per_atom"], clean["density_per_atom"]
        )
        assert faulted["n_tasks_total"] == clean["n_tasks_total"]
        assert report.rank_failures == 1
        assert report.requeued_tasks > 0
        assert report.ladder_steps.get("rank:requeue") == 1
        assert inj.count("dead_rank") == 1

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_recovery_counters(self, system, n_ranks):
        """The report counts the dead rank's whole task list once, under
        its requeue step — also when one survivor is left."""
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        decomp, _ = dist.decomposition(n_ranks, 0.1, pot)
        inj = FaultInjector(plan={("rank", 1): "dead_rank"})
        out = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=n_ranks, injector=inj,
        )
        report = out["degradation"]
        assert report.rank_failures == 1
        assert report.requeued_tasks == len(decomp.tasks_of_rank(1))
        assert report.ladder_steps == {"rank:requeue": 1}
        assert out["n_tasks_total"] == len(out["energy_grid"])

    def test_injected_task_faults_retried_bit_identical(self, system):
        """Planted (k, E) faults reach the ranks and heal down the ladder
        of the bias loop: the raise at e0 fails rank 0's stacked solve,
        its share goes point by point, and the NaN at e3 (same share)
        climbs one rung."""
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
        energies = clean["energy_grid"].energies
        inj = FaultInjector(plan={
            ("energy", (0, float(energies[0]))): "raise",
            ("energy", (0, float(energies[3]))): "nan",
        })
        faulted = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=3, injector=inj,
        )
        assert faulted["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            faulted["density_per_atom"], clean["density_per_atom"]
        )
        assert inj.n_injected == 2
        degradation = faulted["degradation"]
        assert degradation.ladder_steps == {
            "chunk:exception": 1, "chunk:per-point": 1,
            "per-point:robust": 1,
        }
        assert degradation.quarantined_points == []
        assert clean["degradation"].total_events == 0

    @pytest.mark.parametrize("action", ["raise", "nan"])
    def test_faulted_task_is_retried_alone_as_a_stack_of_one(
        self, system, action, monkeypatch
    ):
        from repro.core import transport

        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
        stacks = []
        real = transport.solve_energies

        def recording(solver, energies, *args, **kwargs):
            stacks.append(list(energies))
            return real(solver, energies, *args, **kwargs)

        monkeypatch.setattr(transport, "solve_energies", recording)
        decomp = clean["decomposition"]
        grid = clean["energy_grid"]
        shares = [
            grid.energies[[t.energy_index for t in decomp.tasks_of_rank(r)]]
            .tolist()
            for r in range(3)
        ]
        e_bad = float(grid.energies[5])
        inj = FaultInjector(plan={("energy", (0, e_bad)): action})
        faulted = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=3, injector=inj,
        )
        assert faulted["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            faulted["density_per_atom"], clean["density_per_atom"]
        )
        assert inj.count(action) == 1
        # each rank's share is one stacked solve; a NaN row is re-solved
        # alone, a raise sends its whole share (rank 2's) point by point
        healed = [e_bad] if action == "nan" else shares[2]
        assert stacks == shares + [[e] for e in healed]
        assert faulted["degradation"].ladder_steps == (
            {"chunk:per-point": 1} if action == "nan"
            else {"chunk:exception": 1, "chunk:per-point": 1}
        )

    def test_permanent_task_fault_raises_task_failure(self, system):
        """A node quarantined inside a rank cannot be reweighted out of
        the common grid: the rank raises instead."""
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        decomp, grid = dist.decomposition(3, 0.1, pot)
        inj = FaultInjector(
            plan={("energy", (0, float(grid.energies[0]))): "raise"},
            once=False,
        )
        with pytest.raises(TaskFailure):
            dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3, injector=inj)


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

    def test_retry_heals_a_lost_collective(self):
        """A collective lost once is retried by the policy; the report
        counts the injected fault and its one retry."""
        inj = FaultInjector(plan={("comm", ("allreduce", 1)): "raise"})
        comm = UnreliableComm(SerialComm(), inj)
        report = DegradationReport()
        value = RetryPolicy(max_retries=2).run(
            lambda attempt: comm.allreduce(42.0, op="sum"), report=report
        )
        assert value == 42.0
        assert inj.n_injected == 1
        assert (report.injected_faults, report.retries) == (1, 1)

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


class _TransportSCF:
    """SCF stand-in converged at a fixed potential: each run is one
    transport solve (kept as :attr:`result`), so an IV point reports that
    solve's quadrature."""

    beta = 0.6
    mixing = "anderson"

    def __init__(self, calc, potential):
        self.calc = calc
        self.potential = potential
        self.result = None

    def run(self, v_gate, v_drain, phi0=None, continuation_step=0.12):
        res = self.result = self.calc.solve_bias(self.potential, v_drain)
        return types.SimpleNamespace(
            phi=np.zeros(5), potential_ev=self.potential, transport=res,
            residuals=[0.0], converged=True, n_iterations=1,
            flops=res.flops, degradation=res.degradation,
        )


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
        assert [
            (p.v_gate, p.v_drain)
            for p in curve.points if p.converged and p.recovery
        ] == [(0.0, 0.05)]
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
        assert curve.degradation.ladder_steps == {
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
        assert [
            (p.v_gate, p.v_drain) for p in curve.points if not p.converged
        ] == [(0.0, 0.05)]

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
        assert curve.degradation.injected_faults == 2
        assert curve.degradation.retries == 2
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
        assert [
            (p.v_gate, p.v_drain)
            for p in curve.points if "quarantined" in p.recovery
        ] == [(0.0, 0.05)]


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
        assert resumed.degradation.resumed_points == 2
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
        assert curve.degradation.resumed_points == 0
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
        ("illcond", {"block_lu:ill_conditioned": 42}),
        ("nan", {"block_lu:nonfinite": 42, "rgf:nonfinite": 42}),
    ])
    def test_hblock_fault_heals_to_the_same_account(self, system, mode, trips):
        """The whole account of a healed k-point (uniform grid: the counts
        are per node of its 21).  The corrupted H first fails as one
        stack — a trip counting every node at each sentinel site (an
        ill-conditioned factor is finite, so its trip alone rejects the
        stack; a NaN block trips the factor and the kernel) and one
        ``chunk:per-point`` — then each node alone trips the same sites on
        the first rung, the configured solver, and heals on
        ``per-point:robust``, built on a fresh H: 21 + 21 trips a site,
        1 + 21 ladder steps."""
        built, _ = system
        healed = TransportCalculation(
            built, method="rgf", n_energy=21, energy_mode="uniform",
            injector=FaultInjector(plan={("hblock", 0): mode}),
        ).solve_bias(np.zeros(built.n_atoms), 0.1)
        assert healed.degradation.to_dict() == {
            "ladder_steps": {"chunk:per-point": 1, "per-point:robust": 21},
            "sentinel_trips": trips,
            "quarantined_points": [], "reweighted_grids": 0,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            **NO_DRIVER_EVENTS,
            "total_events": 22 + sum(trips.values()),
        }

    #: Per quadrature: the size of its first wave over the 21-point
    #: window (the grid itself, or the adaptive seed ``max(21 // 2, 9)``),
    #: whose node 4 the drills poison, and what they pin on it — the IV
    #: point's node count, the refiner's exclusions and the budget
    #: error's context.
    DRILLS = {
        "uniform": (21, 21, 0, "k-point 0"),
        "adaptive": (10, 72, 1, "k-point 0 adaptive"),
    }

    def _poisoned(self, system, energy_mode, **kwargs):
        """``(calc, e_bad, potential)``: a WF calculation whose node 4 of
        its first wave is NaN on every solve (``once=False``)."""
        built, _ = system
        pot = np.zeros(built.n_atoms)
        grid = TransportCalculation(
            built, method="wf", n_energy=21, energy_mode="uniform"
        ).energy_grid(pot, 0.1)
        e_bad = float(np.linspace(
            grid.energies.min(), grid.energies.max(),
            self.DRILLS[energy_mode][0],
        )[4])
        inj = FaultInjector(
            plan={("energy", (0, e_bad)): "nan"}, once=False
        )
        calc = TransportCalculation(
            built, method="wf", n_energy=21, injector=inj,
            energy_mode=energy_mode, adaptive_tol=0.05, **kwargs,
        )
        return calc, e_bad, pot

    @pytest.mark.parametrize("energy_mode", ["uniform", "adaptive"])
    def test_persistent_fault_quarantined_and_reweighted(
        self, system, energy_mode
    ):
        """A persistent (``once=False``) NaN row fires on the stacked
        attempt and on each of the three rungs: 4 faults.  The two kernel
        solves of the ladder and the stack each trip the factor and the
        WF kernel once (3 + 3); the dense oracle has no sentinel site, its
        mask alone rejects the row.  Ladder: ``chunk:per-point``, the two
        climbed rungs and the reweight (4); 1 quarantined node and 1
        reweighted grid: 12 events — the same account on both
        quadratures.  The refiner retires the node's intervals instead of
        pinning refinement on it (one exclusion); the fixed grid drops it
        when it reweights."""
        calc, e_bad, pot = self._poisoned(system, energy_mode)
        _, n_nodes, excluded, _ = self.DRILLS[energy_mode]
        scf = _TransportSCF(calc, pot)
        curve = IVSweep(scf).transfer_curve([0.0], v_drain=0.1)
        res = scf.result
        assert np.isfinite(res.current_a)
        assert np.all(np.isfinite(res.transmission))
        assert curve.points[0].n_energy_nodes == n_nodes
        assert res.adaptive["excluded"] == excluded
        assert not res.adaptive["budget_hits"]
        inj = calc.injector
        assert inj.count("nan") == 4
        assert [f.site for f in inj.injected] == ["energy"] * 4
        assert res.degradation.to_dict() == {
            "ladder_steps": {"chunk:per-point": 1, "per-point:robust": 1,
                             "dense-oracle": 1, "quadrature:reweight": 1},
            "sentinel_trips": {"wf:nonfinite": 3, "block_lu:nonfinite": 3},
            "quarantined_points": [[0, e_bad]], "reweighted_grids": 1,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            **NO_DRIVER_EVENTS,
            "total_events": 12,
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
        # fired on the stacked attempt only (its row tripped the factor
        # and the kernel once each); the first rung, the configured
        # solver alone, is a clean stack of one, bit-identical to the
        # point's slice of the clean grid
        assert inj.count("nan") == inj.count() == 1
        assert healed.current_a == clean.current_a
        np.testing.assert_array_equal(
            healed.density_per_atom, clean.density_per_atom
        )
        assert healed.degradation.to_dict() == {
            "ladder_steps": {"chunk:per-point": 1},
            "sentinel_trips": {"wf:nonfinite": 1, "block_lu:nonfinite": 1},
            "quarantined_points": [], "reweighted_grids": 0,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            **NO_DRIVER_EVENTS,
            "total_events": 3,
        }
        assert healed.flops.total == clean.flops.total

    @pytest.mark.parametrize("energy_mode", ["uniform", "adaptive"])
    @pytest.mark.parametrize("method", ["rgf", "wf"])
    @pytest.mark.parametrize("site,action", [
        ("hblock", "nan"), ("hblock", "illcond"),
        ("energy", "nan"), ("energy", "raise"),
    ])
    def test_transient_faults_heal_bit_identically(
        self, system, site, action, method, energy_mode
    ):
        """Every transient (k, E) fault heals to the clean run bit for
        bit, on both kernels and both quadratures; the energy fault hits
        the window's top node, which both grids solve."""
        built, _ = system
        pot = np.zeros(built.n_atoms)

        def solve(injector=None):
            with use_sentinel(HealthSentinel(mode="contain")):
                return TransportCalculation(
                    built, method=method, n_energy=13,
                    energy_mode=energy_mode, adaptive_tol=0.05,
                    injector=injector,
                ).solve_bias(pot, 0.1)

        clean = solve()
        key = 0 if site == "hblock" else (
            0, float(clean.energy_grid.energies[-1])
        )
        inj = FaultInjector(plan={(site, key): action})
        healed = solve(inj)
        assert inj.count() == 1
        assert healed.current_a == clean.current_a
        np.testing.assert_array_equal(
            healed.density_per_atom, clean.density_per_atom
        )
        np.testing.assert_array_equal(healed.transmission, clean.transmission)
        assert healed.adaptive == clean.adaptive
        assert healed.flops.counts == clean.flops.counts
        assert not healed.degradation.quarantined_points

    @pytest.mark.parametrize("energy_mode", ["uniform", "adaptive"])
    def test_blown_budget_raises_typed(self, system, energy_mode):
        """Quarantine beyond the degradation budget raises the typed
        budget error, not a silent thin grid — on a fixed grid and inside
        refinement alike."""
        calc, _, pot = self._poisoned(
            system, energy_mode,
            degradation_budget=DegradationBudget(max_quarantined_points=0),
        )
        with pytest.raises(DegradationBudgetError) as info:
            calc.solve_bias(pot, 0.1)
        assert str(info.value) == (
            f"degradation budget exceeded ({self.DRILLS[energy_mode][3]}): "
            "1 energy nodes quarantined (cap 0)"
        )

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
        """A transient energy fault inside a wave rejects its row of the
        wave's stack (one factor and one kernel trip) and heals on the
        first rung, the configured solver alone: the refined result
        equals the clean run bit for bit, so the fault never influenced
        a refinement decision."""
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
        assert healed.degradation.to_dict() == {
            "ladder_steps": {"chunk:per-point": 1},
            "sentinel_trips": {"wf:nonfinite": 1, "block_lu:nonfinite": 1},
            "quarantined_points": [], "reweighted_grids": 0,
            "stragglers": 0, "speculative_wins": 0, "pool_restarts": 0,
            **NO_DRIVER_EVENTS,
            "total_events": 3,
        }


# ----------------------------------------------------------------------
def _drill_bias_retry(system, tmp_path):
    inj = FaultInjector(plan={
        ("bias", (0.0, 0.05)): "raise", ("bias", (0.1, 0.05)): "nan",
    })
    return IVSweep(
        _FlakySolver(fail_attempts=0), retry=RetryPolicy(max_retries=2),
        injector=inj,
    ).transfer_curve([0.0, 0.1], 0.05)


def _drill_bias_quarantine(system, tmp_path):
    inj = FaultInjector(plan={("bias", (0.0, 0.05)): "raise"}, once=False)
    return IVSweep(
        _FlakySolver(fail_attempts=0), retry=RetryPolicy(max_retries=1),
        injector=inj,
    ).transfer_curve([0.0, 0.1], 0.05)


def _drill_scf_rescue(system, tmp_path):
    return IVSweep(_FlakySolver(fail_attempts=2)).transfer_curve([0.0], 0.05)


def _drill_rank_requeue(system, tmp_path):
    built, tc = system
    return DistributedTransport(tc).solve_bias(
        np.zeros(built.n_atoms), 0.1, SerialComm(), n_ranks=4,
        injector=FaultInjector(plan={("rank", 1): "dead_rank"}),
    )


def _drill_resume(system, tmp_path):
    path = tmp_path / "resume.npz"
    IVSweep(_FlakySolver(fail_attempts=0), checkpoint=path).transfer_curve(
        [0.0, 0.1], 0.05
    )
    return IVSweep(
        _FlakySolver(fail_attempts=0), checkpoint=path, resume=True
    ).transfer_curve([0.0, 0.1, 0.2], 0.05)


def _drill_energy_quarantine(system, tmp_path):
    built, _ = system
    pot = np.zeros(built.n_atoms)
    probe = TransportCalculation(
        built, method="wf", n_energy=21, energy_mode="uniform"
    )
    e_bad = float(probe.energy_grid(pot, 0.1).energies[4])
    return TransportCalculation(
        built, method="wf", n_energy=21, energy_mode="uniform",
        injector=FaultInjector(
            plan={("energy", (0, e_bad)): "nan"}, once=False
        ),
    ).solve_bias(pot, 0.1)


#: Each drill's two former ledgers — the run ledger of faults, retries,
#: recovery paths (``fallbacks``), dead ranks and resumes, and the
#: degradation report — as they read before they were merged, with the
#: per-bias key lists of the run ledger
#: ``(degraded, quarantined, unconverged)``; then the recovery events
#: the drill took, each counted once.
ONE_ACCOUNT_DRILLS = {
    "bias-retry": (
        _drill_bias_retry,
        {"injected_faults": 2, "retries": 2},
        {},
        ([(0.0, 0.05), (0.1, 0.05)], [], []),
        2,  # two faults; their retries are how they were handled
    ),
    "bias-quarantine": (
        _drill_bias_quarantine,
        {"injected_faults": 2, "retries": 1},
        {},
        ([], [(0.0, 0.05)], []),
        2,
    ),
    "scf-rescue": (
        _drill_scf_rescue,
        {"fallbacks": {"scf:beta-halved": 1, "scf:linear-mixing": 1}},
        {},
        ([(0.0, 0.05)], [], []),
        2,  # one event a rung
    ),
    "rank-requeue": (
        _drill_rank_requeue,
        {"fallbacks": {"rank:requeue": 1}, "rank_failures": 1,
         "requeued_tasks": 5},
        {},
        None,
        1,  # the dead rank is its requeue step
    ),
    "checkpoint-resume": (
        _drill_resume,
        {"resumed_points": 2},
        {},
        ([], [], []),
        2,
    ),
    "energy-ladder-quarantine": (
        _drill_energy_quarantine,
        {},
        {"sentinel_trips": {"block_lu:nonfinite": 3, "wf:nonfinite": 3},
         "ladder_steps": {"chunk:per-point": 1, "per-point:robust": 1,
                          "dense-oracle": 1, "quadrature:reweight": 1},
         "quarantined_points": 1, "reweighted_grids": 1},
        None,
        12,  # the former degradation total, unchanged
    ),
}


def _counts(account: dict) -> dict:
    """An account's counts: a quarantined node list becomes its length."""
    return {
        **account, "quarantined_points": len(account["quarantined_points"])
    }


class TestOneAccount:
    """A run keeps one account of what it survived: every recovery kind
    lands in its :class:`DegradationReport` with the counts its two
    former ledgers held between them, and no event counts twice."""

    @pytest.mark.parametrize("kind", list(ONE_ACCOUNT_DRILLS))
    def test_recovery_lands_once_in_the_one_account(
        self, system, tmp_path, kind
    ):
        drill, ledger, degradation, bias_keys, events = (
            ONE_ACCOUNT_DRILLS[kind]
        )
        result = drill(system, tmp_path)
        account = (
            result["degradation"] if isinstance(result, dict)
            else result.degradation
        )
        combined = _counts(DegradationReport().to_dict())
        combined.update(degradation)
        combined["ladder_steps"] = {
            **combined["ladder_steps"], **ledger.get("fallbacks", {})
        }
        combined.update(
            {k: v for k, v in ledger.items() if k != "fallbacks"}
        )
        combined["total_events"] = events
        assert _counts(account.to_dict()) == combined
        if bias_keys is not None:
            degraded, quarantined, unconverged = bias_keys
            points = result.points

            def keys(keep):
                return [(p.v_gate, p.v_drain) for p in points if keep(p)]

            assert keys(lambda p: p.converged and p.recovery) == degraded
            assert keys(lambda p: "quarantined" in p.recovery) == quarantined
            # a quarantined point is not converged either
            assert keys(lambda p: not p.converged) == quarantined + unconverged

    def test_merge_adds_every_counter(self):
        a, b = DegradationReport(), DegradationReport()
        b.record_fault(injected=True)
        b.record_fault()
        b.retries = 1
        b.rank_failures, b.requeued_tasks = 1, 5
        b.record_ladder("rank:requeue")
        b.resumed_points = 2
        a.merge(b)
        a.merge(b)
        assert a.to_dict() == {
            **DegradationReport().to_dict(),
            "ladder_steps": {"rank:requeue": 2},
            "injected_faults": 2, "organic_faults": 2, "retries": 2,
            "rank_failures": 2, "requeued_tasks": 10, "resumed_points": 4,
            "total_events": 10,
        }
        summary = a.summary()
        assert "2 injected, 2 organic, 2 retries" in summary
        assert "dead ranks     : 2, 10 task(s) reclaimed" in summary

    def test_the_second_ledger_is_gone(self):
        """One account class: ``repro.resilience`` defines and exports no
        report but :class:`DegradationReport`, no module under
        ``src/repro`` names a report class that is not defined there, and
        the drivers take no ``report=``."""
        import ast
        import importlib
        import inspect
        from pathlib import Path

        import repro
        import repro.resilience as resilience
        from repro.core import IVCurve

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.resilience.report")
        assert [
            name for name in resilience.__all__ if name.endswith("Report")
        ] == ["DegradationReport"]
        defined, named = {}, {}
        for path in Path(repro.__file__).parent.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    defined[node.name] = path
                elif isinstance(node, ast.Name):
                    named[node.id] = path
                elif isinstance(node, ast.Attribute):
                    named[node.attr] = path
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    named.update((alias.name, path) for alias in node.names)
        in_resilience = [
            name for name, path in defined.items()
            if name.endswith("Report") and path.parent.name == "resilience"
        ]
        assert in_resilience == ["DegradationReport"]
        undefined = {
            name: str(path) for name, path in named.items()
            if name.endswith("Report") and name not in defined
        }
        assert undefined == {}
        for fn in (
            SCFRescue.run, robust_surface_gf, DistributedTransport.solve_bias,
            IVSweep._solve_point,
        ):
            assert "report" not in inspect.signature(fn).parameters
        assert not hasattr(IVCurve(), "report")


class TestOneHomePerCheck:
    """Each fault drill is a tier-1 test and each baseline is checked by
    ``scripts/refresh_baselines.py --check``: there is no second harness
    in the package that drives the same checks, and no dead-rank
    recovery but the requeue."""

    @pytest.mark.parametrize("module", [
        "repro.resilience.chaos", "repro.observability.regression",
    ])
    def test_harness_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    @pytest.mark.parametrize("argv", [
        ["chaos"],
        ["doctor", "s.json", "--baselines", "benchmarks/baselines"],
        ["doctor", "--events", "run.jsonl"],
    ], ids=["chaos", "doctor-baselines", "doctor-events"])
    def test_cli_rejects_the_harness_options(self, argv):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    def test_requeue_is_the_one_rank_recovery(self, system):
        built, tc = system
        with pytest.raises(TypeError):
            DistributedTransport(tc).solve_bias(
                np.zeros(built.n_atoms), 0.1, SerialComm(), n_ranks=4,
                rank_recovery="shrink",
            )
