"""SCF-loop and I-V engine tests on a small grid-material FET."""

import numpy as np
import pytest

from repro.core import (
    DeviceSpec,
    IVSweep,
    SelfConsistentSolver,
    TransportCalculation,
    build_device,
    subthreshold_swing_mv_dec,
)


@pytest.fixture(scope="module")
def fet():
    spec = DeviceSpec(
        n_x=12,
        n_y=2,
        n_z=2,
        spacing_nm=0.25,
        source_cells=4,
        drain_cells=4,
        gate_cells=(4, 7),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    built = build_device(spec)
    transport = TransportCalculation(built, method="wf", n_energy=31)
    return built, transport


VGS = [-0.2, 0.0, 0.1]


def counted_solver(built, **calc_kwargs):
    """``(scf, solved, runs)`` on a fresh calculation: ``solved`` lists the
    potential of every ``solve_bias`` call, ``runs`` one ``(v_gate, phi0,
    solve_bias calls made, SCFResult)`` row per ``scf.run`` that returned."""
    calc_kwargs.setdefault("n_energy", 21)
    calc = TransportCalculation(built, **calc_kwargs)
    solved, runs = [], []
    real_solve = calc.solve_bias

    def solve_bias(potential_ev, *args, **kwargs):
        solved.append(potential_ev)
        return real_solve(potential_ev, *args, **kwargs)

    calc.solve_bias = solve_bias
    scf = SelfConsistentSolver(built, calc, max_iterations=40)
    real_run = scf.run

    def run(v_gate, v_drain, phi0=None, **kwargs):
        before = len(solved)
        result = real_run(v_gate, v_drain, phi0=phi0, **kwargs)
        runs.append((v_gate, phi0, len(solved) - before, result))
        return result

    scf.run = run
    return scf, solved, runs


class TestSCF:
    def test_converges(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=40)
        out = scf.run(v_gate=0.0, v_drain=0.05)
        assert out.converged
        assert out.residuals[-1] < scf.tol_v

    def test_residuals_decrease_overall(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=40)
        out = scf.run(v_gate=-0.2, v_drain=0.05)
        assert out.converged
        assert out.residuals[-1] < out.residuals[0]

    def test_gate_modulates_current(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=40)
        i_off = scf.run(v_gate=-0.4, v_drain=0.05).transport.current_a
        i_on = scf.run(v_gate=0.1, v_drain=0.05).transport.current_a
        assert i_on > 50 * max(i_off, 1e-30)

    def test_gate_raises_channel_barrier(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=40)
        out_neg = scf.run(v_gate=-0.4, v_drain=0.0)
        out_pos = scf.run(v_gate=0.1, v_drain=0.0)
        slab = built.device.slab_of_atom()
        mid = built.device.n_slabs // 2
        u_neg = out_neg.potential_ev[slab == mid].mean()
        u_pos = out_pos.potential_ev[slab == mid].mean()
        assert u_neg > u_pos + 0.2

    def test_warm_start_accelerates(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=30)
        cold = scf.run(v_gate=0.0, v_drain=0.05)
        warm = scf.run(v_gate=0.0, v_drain=0.05, phi0=cold.phi)
        assert warm.n_iterations <= cold.n_iterations

    def test_flop_accounting_accumulates(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=10)
        out = scf.run(v_gate=0.0, v_drain=0.05)
        single = transport.solve_bias(
            np.zeros(built.n_atoms), 0.05
        ).flops.total
        assert out.flops.total > single

    def test_ramp_stages_end_at_convergence(self, fet):
        """A continuation stage hands on its potential; nobody reads a
        report of it, so none is solved."""
        built, _ = fet
        scf, solved, _ = counted_solver(built)
        stages = []
        real_iterate = scf._iterate

        def iterate(*args, **kwargs):
            out = real_iterate(*args, **kwargs)
            stages.append(len(out[1]))
            return out

        scf._iterate = iterate
        out = scf.run(0.0, 0.3)  # 0.1 V, 0.2 V, then the bias itself
        assert out.converged and len(stages) == 3
        assert out.n_iterations == sum(stages)
        assert len(out.residuals) == stages[-1]
        assert len(solved) == sum(stages) + 1

    def test_invalid_mixing(self, fet):
        built, transport = fet
        with pytest.raises(ValueError):
            SelfConsistentSolver(built, transport, mixing="broyden")

    def test_drain_bias_depletes_channel(self, fet):
        """Lowering mu_D empties the drain-injected half of the channel
        population (the contacts themselves stay neutral by SCF)."""
        built, _ = fet
        transport = TransportCalculation(built, method="wf", n_energy=81)
        scf = SelfConsistentSolver(built, transport)
        eq = scf.run(v_gate=0.1, v_drain=0.0)
        hi = scf.run(v_gate=0.1, v_drain=0.3)
        assert eq.converged and hi.converged
        slab = built.device.slab_of_atom()
        mid = built.device.n_slabs // 2
        n_eq = eq.transport.density_per_atom[slab == mid].mean()
        n_hi = hi.transport.density_per_atom[slab == mid].mean()
        assert n_hi < n_eq
        # and the bias drives a current where equilibrium has none
        assert abs(eq.transport.current_a) < 1e-12
        assert hi.transport.current_a > 1e-8


class TestIVSweep:
    def test_transfer_curve_monotone(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=40)
        sweep = IVSweep(scf)
        vgs = np.linspace(-0.4, 0.1, 5)
        curve = sweep.transfer_curve(vgs, v_drain=0.05)
        i = curve.currents()
        assert np.all(np.diff(i) > 0)
        assert curve.on_off_ratio() > 10
        assert all(p.converged for p in curve.points)

    def test_output_curve_saturates(self, fet):
        built, _ = fet
        # the density integral needs a fine grid in strong inversion to
        # avoid resonance aliasing: at 81 points over the window the first
        # point's Anderson trajectory wanders for 30-70 iterations and a
        # last-digit change of the kernel decides which; at 121 it does not
        transport = TransportCalculation(built, method="wf", n_energy=121)
        scf = SelfConsistentSolver(built, transport, max_iterations=60)
        sweep = IVSweep(scf)
        vds = np.array([0.02, 0.1, 0.2, 0.3])
        curve = sweep.output_curve(v_gate=0.0, drain_voltages=vds)
        i = curve.currents()
        assert all(p.converged for p in curve.points)
        # non-decreasing up to the SCF tolerance noise (~1% of I_on)
        assert np.all(np.diff(i) > -0.02 * i.max())
        # saturation: the last increment is much smaller than the first
        g_first = (i[1] - i[0]) / (vds[1] - vds[0])
        g_last = (i[3] - i[2]) / (vds[3] - vds[2])
        assert g_last < 0.5 * g_first
        # the seat is robust to rounding: the other kernel (same physics,
        # different last digits) walks the first point in as many steps
        rgf = TransportCalculation(built, method="rgf", n_energy=121)
        twin = SelfConsistentSolver(built, rgf, max_iterations=60).run(
            v_gate=0.0, v_drain=vds[0]
        )
        assert twin.converged
        assert twin.n_iterations == curve.points[0].n_iterations

    @pytest.mark.parametrize(
        "kind, handed_over",
        [("transfer", 2), ("output", 0), ("cold", 0), ("resumed", 0)],
    )
    def test_sweep_solves_each_potential_once(
        self, fet, tmp_path, kind, handed_over
    ):
        """Point n + 1 of a warm transfer sweep starts from the potential
        point n reported at the same drain bias: that solve is handed
        over.  Nothing else matches, and everything else solves."""
        from repro.observability import MetricsRegistry, use_metrics

        built, _ = fet
        scf, solved, _ = counted_solver(built)
        path = tmp_path / "iv.npz"
        if kind == "resumed":
            IVSweep(
                counted_solver(built)[0], checkpoint=path
            ).transfer_curve(VGS[:2], 0.05)
        with use_metrics(MetricsRegistry()) as registry:
            if kind == "transfer":
                curve = IVSweep(scf).transfer_curve(VGS, 0.05)
            elif kind == "output":
                curve = IVSweep(scf).output_curve(0.0, [0.02, 0.05, 0.1])
            elif kind == "cold":
                curve = IVSweep(scf).transfer_curve(VGS, 0.05, warm_start=False)
            else:
                curve = IVSweep(
                    scf, checkpoint=path, resume=True
                ).transfer_curve(VGS, 0.05)
        resumed = curve.degradation.resumed_points
        assert resumed == (2 if kind == "resumed" else 0)
        computed = curve.points[resumed:]
        assert all(p.converged for p in curve.points)
        every = sum(p.n_iterations + 1 for p in computed)
        assert len(solved) == every - handed_over
        snap = registry.snapshot()
        assert snap.counter("scf.transport_solves") == len(solved)
        assert snap.counter("scf.transport_reused") == handed_over
        assert snap.counter("scf.iterations") == every - len(computed)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("method", ["wf", "rgf"])
    def test_hand_over_is_bit_identical_to_solving(self, fet, method, backend):
        """Reference: a fresh solver per point, fed the previous ``phi`` —
        nothing to hand over, every first iterate solved."""
        built, _ = fet
        scf, solved, runs = counted_solver(
            built, method=method, backend=backend, workers=2
        )
        curve = IVSweep(scf).transfer_curve(VGS, 0.05)
        assert len(solved) == sum(p.n_iterations + 1 for p in curve.points) - 2
        phi = None
        for v_gate, (_, _, _, swept), point in zip(VGS, runs, curve.points):
            fresh = SelfConsistentSolver(built, scf.transport, max_iterations=40)
            ref = fresh.run(v_gate, 0.05, phi0=phi)
            phi = ref.phi
            assert np.array_equal(swept.phi, ref.phi)
            assert swept.residuals == ref.residuals
            assert swept.n_iterations == ref.n_iterations == point.n_iterations
            assert point.current_a == ref.transport.current_a
            assert np.array_equal(
                swept.transport.density_per_atom, ref.transport.density_per_atom
            )

    def test_retried_attempt_solves_its_first_iterate(self, fet):
        from repro.errors import NumericalBreakdownError

        built, _ = fet
        scf, solved, runs = counted_solver(built)
        counting_solve = scf.transport.solve_bias
        armed = []

        def failing_once(*args, **kwargs):
            if armed:
                armed.clear()
                raise NumericalBreakdownError("drill")
            return counting_solve(*args, **kwargs)

        scf.transport.solve_bias = failing_once
        counting_run = scf.run
        attempts = []

        def run(v_gate, *args, **kwargs):
            # first attempt of point 2: its first iterate is handed over,
            # its second one raises
            attempts.append(v_gate)
            if attempts == VGS[:2]:
                armed.append(True)
            return counting_run(v_gate, *args, **kwargs)

        scf.run = run
        curve = IVSweep(scf, max_retries=1).transfer_curve(VGS, 0.05)
        assert curve.degradation.retries == 1
        assert curve.points[1].recovery == ("retry*1",)
        clean = IVSweep(counted_solver(built)[0]).transfer_curve(VGS, 0.05)
        assert [p.current_a for p in curve.points] == [
            p.current_a for p in clean.points
        ]
        # runs holds the three that returned: the retry of point 2 solved
        # every iterate, the untouched points 1 -> 3 hand-over still holds
        assert [r[0] for r in runs] == VGS
        assert [r[2] - r[3].n_iterations for r in runs] == [1, 1, 0]
        reported = runs[0][3].potential_ev
        assert sum(np.array_equal(u, reported) for u in solved) == 2

    def test_rescue_rungs_solve_every_iterate(self, fet):
        built, _ = fet
        scf, _, runs = counted_solver(built)
        scf.max_iterations = 2  # nothing converges: every point is rescued
        curve = IVSweep(scf).transfer_curve(VGS[:2], 0.05)
        assert all(p.recovery for p in curve.points)
        cold = [r for r in runs if r[1] is None]
        assert len(cold) >= 4
        assert all(r[2] == r[3].n_iterations + 1 for r in cold)

    def test_energy_fault_aimed_at_point_two_still_fires(self, fet):
        """Its first iterate is handed over, so the fault meets the first
        iterate that solves — and is healed there."""
        from repro.resilience import FaultInjector

        built, _ = fet
        scf, solved, runs = counted_solver(built)
        injector = FaultInjector(
            rate=1.0, sites=("energy",), actions=("nan",), max_faults=1
        )
        counting_run = scf.run
        fired_at = []
        counting_solve = scf.transport.solve_bias

        def watching_solve(*args, **kwargs):
            result = counting_solve(*args, **kwargs)
            if injector.n_injected and not fired_at:
                fired_at.append(len(solved))
            return result

        scf.transport.solve_bias = watching_solve

        def run(v_gate, *args, **kwargs):
            if v_gate == VGS[1]:
                scf.transport.injector = injector
            return counting_run(v_gate, *args, **kwargs)

        scf.run = run
        curve = IVSweep(scf).transfer_curve(VGS, 0.05)
        # max_faults caps the one serial dispatch at one fault; each pool
        # chunk starts from the account at dispatch and fires its own
        backend = scf.transport.backend
        assert injector.n_injected == (
            1 if backend.name == "serial" else backend.workers
        )
        assert fired_at == [runs[0][2] + 1]  # point 2's first solve_bias call
        assert all(p.converged for p in curve.points)
        assert np.all(np.isfinite(curve.currents()))
        assert curve.degradation.total_events >= 1

    def test_bias_work_items(self, fet):
        built, transport = fet
        sweep = IVSweep(SelfConsistentSolver(built, transport))
        items = sweep.bias_work_items([0.0, 0.1], [0.05, 0.1, 0.2])
        assert len(items) == 6

    def test_empty_curve_ratio(self, fet):
        from repro.core.iv import IVCurve

        with pytest.raises(ValueError):
            IVCurve().on_off_ratio()


class TestSubthresholdSwing:
    def test_ideal_thermal_limit(self):
        """A perfectly gated thermionic barrier gives ~59.6 mV/dec at 300K."""
        from repro.physics.constants import KT_ROOM

        vg = np.linspace(-0.3, 0.0, 31)
        i = np.exp(vg / KT_ROOM)  # perfect gate efficiency
        ss = subthreshold_swing_mv_dec(vg, i)
        assert ss == pytest.approx(59.5, abs=1.0)

    def test_simulated_fet_above_thermal_limit(self, fet):
        built, transport = fet
        scf = SelfConsistentSolver(built, transport, max_iterations=40)
        sweep = IVSweep(scf)
        vgs = np.linspace(-0.45, -0.3, 6)
        curve = sweep.transfer_curve(vgs, v_drain=0.05)
        ss = subthreshold_swing_mv_dec(
            curve.gate_voltages(), curve.currents(), method="fit"
        )
        assert ss > 55.0  # cannot beat Boltzmann (5% quadrature tolerance)
        assert ss < 300.0  # but the gate must actually work

    def test_validation(self):
        with pytest.raises(ValueError):
            subthreshold_swing_mv_dec(np.array([0.0, 0.1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            subthreshold_swing_mv_dec(
                np.array([0.0, 0.1, 0.2]), np.array([1.0, 0.0, 2.0])
            )
        with pytest.raises(ValueError):
            subthreshold_swing_mv_dec(
                np.array([0.0, 0.1, 0.2]), np.array([1.0, 1.0, 1.0])
            )
        with pytest.raises(ValueError):
            subthreshold_swing_mv_dec(
                np.array([0.0, 0.1, 0.2]), np.array([1.0, 2.0, 4.0]), method="avg"
            )
        # min-segment variant works on clean data
        from repro.physics.constants import KT_ROOM
        vg = np.linspace(-0.2, 0.0, 9)
        ss = subthreshold_swing_mv_dec(vg, np.exp(vg / KT_ROOM), method="min")
        assert ss == pytest.approx(59.5, abs=1.0)
