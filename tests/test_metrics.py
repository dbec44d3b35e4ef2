"""Tests for the metrics registry and the invariant monitors.

Covers the two monitoring pillars of the observability layer:
:mod:`repro.observability.metrics` (counters / gauges / histograms /
series with the null-registry default) and
:mod:`repro.observability.invariants` (physics monitors recording into
the registry, strict escalation), plus their integration through the SCF
loop, the distributed driver and the ``repro doctor`` CLI.
"""

import json

import numpy as np
import pytest

from repro.errors import PhysicsInvariantError
from repro.observability import (
    NULL_METRICS,
    InvariantMonitor,
    LogLinearHistogram,
    MetricsRegistry,
    MetricsSnapshot,
    get_metrics,
    metric_key,
    use_metrics,
    use_monitor,
)


class TestMetricKey:
    def test_no_labels(self):
        assert metric_key("scf.iterations", {}) == "scf.iterations"

    def test_labels_sorted(self):
        key = metric_key("x", {"b": 1, "a": "two"})
        assert key == "x{a=two,b=1}"


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        r = MetricsRegistry()
        r.inc("calls")
        r.inc("calls", 2.0)
        assert r.snapshot().counter("calls") == 3.0

    def test_labels_separate_series(self):
        r = MetricsRegistry()
        r.inc("invariant.checks", 1.0, invariant="gamma")
        r.inc("invariant.checks", 1.0, invariant="density")
        snap = r.snapshot()
        assert snap.counter("invariant.checks", invariant="gamma") == 1.0
        assert snap.total("invariant.checks") == 2.0

    def test_gauges_last_wins(self):
        r = MetricsRegistry()
        r.gauge("beta", 0.3)
        r.gauge("beta", 0.1)
        assert r.snapshot().gauge("beta") == 0.1

    def test_series_ordered_with_steps(self):
        r = MetricsRegistry()
        for i, v in enumerate([1.0, 0.1, 0.01]):
            r.record("resid", v, step=i, vg="0.1")
        snap = r.snapshot()
        series = snap.series[metric_key("resid", {"vg": "0.1"})]
        assert [s for s, _ in series] == [0, 1, 2]
        assert [v for _, v in series] == [1.0, 0.1, 0.01]

    def test_snapshot_is_detached(self):
        r = MetricsRegistry()
        r.inc("n")
        snap = r.snapshot()
        r.inc("n")
        assert snap.counter("n") == 1.0
        assert r.snapshot().counter("n") == 2.0

    def test_reset(self):
        r = MetricsRegistry()
        r.inc("n")
        r.reset()
        assert r.snapshot().counter("n") == 0.0


class TestNullRegistryDefault:
    def test_default_is_disabled(self):
        m = get_metrics()
        assert m is NULL_METRICS
        assert not m.enabled

    def test_null_ops_are_inert(self):
        NULL_METRICS.inc("x")
        NULL_METRICS.gauge("x", 1.0)
        NULL_METRICS.observe("x", 1.0)
        NULL_METRICS.record("x", 1.0)
        snap = NULL_METRICS.snapshot()
        assert snap.counters == {}

    def test_use_metrics_scopes_and_restores(self):
        r = MetricsRegistry()
        with use_metrics(r):
            assert get_metrics() is r
            get_metrics().inc("scoped")
        assert get_metrics() is NULL_METRICS
        assert r.snapshot().counter("scoped") == 1.0


class TestLogLinearHistogram:
    def test_mean_and_count(self):
        h = LogLinearHistogram()
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(2.0)

    def test_quantile_monotone(self):
        h = LogLinearHistogram()
        for v in np.geomspace(1e-6, 1e3, 200):
            h.observe(float(v))
        q50 = h.quantile(0.5)
        q95 = h.quantile(0.95)
        assert q50 <= q95

    def test_quantile_log_accuracy(self):
        """Log-linear buckets resolve quantiles to ~1/SUBBUCKETS."""
        h = LogLinearHistogram()
        rng = np.random.default_rng(0)
        data = rng.lognormal(mean=0.0, sigma=2.0, size=2000)
        for v in data:
            h.observe(float(v))
        exact = float(np.quantile(data, 0.9))
        assert h.quantile(0.9) == pytest.approx(exact, rel=0.3)

    def test_merge(self):
        a, b = LogLinearHistogram(), LogLinearHistogram()
        a.observe(1.0)
        b.observe(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)

    def test_roundtrip(self):
        h = LogLinearHistogram()
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        h2 = LogLinearHistogram.from_dict(h.to_dict())
        assert h2.count == h.count
        assert h2.quantile(0.5) == h.quantile(0.5)


class TestSnapshotAlgebra:
    def test_merge_adds_counters_concats_series(self):
        a = MetricsSnapshot(counters={"n": 1.0}, series={"s": [(0, 1.0)]})
        b = MetricsSnapshot(counters={"n": 2.0}, series={"s": [(1, 0.5)]})
        m = a.merge(b)
        assert m.counter("n") == 3.0
        assert m.series["s"] == [(0, 1.0), (1, 0.5)]

    def test_diff_subtracts(self):
        before = MetricsSnapshot(counters={"n": 2.0})
        after = MetricsSnapshot(counters={"n": 5.0, "new": 1.0})
        d = after.diff(before)
        assert d.counter("n") == 3.0
        assert d.counter("new") == 1.0

    def test_json_roundtrip(self, tmp_path):
        r = MetricsRegistry()
        r.inc("n", 2.0)
        r.observe("h", 1.5)
        r.record("s", 0.1, step=0)
        path = tmp_path / "metrics.json"
        r.snapshot().write(path)
        snap = MetricsSnapshot.load(path)
        assert snap.counter("n") == 2.0
        assert snap.histograms["h"].count == 1
        assert snap.series["s"] == [(0, 0.1)]

    def test_flat_view(self):
        r = MetricsRegistry()
        r.inc("n", 2.0)
        r.observe("h", 4.0)
        r.record("s", 0.25, step=0)
        flat = r.snapshot().flat()
        assert flat["n"] == 2.0
        assert flat["h.count"] == 1
        assert flat["h.mean"] == pytest.approx(4.0)
        assert flat["s.last"] == 0.25


class TestInvariantMonitor:
    def test_transmission_violation_recorded_not_fatal(self):
        m = InvariantMonitor()
        assert m.check_transmission(2.5, n_modes=2) is False
        assert m.n_violations == 1
        assert m.violations[0].invariant == "transmission_bounds"

    def test_transmission_within_bounds_passes(self):
        m = InvariantMonitor()
        assert m.check_transmission(1.999, n_modes=2) is True
        assert m.n_violations == 0

    def test_density_nan_flags(self):
        m = InvariantMonitor()
        assert m.check_density(np.array([1.0, np.nan])) is False

    def test_density_negative_flags(self):
        m = InvariantMonitor()
        assert m.check_density(np.array([1.0, -1e-3])) is False
        assert m.check_density(np.array([1.0, -1e-15])) is True

    def test_current_conservation(self):
        m = InvariantMonitor()
        good = np.full(5, 0.7)
        assert m.check_current_conservation(good, 0.7) is True
        leaky = np.array([0.7, 0.7, 0.5])
        assert m.check_current_conservation(leaky, 0.7) is False

    def test_gamma_hermiticity(self):
        m = InvariantMonitor()
        g = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        assert m.check_gamma(g) is True
        assert m.check_gamma(g + np.array([[0, 0.1], [0, 0]])) is False

    def test_charge_neutrality_two_decades(self):
        m = InvariantMonitor()
        assert m.check_charge_neutrality(50.0, 10.0) is True
        assert m.check_charge_neutrality(10.0 * 150.0, 10.0) is False

    def test_strict_raises(self):
        m = InvariantMonitor(strict=True)
        with pytest.raises(PhysicsInvariantError) as exc:
            m.check_density(np.array([-1.0]))
        assert exc.value.invariant == "density_nonnegative"
        # the violation is still recorded before escalation
        assert m.n_violations == 1

    def test_violations_flow_into_registry(self):
        r = MetricsRegistry()
        with use_metrics(r):
            m = InvariantMonitor()
            m.check_transmission(5.0, n_modes=1)
            m.check_transmission(0.5, n_modes=1)
        snap = r.snapshot()
        assert snap.counter(
            "invariant.violations", invariant="transmission_bounds"
        ) == 1.0
        assert snap.counter(
            "invariant.checks", invariant="transmission_bounds"
        ) == 1.0

    def test_summary_mentions_violations(self):
        m = InvariantMonitor()
        m.check_density(np.array([-1.0]))
        assert "1 violation" in m.summary()

    def test_marker_after_a_partial_absorb(self):
        """A chunk past the bound ships fewer records than it counts:
        after absorbing 5 records counted as 100, the next violation is
        read by ``violations_since(marker())`` and counted."""
        source = InvariantMonitor()
        for _ in range(5):
            source.check_transmission(2.5, n_modes=2)
        m = InvariantMonitor()
        m.absorb(source.violations, {"transmission_bounds": 100})
        marker = m.marker()
        m.check_density(np.array([-1.0]))
        [new] = m.violations_since(marker)
        assert new.invariant == "density_nonnegative"
        assert m.violations == source.violations + [new]
        assert m.n_violations == 101


@pytest.fixture(scope="module")
def tiny_built():
    from repro.core import DeviceSpec, build_device

    return build_device(DeviceSpec(
        name="metrics-fet",
        n_x=10, n_y=2, n_z=2,
        source_cells=3, drain_cells=3, gate_cells=(4, 6),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    ))


class TestInstrumentationIntegration:
    def test_scf_records_convergence_series(self, tiny_built):
        from repro.core import SelfConsistentSolver, TransportCalculation

        transport = TransportCalculation(
            tiny_built, method="wf", n_energy=21
        )
        scf = SelfConsistentSolver(tiny_built, transport)
        r = MetricsRegistry()
        with use_metrics(r):
            result = scf.run(0.0, 0.05)
        snap = r.snapshot()
        residuals = snap.with_prefix("series", "scf.residual_v")
        assert len(residuals) == 1
        (key, series), = residuals.items()
        assert "vg=0" in key and "vd=0.05" in key
        # the recorded series is exactly the SCF residual history
        assert [v for _, v in series] == pytest.approx(result.residuals)
        assert snap.counter("scf.bias_points") == 1.0
        assert snap.counter("scf.iterations") == result.n_iterations

    def test_clean_run_has_zero_violations(self, tiny_built):
        from repro.core import SelfConsistentSolver, TransportCalculation

        transport = TransportCalculation(
            tiny_built, method="wf", n_energy=21
        )
        scf = SelfConsistentSolver(tiny_built, transport)
        r = MetricsRegistry()
        monitor = InvariantMonitor()
        with use_metrics(r), use_monitor(monitor):
            scf.run(0.0, 0.05)
        snap = r.snapshot()
        assert monitor.n_violations == 0
        assert snap.total("invariant.checks") > 100
        assert snap.total("invariant.violations") == 0.0

    def test_distributed_records_level_traffic(self, tiny_built):
        from repro.core import DistributedTransport, TransportCalculation
        from repro.parallel import CommTrace

        transport = TransportCalculation(
            tiny_built, method="wf", n_energy=11
        )
        dist = DistributedTransport(transport, max_spatial=2)
        from repro.parallel import TracedComm

        trace = CommTrace()
        comm = TracedComm(1, 0, trace)
        potential = np.zeros(tiny_built.n_atoms)
        dist.solve_bias(potential, 0.05, comm, n_ranks=64)
        by_level = trace.by_level()
        # bias bcast+gather always recorded; energy level engaged at 64
        # ranks; spatial engaged through max_spatial
        assert by_level["bias"]["messages"] == 2
        assert by_level["energy"]["bytes"] > 0
        assert by_level["spatial"]["bytes"] > 0

    def test_surface_gf_iteration_histogram(self):
        from repro.negf import sancho_rubio

        h00 = np.array([[0.5]])
        h01 = np.array([[-0.2]])
        r = MetricsRegistry()
        with use_metrics(r):
            sancho_rubio(0.4, h00, h01)
        snap = r.snapshot()
        key = metric_key("surface_gf.iterations", {"side": "left"})
        assert snap.histograms[key].count == 1

    def test_iv_curve_carries_snapshot(self, tiny_built):
        from repro.core import (
            IVSweep,
            SelfConsistentSolver,
            TransportCalculation,
        )

        transport = TransportCalculation(
            tiny_built, method="wf", n_energy=21
        )
        sweep = IVSweep(SelfConsistentSolver(tiny_built, transport))
        r = MetricsRegistry()
        with use_metrics(r):
            curve = sweep.transfer_curve(np.array([0.0]), v_drain=0.05)
        assert curve.metrics is not None
        assert curve.metrics.counter("scf.bias_points") == 1.0

    def test_disabled_run_records_nothing(self, tiny_built):
        """Null-registry default: no metrics state leaks from a plain run."""
        from repro.core import SelfConsistentSolver, TransportCalculation

        transport = TransportCalculation(
            tiny_built, method="wf", n_energy=21
        )
        scf = SelfConsistentSolver(tiny_built, transport)
        scf.run(-0.1, 0.05)
        assert get_metrics() is NULL_METRICS
        assert NULL_METRICS.snapshot().counters == {}


class TestDoctorCLI:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        spec = {
            "name": "doctor-test-fet",
            "n_x": 10, "n_y": 2, "n_z": 2,
            "source_cells": 3, "drain_cells": 3, "gate_cells": [4, 6],
            "donor_density_nm3": 0.05,
            "material_params": {"m_rel": 0.3},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_doctor_clean_run(self, spec_path, tmp_path, capsys):
        from repro.cli import main

        metrics_path = str(tmp_path / "metrics.json")
        rc = main([
            "doctor", spec_path, "--vg-points", "1", "--n-energy", "15",
            "--metrics", metrics_path,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "energies per stacked kernel call" in out
        assert "env    : REPRO_BACKEND=" in out
        assert "cache probe" not in out
        assert "SCF convergence" in out
        assert "all checks passed" in out
        for level in ("bias", "momentum", "energy", "spatial"):
            assert level in out
        # the baselines are checked by scripts/refresh_baselines.py
        # --check alone: the doctor re-measures none
        assert "baseline" not in out
        assert out.rstrip().endswith("doctor : OK (0 drill violation(s))")
        snap = MetricsSnapshot.load(metrics_path)
        assert snap.total("invariant.checks") > 0

    def test_doctor_fault_drill_nonfatal(self, spec_path, capsys):
        from repro.cli import main

        rc = main([
            "doctor", spec_path, "--vg-points", "1", "--n-energy", "15",
            "--inject-faults", "7",
        ])
        out = capsys.readouterr().out
        assert rc == 0  # drill violations don't fail the doctor
        assert "fault drill" in out
        assert "run continued" in out
