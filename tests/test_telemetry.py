"""Cross-process telemetry: capture/merge exactness, event stream, top.

Locks down the contracts of :mod:`repro.observability.telemetry`:

* a forced capture packages tracer/metrics activity into a picklable
  :class:`TelemetryDelta` that merges back with worker provenance and
  clock-offset-aligned spans,
* serial and process backends report
  *identical* merged ``flops.*`` and ``surface_gf.*`` totals (the
  acceptance criterion of the merge-back design: nothing recorded in a
  worker is lost),
* the distributed driver merges per-rank deltas on its pooled path and
  agrees exactly with its sequential path,
* :class:`TelemetryWriter` emits schema-valid, strictly-ordered JSONL
  that survives a truncated final line (writer killed mid-append),
* unified Chrome traces give merged worker spans their own pid lanes
  with ``process_name`` metadata, and
* ``repro top`` renders a finished stream with its schema verdict.
"""

import json

import numpy as np
import pytest

from repro.core import (
    DeviceSpec,
    DistributedTransport,
    TransportCalculation,
    build_device,
)
from repro.observability import (
    MetricsRegistry,
    Tracer,
    add_flops,
    get_metrics,
    use_metrics,
    use_tracer,
)
from repro.observability.export import chrome_trace
from repro.observability.telemetry import (
    EVENT_TYPES,
    TelemetryDelta,
    TelemetryWriter,
    capture_telemetry,
    get_events,
    merge_delta,
    read_events,
    render_event_summary,
    summarize_events,
    use_events,
    validate_events,
)
from repro.parallel import SerialComm


@pytest.fixture(scope="module")
def built():
    return build_device(DeviceSpec(
        n_x=10, n_y=2, n_z=2, spacing_nm=0.25,
        source_cells=3, drain_cells=3, gate_cells=(4, 6),
        donor_density_nm3=0.05, material_params={"m_rel": 0.3},
    ))


# ---------------------------------------------------------------------------
# capture + merge primitives


class TestCaptureAndMerge:
    def test_parent_scope_is_inert(self):
        """Outside a child process the capture must not engage."""
        with use_metrics(MetricsRegistry()) as parent:
            with capture_telemetry(worker="w") as cap:
                get_metrics().inc("k", 1.0)
            assert not cap.engaged
            assert cap.delta is None
            # the increment landed in the live parent registry
            assert parent.snapshot().counter("k") == 1.0

    def test_forced_capture_round_trip(self):
        with use_metrics(MetricsRegistry()), use_tracer(Tracer()):
            with capture_telemetry(worker="w0", force=True) as cap:
                get_metrics().inc("adaptive.nodes_added", 3.0)
                add_flops("rgf", 64.0)
            assert cap.engaged
            delta = TelemetryDelta.from_bytes(cap.delta.to_bytes())
            assert delta.worker == "w0"
            assert delta.flops == {"rgf": 64.0}

    def test_empty_capture_ships_nothing(self):
        with capture_telemetry(force=True) as cap:
            pass
        assert cap.delta is None
        assert merge_delta(cap.delta) is False

    def test_merge_adds_counters_and_absorbs_spans(self):
        with use_tracer(Tracer()), use_metrics(MetricsRegistry()):
            with capture_telemetry(worker="w1", force=True) as cap:
                get_metrics().inc("adaptive.nodes_added", 2.0)
                from repro.observability import trace_span
                with trace_span("chunk", category="task"):
                    add_flops("rgf", 8.0)
            tracer = Tracer()
            registry = MetricsRegistry()
            with use_tracer(tracer), use_metrics(registry):
                registry.inc("adaptive.nodes_added", 1.0)
                assert merge_delta(cap.delta) is True
            snap = registry.snapshot()
            assert snap.counter("adaptive.nodes_added") == 3.0
            assert snap.counter(
                "telemetry.deltas_merged", worker="w1") == 1.0
            assert snap.counter("telemetry.spans_merged") == 1.0
            assert tracer.counter.counts["rgf"] == 8.0
            merged = [s for s in tracer.spans
                      if s.attrs.get("worker") == "w1"]
            assert len(merged) == 1
            assert merged[0].name == "chunk"

    def test_clock_offset_alignment(self):
        """Worker spans land on the parent perf-counter axis."""
        parent = Tracer()
        # a worker whose perf epoch is 100 and whose span ran [101, 102]
        parent.absorb(
            "w2",
            spans=[("work", "task", 101.0, 102.0, 0.0, 0.0, 0, {}, 0)],
            wall_epoch=None,  # suppress wall correction: deterministic
            perf_epoch=100.0,
        )
        (span,) = [s for s in parent.spans
                   if s.attrs.get("worker") == "w2"]
        assert span.t_start - parent.epoch == pytest.approx(1.0)
        assert span.duration_s == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# cross-backend exactness (the acceptance criterion)


class TestCrossBackendExactness:
    def _run(self, built, backend, workers=None):
        tc = TransportCalculation(
            built, method="rgf", n_energy=21, backend=backend,
            workers=workers,
        )
        pot = np.zeros(built.n_atoms)
        tracer, registry = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            result = tc.solve_bias(pot, 0.05)
        return result, tracer, registry.snapshot()

    def _kernel_histograms(self, snap):
        """What the kernels observed where they ran (in the workers)."""
        return {k: (h.count, h.total) for k, h in snap.histograms.items()
                if k.startswith("surface_gf.")}

    @pytest.mark.parametrize("backend", ["process"])
    def test_merged_totals_match_serial(self, built, backend):
        ref, ref_tracer, ref_snap = self._run(built, "serial")
        res, tracer, snap = self._run(built, backend, workers=2)
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        assert dict(tracer.counter.counts) == dict(
            ref_tracer.counter.counts
        )
        assert self._kernel_histograms(ref_snap)
        assert (
            self._kernel_histograms(snap) == self._kernel_histograms(ref_snap)
        )
        # the kernels did record flops — the equality above is not 0 == 0
        assert sum(ref_tracer.counter.counts.values()) > 0

    def test_process_backend_merges_worker_deltas(self, built):
        _, tracer, snap = self._run(built, "process", workers=2)
        merged = [k for k in snap.counters
                  if k.startswith("telemetry.deltas_merged")]
        assert merged, "no worker deltas were merged back"
        workers = {s.attrs["worker"] for s in tracer.spans
                   if "worker" in s.attrs}
        assert workers, "merged spans carry no worker provenance"

    def test_distributed_rank_merge_matches_sequential(self, built):
        tc = TransportCalculation(built, method="rgf", n_energy=21)
        pot = np.zeros(built.n_atoms)

        def run(backend, workers=None):
            dist = DistributedTransport(tc, backend=backend, workers=workers)
            tracer, registry = Tracer(), MetricsRegistry()
            with use_tracer(tracer), use_metrics(registry):
                out = dist.solve_bias(pot, 0.05, SerialComm(), n_ranks=4)
            return out, tracer, registry.snapshot()

        ref, ref_tracer, _ = run(None)
        out, tracer, snap = run("process", workers=2)
        assert out["current_a"] == ref["current_a"]
        assert dict(tracer.counter.counts) == dict(
            ref_tracer.counter.counts
        )
        assert sum(ref_tracer.counter.counts.values()) > 0
        # the ranks' k-group chunks ran in the pool and merged back
        assert snap.total("telemetry.deltas_merged") > 0

        def rank_spans(t):
            return sorted(
                (s.name, s.category, s.attrs["rank"])
                for s in t.spans if "rank" in s.attrs
            )

        assert rank_spans(tracer) == rank_spans(ref_tracer)
        assert {r for _, _, r in rank_spans(tracer)} == {0, 1, 2, 3}
        assert tracer.task_count() == out["n_tasks_total"]

    @pytest.mark.parametrize("backend", ["process"])
    def test_adaptive_merged_totals_match_serial(self, built, backend):
        """Adaptive waves lose nothing in merge-back: ``adaptive.*`` and
        ``flops.*`` totals equal the serial run exactly on every backend."""

        def run(bk, workers=None):
            tc = TransportCalculation(
                built, method="rgf", n_energy=21, backend=bk,
                workers=workers,
                energy_mode="adaptive", adaptive_tol=0.05,
            )
            tracer, registry = Tracer(), MetricsRegistry()
            with use_tracer(tracer), use_metrics(registry):
                result = tc.solve_bias(np.zeros(built.n_atoms), 0.05)
            return result, tracer, registry.snapshot()

        ref, ref_tracer, ref_snap = run("serial")
        res, tracer, snap = run(backend, workers=2)
        assert res.adaptive == ref.adaptive
        assert dict(tracer.counter.counts) == dict(
            ref_tracer.counter.counts
        )
        assert sum(ref_tracer.counter.counts.values()) > 0

        def adaptive_counters(s):
            return {k: v for k, v in s.counters.items()
                    if k.startswith("adaptive.")}

        assert adaptive_counters(snap) == adaptive_counters(ref_snap)
        assert adaptive_counters(ref_snap), "no adaptive.* counters recorded"
        assert snap.gauges.get("adaptive.est_error") == ref_snap.gauges.get(
            "adaptive.est_error"
        )


# ---------------------------------------------------------------------------
# unified Chrome traces


class TestUnifiedTrace:
    def test_worker_spans_get_own_pid_lanes(self):
        tracer = Tracer()
        with tracer.span("parent_work"):
            pass
        tracer.absorb(
            "pid:11", spans=[
                ("chunk", "task", 0.5, 1.0, 0.0, 0.0, 0, {}, 0),
            ], wall_epoch=None, perf_epoch=0.0,
        )
        tracer.absorb(
            "pid:22", spans=[
                ("chunk", "task", 0.5, 1.0, 0.0, 0.0, 0, {}, 0),
            ], wall_epoch=None, perf_epoch=0.0,
        )
        doc = chrome_trace(tracer)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"parent", "worker pid:11", "worker pid:22"} <= names
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in xs} == {0, 1000, 1001}
        json.dumps(doc)  # must stay loadable

    def test_rank_lane_precedence_and_no_metadata_without_workers(self):
        tracer = Tracer()
        with tracer.span("solve", rank=3):
            pass
        doc = chrome_trace(tracer)
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["traceEvents"][0]["pid"] == 3


# ---------------------------------------------------------------------------
# event stream


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


class TestTelemetryWriter:
    def _writer(self, tmp_path, **kwargs):
        clock = FakeClock()
        path = tmp_path / "events.jsonl"
        return TelemetryWriter(path, clock=clock, **kwargs), path, clock

    def test_schema_and_ordering(self, tmp_path):
        writer, path, clock = self._writer(
            tmp_path, context={"command": "sweep"}
        )
        writer.run_started(total=2, kind="transfer")
        clock.t += 1.0
        writer.point_done(v_gate=0.0, current_a=1e-6, converged=True)
        clock.t += 1.0
        writer.point_done(v_gate=0.1, current_a=2e-6, converged=True)
        writer.close()  # emits run_finished
        events = read_events(path)
        assert validate_events(events) == []
        assert [e["event"] for e in events] == [
            "run_started", "point_done", "point_done", "run_finished",
        ]
        assert [e["seq"] for e in events] == [0, 1, 2, 3]
        assert all(e["v"] == 1 for e in events)
        started = events[0]
        assert started["command"] == "sweep"
        assert started["total"] == 2
        first = events[1]
        assert first["done"] == 1 and first["total"] == 2
        assert first["frac"] == pytest.approx(0.5)
        assert first["eta_s"] == pytest.approx(1.0)
        last = events[-1]
        assert last["done"] == 2
        assert last["elapsed_s"] == pytest.approx(2.0)

    def test_run_started_idempotent_with_total_backfill(self, tmp_path):
        writer, path, _ = self._writer(tmp_path, context={"spec": "d.json"})
        writer.run_started()          # CLI layer: no total yet
        writer.run_started(total=5)   # sweep layer: only backfills
        writer.point_done()
        writer.close()
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "run_started", "point_done", "run_finished",
        ]
        assert events[0]["spec"] == "d.json"
        assert events[1]["total"] == 5

    def test_unknown_event_type_rejected(self, tmp_path):
        writer, _, _ = self._writer(tmp_path)
        with pytest.raises(ValueError, match="unknown event type"):
            writer.emit("bogus")
        writer.close()

    def test_heartbeat_interval_guard(self, tmp_path):
        writer, path, clock = self._writer(tmp_path)
        writer.run_started(total=3)
        clock.t += 1.0
        assert writer.maybe_heartbeat(stage="solve") is False  # too soon
        clock.t += 5.0
        assert writer.maybe_heartbeat(stage="solve") is True
        writer.close()
        events = read_events(path)
        beats = [e for e in events if e["event"] == "heartbeat"]
        assert len(beats) == 1
        assert beats[0]["stage"] == "solve"

    def test_null_writer_is_disabled(self):
        events = get_events()
        assert events.enabled is False
        assert events.maybe_heartbeat() is False

    def test_use_events_scopes_the_writer(self, tmp_path):
        writer, path, _ = self._writer(tmp_path)
        with use_events(writer):
            assert get_events() is writer
            get_events().run_started(total=1)
        assert get_events().enabled is False
        writer.close()
        assert [e["event"] for e in read_events(path)] == [
            "run_started", "run_finished",
        ]


class TestReadEvents:
    def test_truncated_tail_recovered(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path, clock=FakeClock()) as writer:
            writer.run_started(total=3)
            writer.point_done()
        # simulate a writer killed mid-append: garbage half-line at EOF
        with open(path, "a") as fh:
            fh.write('{"v": 1, "seq": 3, "t": 100')
        events = read_events(path)
        assert [e["event"] for e in events] == [
            "run_started", "point_done", "run_finished",
        ]
        with pytest.raises(ValueError, match="malformed event line"):
            read_events(path, strict=True)

    def test_mid_file_garbage_always_raises(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as fh:
            fh.write('{"v": 1, "seq": 0, "t": 1, "event": "run_started"}\n')
            fh.write("not json\n")
            fh.write('{"v": 1, "seq": 1, "t": 2, "event": "run_finished"}\n')
        with pytest.raises(ValueError, match="malformed event line"):
            read_events(path)

    def test_validate_flags_violations(self):
        errors = validate_events([
            {"v": 1, "seq": 5, "t": 1.0, "event": "point_done"},
            {"v": 1, "seq": 5, "t": 2.0, "event": "run_started"},
            {"v": 1, "seq": 6, "t": 3.0, "event": "bogus"},
        ])
        assert any("not increasing" in e for e in errors)
        assert any("run_started not first" in e for e in errors)
        assert any("unknown type" in e for e in errors)

    def test_summary_of_partial_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        clock = FakeClock()
        writer = TelemetryWriter(path, clock=clock)
        writer.run_started(total=4, command="sweep")
        clock.t += 2.0
        writer.point_done(v_gate=0.0, current_a=1e-9, converged=True)
        writer._fh.flush()  # no close: the run is still in flight
        summary = summarize_events(read_events(path))
        assert summary["finished"] is False
        assert summary["done"] == 1 and summary["total"] == 4
        text = render_event_summary(summary, now=clock.t + 1.0)
        assert "1/4" in text
        assert "in flight" in text
        writer.close()
        summary = summarize_events(read_events(path))
        assert summary["finished"] is True
        assert "finished" in render_event_summary(summary)


# ---------------------------------------------------------------------------
# sweep + CLI integration


class TestEventStreamIntegration:
    def test_sweep_emits_run_and_degradation_events(self, built, tmp_path):
        from repro.core import IVSweep, SelfConsistentSolver
        from repro.resilience import FaultInjector

        tc = TransportCalculation(built, method="wf", n_energy=21)
        sweep = IVSweep(
            SelfConsistentSolver(built, tc),
            max_retries=2,
            injector=FaultInjector(
                seed=7, rate=1.0, actions=("raise",), sites=("bias",),
            ),
        )
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path) as writer, use_events(writer):
            sweep.transfer_curve([0.0, 0.1], v_drain=0.05)
        events = read_events(path)
        assert validate_events(events) == []
        names = [e["event"] for e in events]
        assert names[0] == "run_started"
        assert names[-1] == "run_finished"
        assert names.count("point_done") == 2
        assert "degradation" in names  # every point faulted once
        finished = events[-1]
        assert finished["done"] == 2 and finished["n_points"] == 2

    def test_cli_top_renders_and_validates(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        clock = FakeClock()
        with TelemetryWriter(path, clock=clock,
                             context={"command": "sweep"}) as writer:
            writer.run_started(total=2)
            clock.t += 1.0
            writer.point_done(v_gate=0.0, v_drain=0.05,
                              current_a=1e-6, converged=True)
            clock.t += 1.0
            writer.point_done(v_gate=0.1, v_drain=0.05,
                              current_a=2e-6, converged=True)
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2/2" in out
        assert "command=sweep" in out
        assert "finished" in out
        assert out.rstrip().endswith("schema : 4 event(s) valid")
        # a stream that goes on after run_finished fails the schema
        with open(path, "a") as fh:
            fh.write(json.dumps(
                {"v": 1, "seq": 99, "t": 3.0, "event": "heartbeat"}
            ) + "\n")
        assert main(["top", str(path)]) == 1
        assert "after run_finished" in capsys.readouterr().out

    def test_cli_top_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such events file" in capsys.readouterr().err

    def test_event_types_closed_set(self):
        assert EVENT_TYPES == (
            "run_started", "heartbeat", "point_done", "wave_done",
            "degradation", "straggler", "chunk_retired", "run_finished",
        )


# ---------------------------------------------------------------------------
# one recorder crosses the pool whole


def _merged(registry) -> float:
    """Deltas merged from pool workers, over every worker label."""
    return sum(
        value for key, value in registry.snapshot().counters.items()
        if key.startswith("telemetry.deltas_merged")
    )


def _pooled(registry) -> bool:
    """Whether a dispatch shipped chunk payloads to the pool."""
    return any(
        key.startswith("ipc.task_bytes")
        for key in registry.snapshot().histograms
    )


class TestOneRecorderOnThePool:
    """The process backend honours the parent's sentinel, monitor and
    planted faults as the serial backend does, on a pool warmed before
    they were installed (as a long sweep's pool is): every chunk runs
    under the parent recorder's spec and its trips, violations and fired
    faults come back in its delta."""

    @pytest.fixture(scope="class")
    def fet(self):
        from tests.conftest import mini_device

        built = mini_device()
        potential = np.zeros(built.n_atoms)
        # warm the pool under the default recorder
        self._calc(built, "process").solve_bias(potential, 0.1)
        return built, potential

    @staticmethod
    def _calc(built, backend, **kwargs):
        from tests.conftest import make_transport

        workers = 2 if backend == "process" else 1
        return make_transport(built, backend=backend, workers=workers, **kwargs)

    def _solve(self, fet, backend, injector=None, **fields):
        """One solve under ``fields`` of the recorder plus a registry:
        ``(result, registry, injector)``."""
        from repro.observability import use_run

        built, potential = fet
        calc = self._calc(built, backend, injector=injector)
        registry = MetricsRegistry()
        with use_run(metrics=registry, **fields):
            result = calc.solve_bias(potential, 0.1)
        return result, registry

    def test_contained_trips_and_ladder_equal_serial(self, fet,
                                                     set_constant):
        from repro.resilience import HealthSentinel

        set_constant(HealthSentinel, "COND_THRESHOLD", 1.0)
        got = {}
        for backend in ("serial", "process"):
            res, registry = self._solve(
                fet, backend, sentinel=HealthSentinel()
            )
            # a merged trip is counted once: by the worker's metrics delta
            health = {
                key: value
                for key, value in registry.snapshot().counters.items()
                if key.startswith("health.")
            }
            got[backend] = (res.degradation.to_dict(), res.current_a, health)
            assert (_merged(registry) > 0) == (backend == "process")
        assert got["process"] == got["serial"]
        account = got["serial"][0]
        # every node trips on the stack, again alone, again on the rung
        assert account["sentinel_trips"] == {"block_lu:ill_conditioned": 63}
        assert got["serial"][2] == {"health.block_lu.ill_conditioned": 63.0}
        assert account["ladder_steps"] == {
            "chunk:per-point": 1, "per-point:robust": 21,
        }

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_strict_sentinel_raises(self, fet, backend, set_constant):
        from repro.errors import NumericalBreakdownError
        from repro.observability import use_run
        from repro.resilience import HealthSentinel

        built, potential = fet
        registry = MetricsRegistry()
        set_constant(HealthSentinel, "COND_THRESHOLD", 1.0)
        strict = HealthSentinel("strict")
        with use_run(metrics=registry, sentinel=strict):
            with pytest.raises(NumericalBreakdownError):
                self._calc(built, backend).solve_bias(potential, 0.1)
        assert _pooled(registry) == (backend == "process")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_strict_monitor_raises(self, fet, backend, set_constant):
        """No transmission passes a negative tolerance, and nothing heals
        the raise: with the sentinel off nothing climbs the ladder, and
        under the default ``contain`` sentinel the ladder re-raises a
        strict monitor's verdict instead of solving the energy again on
        the dense-oracle rung, which checks no invariant."""
        from repro.errors import PhysicsInvariantError
        from repro.observability import InvariantMonitor, use_run
        from repro.resilience import HealthSentinel

        built, potential = fet
        set_constant(InvariantMonitor, "TOL_TRANSMISSION", -1.0)
        for sentinel in ({"sentinel": HealthSentinel("off")}, {}):
            registry = MetricsRegistry()
            with use_run(
                metrics=registry, **sentinel,
                monitor=InvariantMonitor(strict=True),
            ):
                with pytest.raises(PhysicsInvariantError):
                    self._calc(built, backend).solve_bias(potential, 0.1)
            assert _pooled(registry) == (backend == "process")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_plain_solve_is_monitored(self, fet, backend):
        """With no monitor installed a solve is checked by the default one:
        a non-strict :class:`InvariantMonitor` recording what an explicit
        one records."""
        from repro.observability import InvariantMonitor, get_monitor

        assert type(get_monitor()) is InvariantMonitor
        assert not get_monitor().strict
        got = []
        for fields in ({}, {"monitor": InvariantMonitor()}):
            res, registry = self._solve(fet, backend, **fields)
            got.append((res.current_a, {
                key: value
                for key, value in registry.snapshot().counters.items()
                if key.startswith("invariant.")
            }))
        assert got[0] == got[1]
        assert sum(got[0][1].values()) > 0

    def test_bounded_monitor_ledger_equals_serial(self, fet, set_constant):
        """Repeated violating solves keep at most ``Ledger.MAX_RECORDS``
        records, the first ones, while ``n_violations`` and the
        ``invariant.violations`` counters count every one.  On the pool a
        chunk ships exactly what its worker's copy recorded — the records
        it kept, up to the bound the workers inherit, and their count —
        so both backends end with the serial account."""
        from repro.observability import InvariantMonitor, use_run
        from repro.observability.invariants import Ledger

        built, potential = fet
        bound = 3
        set_constant(InvariantMonitor, "TOL_TRANSMISSION", -1.0)
        one = InvariantMonitor()
        with use_run(monitor=one):
            self._calc(built, "serial").solve_bias(potential, 0.1)
        assert one.n_violations > 2 * bound  # a chunk fills its ledger
        set_constant(Ledger, "MAX_RECORDS", bound)
        # a shipped chunk past the bound: its records up to the bound,
        # its whole count
        shipped = InvariantMonitor()
        shipped.absorb(one.violations,
                       {"transmission_bounds": one.n_violations + 5})
        assert shipped.violations == one.violations[:bound]
        assert shipped.n_violations == one.n_violations + 5
        got = {}
        for backend in ("serial", "process"):
            monitor = InvariantMonitor()
            registry = MetricsRegistry()
            calc = self._calc(built, backend)
            with use_run(metrics=registry, monitor=monitor):
                for solve in range(3):
                    marker = monitor.marker()
                    calc.solve_bias(potential, 0.1)
                    # the first solve fills the ledger, the others count
                    assert monitor.violations_since(marker) == (
                        [] if solve else monitor.violations)
            counted = registry.snapshot().total("invariant.violations")
            assert monitor.violations == one.violations[:bound]
            assert monitor.n_violations == counted == 3 * one.n_violations
            assert (_pooled(registry) and _merged(registry) > 0) == (
                backend == "process")
            got[backend] = (monitor.violations, monitor.n_violations)
        assert got["process"] == got["serial"]

    def test_monitor_violations_equal_serial(self, fet, set_constant):
        from repro.observability import InvariantMonitor

        set_constant(InvariantMonitor, "TOL_TRANSMISSION", -1.0)
        got = {}
        for backend in ("serial", "process"):
            monitor = InvariantMonitor()
            res, registry = self._solve(fet, backend, monitor=monitor)
            counts = {
                key: value
                for key, value in registry.snapshot().counters.items()
                if key.startswith("invariant.")
            }
            got[backend] = (monitor.violations, counts, res.current_a)
            assert (_merged(registry) > 0) == (backend == "process")
        assert got["process"] == got["serial"]
        assert len(got["serial"][0]) > 0

    @pytest.mark.parametrize("drill", ["hblock-nan", "hblock-illcond", "energy"])
    def test_drills_give_the_serial_account(self, fet, drill):
        from repro.resilience import FaultInjector

        built, potential = fet
        grid = self._calc(built, "serial").energy_grid(potential, 0.1)
        e = grid.energies.tolist()
        plan = {
            "hblock-nan": {("hblock", 0): "nan"},
            "hblock-illcond": {("hblock", 0): "illcond"},
            # a NaN row in the first chunk, a raise in the second
            "energy": {("energy", (0, e[4])): "nan",
                       ("energy", (0, e[15])): "raise"},
        }[drill]
        got = {}
        for backend in ("serial", "process"):
            injector = FaultInjector(plan=plan)
            res, registry = self._solve(fet, backend, injector=injector)
            got[backend] = (
                res.degradation.to_dict(), res.current_a, injector.injected,
            )
            assert _pooled(registry) == (backend == "process")
        assert got["process"] == got["serial"]
        assert got["serial"][2]


class TestOneSlot:
    def test_the_recorder_is_the_only_instrument_slot(self):
        """Every module-level rebinding under ``src/repro`` is the
        recorder slot of :mod:`repro.observability.telemetry`, and no
        ``set_*`` installer is left."""
        import ast
        from pathlib import Path

        import repro
        from repro.observability import Recorder, get_run, telemetry

        root = Path(repro.__file__).parent
        rebound = {
            (path.relative_to(root).as_posix(), name)
            for path in root.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Global)
            for name in node.names
        }
        assert rebound == {("observability/telemetry.py", "_RUN")}
        assert isinstance(get_run(), Recorder)
        assert get_run() is telemetry._RUN
        for module in ("observability", "resilience", "resilience.health"):
            names = dir(__import__(f"repro.{module}", fromlist=["_"]))
            assert not [n for n in names if n.startswith("set_")]
