"""Tests for the measured-performance observability layer.

Covers the tracer semantics (nesting, exception safety, thread locality,
no-op overhead), the exact analytic-vs-instrumented flop identity for the
RGF, WF and Sancho-Rubio kernels, the PerfReport aggregation, the
Chrome-trace / flat-metrics exporters, the scheduler and distributed-rank
timelines, and the CLI ``--trace`` plumbing.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    DeviceSpec,
    DistributedTransport,
    TransportCalculation,
    build_device,
)
from repro.io import save_spec
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    PerfReport,
    Tracer,
    add_flops,
    get_tracer,
    trace_span,
    use_run,
    use_tracer,
)
from repro.observability.export import (
    chrome_trace,
    flat_metrics,
    write_chrome_trace,
)
from repro.observability.validate import (
    FlopValidation,
    validate_flops,
    validate_rgf_flops,
    validate_sancho_rubio_flops,
    validate_wf_flops,
)
from repro.parallel import SerialComm, run_tasks


class FakeClock:
    """Deterministic injectable clock: advances only when told to."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


# ----------------------------------------------------------------------
class TestTracerNesting:
    def test_spans_complete_in_post_order(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_depth_tracks_nesting(self):
        t = Tracer()
        with t.span("a"):
            with t.span("b"):
                with t.span("c"):
                    pass
        depths = {s.name: s.depth for s in t.spans}
        assert depths == {"a": 0, "b": 1, "c": 2}

    def test_sibling_spans_share_depth(self):
        t = Tracer()
        with t.span("parent"):
            with t.span("s1"):
                pass
            with t.span("s2"):
                pass
        depths = {s.name: s.depth for s in t.spans}
        assert depths["s1"] == depths["s2"] == 1

    def test_child_flops_roll_up_to_parent_total(self):
        t = Tracer()
        with t.span("outer"):
            t.add_flops("k", 10.0)
            with t.span("inner"):
                t.add_flops("k", 5.0)
        by_name = {s.name: s for s in t.spans}
        assert by_name["inner"].own_flops == 5.0
        assert by_name["inner"].total_flops == 5.0
        assert by_name["outer"].own_flops == 10.0
        assert by_name["outer"].total_flops == 15.0

    def test_durations_from_injected_clock(self):
        clock = FakeClock()
        t = Tracer(clock=clock)
        with t.span("outer"):
            clock.tick(1.0)
            with t.span("inner"):
                clock.tick(0.25)
        by_name = {s.name: s for s in t.spans}
        assert by_name["inner"].duration_s == 0.25
        assert by_name["outer"].duration_s == 1.25
        assert t.span_extent_s() == 1.25

    def test_current_span_is_innermost(self):
        t = Tracer()
        assert t.current_span() is None
        with t.span("a"):
            with t.span("b"):
                assert t.current_span().name == "b"
            assert t.current_span().name == "a"
        assert t.current_span() is None

    def test_attrs_recorded(self):
        t = Tracer()
        with t.span("bias", category="phase", v_gate=0.1, rank=3):
            pass
        s = t.spans[0]
        assert s.attrs == {"v_gate": 0.1, "rank": 3}
        assert s.category == "phase"


class TestTracerExceptionSafety:
    def test_span_closed_and_recorded_on_exception(self):
        t = Tracer()
        with pytest.raises(ValueError, match="boom"):
            with t.span("doomed"):
                raise ValueError("boom")
        assert len(t.spans) == 1
        assert t.spans[0].name == "doomed"
        assert t.spans[0].t_end is not None

    def test_nested_exception_closes_all_spans(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("deep fault")
        assert [s.name for s in t.spans] == ["inner", "outer"]
        assert t.current_span() is None

    def test_flops_survive_exception(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("s"):
                t.add_flops("gemm", 64.0)
                raise ValueError
        assert t.counter.counts["gemm"] == 64.0
        assert t.spans[0].own_flops == 64.0

    def test_use_tracer_restores_on_exception(self):
        assert get_tracer() is NULL_TRACER
        with pytest.raises(ValueError):
            with use_tracer(Tracer()) as t:
                assert get_tracer() is t
                raise ValueError
        assert get_tracer() is NULL_TRACER


class TestTracerThreads:
    def test_threads_nest_independently(self):
        t = Tracer()
        errors = []

        def worker(tag):
            try:
                with t.span(f"outer-{tag}"):
                    time.sleep(0.002)
                    with t.span(f"inner-{tag}"):
                        t.add_flops("k", 1.0)
                        assert t.current_span().name == f"inner-{tag}"
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(t.spans) == 8
        assert t.counter.counts["k"] == 4.0
        # each thread's inner span nests under its own outer span
        depths = {s.name: s.depth for s in t.spans}
        for i in range(4):
            assert depths[f"outer-{i}"] == 0
            assert depths[f"inner-{i}"] == 1

    def test_thread_ordinals_are_distinct(self):
        t = Tracer()
        with t.span("main-thread"):
            pass

        def worker():
            with t.span("other-thread"):
                pass

        th = threading.Thread(target=worker)
        th.start()
        th.join()
        tids = {s.name: s.thread for s in t.spans}
        assert tids["main-thread"] != tids["other-thread"]


class TestNullTracer:
    def test_default_tracer_is_disabled(self):
        t = get_tracer()
        assert isinstance(t, NullTracer)
        assert t.enabled is False

    def test_null_tracer_is_inert(self):
        t = NULL_TRACER
        with t.span("anything", category="kernel", rank=1):
            t.add_flops("k", 1e9)
        assert t.total_flops == 0.0
        assert t.spans == ()
        assert t.current_span() is None
        assert t.phase_seconds() == {}
        assert t.rank_seconds() == {}
        assert t.task_count() == 0
        assert t.span_extent_s() == 0.0

    def test_noop_overhead_bound(self):
        """50k disabled span+flop ops stay well under a second.

        The instrumented call sites pay one `enabled` check plus (when
        tracing is off) a shared no-op context manager per kernel call;
        this pins that cost to ~O(microseconds) so leaving the
        instrumentation in hot loops is safe.
        """
        t = NULL_TRACER
        n = 50_000
        t0 = time.perf_counter()
        for _ in range(n):
            if t.enabled:  # pragma: no cover - mirrors the call sites
                t.add_flops("k", 8.0)
            with t.span("s"):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{n} no-op trace ops took {elapsed:.3f} s"

    def test_module_level_helpers_route_to_active(self):
        # off: no-ops
        with trace_span("noop"):
            add_flops("k", 1.0)
        # on: recorded
        with use_tracer(Tracer()) as t:
            with trace_span("seen", category="kernel"):
                add_flops("k", 2.0)
        assert t.counter.counts["k"] == 2.0
        assert t.spans[0].name == "seen"

    def test_use_run_scopes_the_tracer_and_restores_the_default(self):
        t = Tracer()
        with use_run(tracer=t) as run:
            assert run.tracer is t
            assert get_tracer() is t
        assert get_tracer() is NULL_TRACER
        with pytest.raises(KeyError):
            with use_run(tracer=t):
                raise KeyError("scope exits on an exception")
        assert get_tracer() is NULL_TRACER


# ----------------------------------------------------------------------
class TestFlopIdentity:
    """Analytic formulas == instrumented counts, exactly."""

    @pytest.mark.parametrize(
        "n_blocks,block_size", [(3, 2), (5, 3), (4, 4)]
    )
    def test_rgf_exact(self, n_blocks, block_size):
        v = validate_rgf_flops(n_blocks=n_blocks, block_size=block_size)
        assert v.measured == v.analytic, str(v)
        assert v.measured > 0

    @pytest.mark.parametrize(
        "n_blocks,block_size", [(3, 2), (5, 3), (4, 2)]
    )
    def test_wf_exact(self, n_blocks, block_size):
        v = validate_wf_flops(n_blocks=n_blocks, block_size=block_size)
        assert v.measured == v.analytic, str(v)
        assert v.measured > 0
        assert v.params["n_rhs"] >= 1

    @pytest.mark.parametrize("block_size", [2, 3, 4])
    def test_sancho_rubio_exact(self, block_size):
        v = validate_sancho_rubio_flops(block_size=block_size, energy=0.7)
        assert v.measured == v.analytic, str(v)
        assert v.params["n_iterations"] >= 1

    def test_validate_flops_all_match(self):
        validations = validate_flops()
        assert len(validations) >= 6
        for v in validations:
            assert v.matches, str(v)

    @pytest.mark.parametrize("n_energies", [2, 7])
    def test_stacked_entries_exact(self, n_energies):
        """``n_energies`` switches the same validations to a stack."""
        v = validate_rgf_flops(n_blocks=4, block_size=3, n_energies=n_energies)
        one = validate_rgf_flops(n_blocks=4, block_size=3)
        assert v.matches and v.kernel == "rgf_batched", str(v)
        assert v.measured == n_energies * one.measured
        v = validate_sancho_rubio_flops(block_size=3, n_energies=n_energies)
        assert v.matches and v.kernel == "sancho_rubio_batched", str(v)
        assert len(v.params["iterations"]) == n_energies

    def test_validate_flops_rows(self):
        assert [v.kernel for v in validate_flops()] == (
            ["rgf"] * 3 + ["wf"] * 2 + ["sancho_rubio"] * 2
            + ["rgf_batched"] * 2 + ["wf_batched"] * 2
            + ["sancho_rubio_batched"] * 2
        )

    def test_mismatch_is_reported(self):
        v = FlopValidation("fake", analytic=100.0, measured=99.0)
        assert not v.matches
        assert "MISMATCH" in str(v)
        ok = FlopValidation("fake", analytic=100.0, measured=100.0)
        assert "OK" in str(ok)


# ----------------------------------------------------------------------
class TestPerfReport:
    def _traced(self):
        clock = FakeClock()
        t = Tracer(clock=clock)
        with t.span("sweep"):
            with t.span("task-a", category="task"):
                t.add_flops("rgf", 600.0)
                clock.tick(1.0)
            with t.span("rank0", category="rank", rank=0):
                t.add_flops("wf", 400.0)
                clock.tick(1.0)
        return t

    def test_from_tracer(self):
        report = PerfReport.from_tracer(self._traced())
        assert report.counted_flops == 1000.0
        assert report.wall_time_s == 2.0
        assert report.sustained_flops == 500.0
        assert report.kernel_flops == {"rgf": 600.0, "wf": 400.0}
        assert report.rank_seconds == {0: 1.0}
        assert report.n_spans == 3
        assert report.n_tasks == 1

    def test_zero_wall_time_guard(self):
        assert PerfReport(wall_time_s=0.0, counted_flops=1e9).sustained_flops == 0.0

    def test_wall_time_override(self):
        report = PerfReport.from_tracer(self._traced(), wall_time_s=4.0)
        assert report.sustained_flops == 250.0

    def test_merge_adds(self):
        a = PerfReport.from_tracer(self._traced())
        b = PerfReport.from_tracer(self._traced())
        a.merge(b)
        assert a.counted_flops == 2000.0
        assert a.wall_time_s == 4.0
        assert a.kernel_flops["rgf"] == 1200.0
        assert a.rank_seconds == {0: 2.0}
        assert a.n_spans == 6
        assert a.n_tasks == 2

    def test_to_dict_is_json_compatible(self):
        d = PerfReport.from_tracer(self._traced()).to_dict()
        round_trip = json.loads(json.dumps(d))
        assert round_trip["counted_flops"] == 1000.0
        assert round_trip["rank_seconds"] == {"0": 1.0}
        assert round_trip["sustained_flops"] == 500.0

    def test_summary_mentions_sustained(self):
        s = PerfReport.from_tracer(self._traced()).summary()
        assert "sustained" in s
        assert "rgf" in s  # top-kernel line


# ----------------------------------------------------------------------
class TestChromeTrace:
    REQUIRED_KEYS = {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}

    def _traced(self):
        clock = FakeClock()
        t = Tracer(clock=clock)
        with t.span("sweep"):
            clock.tick(0.5)
            with t.span("task", category="task", rank=2, key=(0, 1)):
                t.add_flops("rgf", 64.0)
                clock.tick(0.25)
        return t

    def test_schema_validity(self):
        doc = chrome_trace(self._traced())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["displayTimeUnit"] == "ms"
        assert len(doc["traceEvents"]) == 2
        for ev in doc["traceEvents"]:
            assert self.REQUIRED_KEYS <= set(ev)
            assert ev["ph"] == "X"
            assert isinstance(ev["ts"], float) and ev["ts"] >= 0.0
            assert isinstance(ev["dur"], float) and ev["dur"] >= 0.0
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
        # whole document serialises (Chrome will reject otherwise)
        json.dumps(doc)

    def test_timestamps_microseconds_from_epoch(self):
        doc = chrome_trace(self._traced())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["task"]["ts"] == pytest.approx(0.5e6)
        assert by_name["task"]["dur"] == pytest.approx(0.25e6)
        assert by_name["sweep"]["ts"] == pytest.approx(0.0)
        assert by_name["sweep"]["dur"] == pytest.approx(0.75e6)

    def test_rank_maps_to_pid_and_args_carry_flops(self):
        doc = chrome_trace(self._traced())
        task = next(e for e in doc["traceEvents"] if e["name"] == "task")
        assert task["pid"] == 2
        assert task["args"]["flops"] == 64.0
        assert task["args"]["own_flops"] == 64.0
        assert task["args"]["depth"] == 1
        # non-JSON attr (the tuple key) is repr'd, not dropped
        assert task["args"]["key"] == repr((0, 1))

    def test_other_data_is_perf_report(self):
        doc = chrome_trace(self._traced())
        other = doc["otherData"]
        assert other["counted_flops"] == 64.0
        assert other["kernel_flops"] == {"rgf": 64.0}
        assert other["n_tasks"] == 1

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        doc = write_chrome_trace(self._traced(), path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["traceEvents"]

    def test_flat_metrics(self):
        m = flat_metrics(self._traced())
        assert m["counted_flops"] == 64.0
        assert m["wall_time_s"] == 0.75
        assert m["sustained_flops"] == pytest.approx(64.0 / 0.75)
        assert m["flops.rgf"] == 64.0
        assert m["time.sweep_s"] == 0.75
        assert m["n_spans"] == 2 and m["n_tasks"] == 1

    def test_flat_metrics_rank_rows(self):
        clock = FakeClock()
        t = Tracer(clock=clock)
        with t.span("rank_partial", category="rank", rank=2):
            clock.tick(0.25)
        assert flat_metrics(t)["rank.2_s"] == 0.25


# ----------------------------------------------------------------------
class TestExecutionTimelines:
    """The scheduler and the distributed driver emit per-task spans."""

    def test_run_tasks_emits_task_spans(self):
        with use_tracer(Tracer()) as t:
            out = run_tasks([1, 2, 3], lambda x: x * 2)
        assert out.results == [2, 4, 6]
        names = [s.name for s in t.spans]
        assert names.count("task") == 3
        assert names.count("run_tasks") == 1
        batch = next(s for s in t.spans if s.name == "run_tasks")
        assert batch.attrs["n_tasks"] == 3
        assert t.task_count() == 3

    def test_run_tasks_spans_survive_failfast_exception(self):
        with use_tracer(Tracer()) as t:
            with pytest.raises(ZeroDivisionError):
                run_tasks([1, 0, 2], lambda x: 1 / x)
        names = [s.name for s in t.spans]
        # both the failing task span and the batch span closed cleanly
        assert names.count("task") == 2
        assert names.count("run_tasks") == 1

    def test_run_tasks_untr_traced_unchanged(self):
        out = run_tasks([1, 2], lambda x: x + 1)
        assert out.results == [2, 3]

    def test_distributed_rank_timeline(self, tiny_system):
        built, tc = tiny_system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        with use_tracer(Tracer()) as t:
            out = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
        busy = t.rank_seconds()
        assert len(busy) == 3
        assert all(v > 0.0 for v in busy.values())
        assert t.task_count() == out["n_tasks_total"]
        report = PerfReport.from_tracer(t)
        assert report.rank_seconds == busy
        assert report.n_tasks == out["n_tasks_total"]

    def test_rank_timeline_covers_the_solve(self, tiny_system):
        """The rank spans open around the stacked solves, not only around
        the reduction: summed busy time is most of the measured wall."""
        import time

        built, tc = tiny_system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        with use_tracer(Tracer()) as t:
            t0 = time.perf_counter()
            out = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=2)
            wall = time.perf_counter() - t0
        assert sum(t.rank_seconds().values()) >= 0.5 * wall
        # one task span per stacked k-group, carrying its task count
        groups = [s for s in t.spans if s.name == "task"]
        assert len(groups) == 2 * len(built.momentum_grid)
        assert sum(s.attrs["n_tasks"] for s in groups) == out["n_tasks_total"]
        ranks = [s for s in t.spans if s.name == "rank_partial"]
        assert all(s.depth == r.depth + 1 for s in groups for r in ranks)

    def test_task_count_weighs_spans_by_their_n_tasks(self):
        t = Tracer()
        with t.span("group", category="task", n_tasks=5):
            pass
        with t.span("single", category="task"):
            pass
        with t.span("batch", category="phase", n_tasks=7):
            pass
        assert t.task_count() == 6


@pytest.fixture(scope="module")
def tiny_system():
    spec = DeviceSpec(
        n_x=10, n_y=2, n_z=2, spacing_nm=0.25, source_cells=3,
        drain_cells=3, gate_cells=(4, 6), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    built = build_device(spec)
    tc = TransportCalculation(built, method="wf", n_energy=13)
    return built, tc


# ----------------------------------------------------------------------
class TestCLITrace:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        save_spec(
            DeviceSpec(
                name="trace-test", n_x=10, n_y=2, n_z=2, source_cells=3,
                drain_cells=3, gate_cells=(4, 6), donor_density_nm3=0.05,
                material_params={"m_rel": 0.3},
            ),
            path,
        )
        return str(path)

    def test_sweep_trace_end_to_end(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        out = tmp_path / "out.json"
        code = main([
            "sweep", spec_file, "--vg-points", "2", "--n-energy", "21",
            "--trace", str(trace), "-o", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "sustained" in printed
        assert str(trace) in printed

        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"]}
        assert "sweep" in names and "bias" in names
        assert "transport.solve_bias" in names
        assert "wf.solve_batch" in names
        for ev in doc["traceEvents"]:
            assert TestChromeTrace.REQUIRED_KEYS <= set(ev)
            # "X" complete events, plus "M" process_name metadata when
            # the run merged back worker spans (process backend)
            assert ev["ph"] in ("X", "M")

        payload = json.loads(out.read_text())
        perf = payload["perf"]
        assert perf["counted_flops"] > 0
        assert perf["sustained_flops"] > 0
        assert perf["kernel_flops"]["surface_gf.sancho"] > 0
        assert perf["kernel_flops"]["wf.factor"] > 0

    def test_trace_subcommand_summarises(self, spec_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main([
            "simulate", spec_file, "--n-energy", "21",
            "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(trace)]) == 0
        printed = capsys.readouterr().out
        assert "events" in printed
        assert "sustained" in printed
        assert "phases" in printed

    def test_untraced_sweep_has_no_perf_key(self, spec_file, tmp_path):
        out = tmp_path / "out.json"
        main([
            "sweep", spec_file, "--vg-points", "2", "--n-energy", "21",
            "-o", str(out),
        ])
        assert "perf" not in json.loads(out.read_text())
