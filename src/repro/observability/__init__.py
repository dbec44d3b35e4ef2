"""Measured-performance observability: tracing, flop accounting, reports.

The paper's headline number is a *measurement* — sustained Flop/s =
analytically counted flops / wall time (the Gordon Bell convention).
This package is the measurement substrate of the reproduction:

* :class:`Recorder` / :func:`use_run` — the one run recorder: tracer,
  metrics, event stream, invariant monitor and health sentinel in one
  frozen object in one process-wide slot; :func:`get_tracer`,
  :func:`get_metrics`, :func:`get_events`, :func:`get_monitor`,
  :func:`get_sentinel` read it, and :func:`use_tracer`,
  :func:`use_metrics`, :func:`use_events`, :func:`use_monitor`,
  :func:`use_sentinel` scope one field of it.
* :class:`Tracer` / :func:`trace_span` — hierarchical, exception-safe,
  thread-safe phase spans with wall-time and counted-flop attribution;
  the default active tracer is a no-op :class:`NullTracer`, so
  uninstrumented runs pay ~zero cost.
* :func:`add_flops` — the hook the instrumented kernels
  (:class:`repro.solvers.BlockTridiagLU`, :func:`repro.negf.sancho_rubio`,
  :class:`repro.wf.WFSolver`, ...) report measured flops through.
* :class:`PerfReport` — the sustained-Flop/s ledger of one traced run,
  attached to :class:`repro.core.IVCurve` and embedded in CLI result JSON.
* :class:`MetricsRegistry` / :class:`MetricsSnapshot` — run
  counters, gauges, log-linear histograms and convergence series with
  labels, snapshot/merge/diff and JSON export (``--metrics FILE``);
  the default is a zero-overhead :class:`NullMetrics`.
* :class:`InvariantMonitor` — continuous physics monitors (current
  conservation, transmission bounds, density non-negativity, charge
  neutrality, Γ Hermiticity) evaluated inside the kernels, one
  reduction per invariant over each result stack, on every run (the
  recorder's default monitor is a non-strict one); violations are
  recorded into the metrics registry, or raised as
  :class:`repro.errors.PhysicsInvariantError` in strict mode.
* :mod:`~repro.observability.telemetry` — the recorder and
  cross-process telemetry: :func:`capture_telemetry` /
  :func:`merge_delta` record a pool chunk under the parent recorder's
  spec and fold spans, metrics, sentinel trips, monitor violations and
  fired faults back into the parent (exact on every backend, unified
  whole-run Chrome traces), and
  :class:`TelemetryWriter` streams typed JSONL progress events
  (``--events FILE``) that ``repro top`` renders live.

Two capability modules are not loaded by ``import repro``; import
them from the module that defines them:

* :mod:`repro.observability.export` — :func:`~.export.chrome_trace` /
  :func:`~.export.write_chrome_trace` / :func:`~.export.flat_metrics`
  (``chrome://tracing``-loadable timeline JSON and a flat metrics dict
  for benchmark baselines);
* :mod:`repro.observability.validate` — :func:`~.validate.validate_flops`
  asserts the analytic formulas of :mod:`repro.perf.flops` match the
  instrumented counts exactly.

The committed ``benchmarks/baselines/BENCH_*.json`` files are checked by
one gate outside the package: ``scripts/refresh_baselines.py --check``
regenerates them and diffs every deterministic field exactly.

Typical use::

    from repro.observability import Tracer, use_tracer, PerfReport

    tracer = Tracer()
    with use_tracer(tracer), tracer.span("sweep"):
        curve = IVSweep(scf).transfer_curve(...)
    print(PerfReport.from_tracer(tracer).summary())
"""

from .invariants import InvariantMonitor, InvariantViolation
from .metrics import (
    NULL_METRICS,
    LogLinearHistogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetrics,
    metric_key,
)
from .report import PerfReport
from .telemetry import (
    EVENT_TYPES,
    NULL_EVENTS,
    NullEventWriter,
    Recorder,
    TelemetryDelta,
    TelemetryWriter,
    add_flops,
    capture_telemetry,
    get_events,
    get_metrics,
    get_monitor,
    get_run,
    get_sentinel,
    get_tracer,
    merge_delta,
    read_events,
    render_event_summary,
    summarize_events,
    trace_span,
    use_events,
    use_metrics,
    use_monitor,
    use_run,
    use_sentinel,
    use_tracer,
    validate_events,
)
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    # the run recorder
    "Recorder",
    "get_run",
    "use_run",
    "get_sentinel",
    "use_sentinel",
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "use_tracer",
    "trace_span",
    "add_flops",
    "PerfReport",
    # metrics registry
    "MetricsRegistry",
    "MetricsSnapshot",
    "LogLinearHistogram",
    "NullMetrics",
    "NULL_METRICS",
    "get_metrics",
    "use_metrics",
    "metric_key",
    # physics invariants
    "InvariantMonitor",
    "InvariantViolation",
    "get_monitor",
    "use_monitor",
    # cross-process telemetry and live event stream
    "TelemetryDelta",
    "TelemetryWriter",
    "NullEventWriter",
    "NULL_EVENTS",
    "EVENT_TYPES",
    "capture_telemetry",
    "merge_delta",
    "get_events",
    "use_events",
    "read_events",
    "validate_events",
    "summarize_events",
    "render_event_summary",
]
