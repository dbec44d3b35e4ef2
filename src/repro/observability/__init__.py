"""Measured-performance observability: tracing, flop accounting, reports.

The paper's headline number is a *measurement* — sustained Flop/s =
analytically counted flops / wall time (the Gordon Bell convention).
This package is the measurement substrate of the reproduction:

* :class:`Tracer` / :func:`trace_span` — hierarchical, exception-safe,
  thread-safe phase spans with wall-time and counted-flop attribution;
  the default active tracer is a no-op :class:`NullTracer`, so
  uninstrumented runs pay ~zero cost.
* :func:`add_flops` — the hook the instrumented kernels
  (:class:`repro.solvers.BlockTridiagLU`, :func:`repro.negf.sancho_rubio`,
  :class:`repro.wf.WFSolver`, ...) report measured flops through.
* :class:`PerfReport` — the sustained-Flop/s ledger of one traced run,
  attached to :class:`repro.core.IVCurve` and embedded in CLI result JSON.
* :class:`MetricsRegistry` / :class:`MetricsSnapshot` — process-wide
  counters, gauges, log-linear histograms and convergence series with
  labels, snapshot/merge/diff and JSON export (``--metrics FILE``);
  the default is a zero-overhead :class:`NullMetrics`.
* :class:`InvariantMonitor` — continuous physics monitors (current
  conservation, transmission bounds, density non-negativity, charge
  neutrality, Γ Hermiticity) evaluated inside the kernels; violations
  are recorded into the metrics registry, or raised as
  :class:`repro.errors.PhysicsInvariantError` in strict mode.
* :mod:`~repro.observability.telemetry` — cross-process telemetry:
  :func:`capture_telemetry` / :func:`merge_delta` record worker-side
  tracer/metrics activity and fold it back into the parent (exact
  counters on every backend, unified whole-run Chrome traces), and
  :class:`TelemetryWriter` streams typed JSONL progress events
  (``--events FILE``) that ``repro top`` renders live.

Three capability modules are not loaded by ``import repro``; import
them from the module that defines them:

* :mod:`repro.observability.export` — :func:`~.export.chrome_trace` /
  :func:`~.export.write_chrome_trace` / :func:`~.export.flat_metrics`
  (``chrome://tracing``-loadable timeline JSON and a flat metrics dict
  for benchmark baselines);
* :mod:`repro.observability.validate` — :func:`~.validate.validate_flops`
  asserts the analytic formulas of :mod:`repro.perf.flops` match the
  instrumented counts exactly;
* :mod:`repro.observability.regression` —
  :func:`~.regression.compare_metrics` /
  :func:`~.regression.check_against_baselines`, the perf-regression gate
  over ``benchmarks/baselines/BENCH_*.json`` with per-metric tolerance
  bands and pass/warn/fail verdicts.

Typical use::

    from repro.observability import Tracer, use_tracer, PerfReport

    tracer = Tracer()
    with use_tracer(tracer), tracer.span("sweep"):
        curve = IVSweep(scf).transfer_curve(...)
    print(PerfReport.from_tracer(tracer).summary())
"""

from .invariants import (
    NULL_MONITOR,
    InvariantMonitor,
    InvariantViolation,
    NullInvariantMonitor,
    get_monitor,
    set_monitor,
    use_monitor,
)
from .metrics import (
    NULL_METRICS,
    LogLinearHistogram,
    MetricsRegistry,
    MetricsSnapshot,
    NullMetrics,
    get_metrics,
    metric_key,
    set_metrics,
    use_metrics,
)
from .report import PerfReport
from .telemetry import (
    EVENT_TYPES,
    NULL_EVENTS,
    NullEventWriter,
    TelemetryDelta,
    TelemetryWriter,
    capture_telemetry,
    get_events,
    merge_delta,
    read_events,
    render_event_summary,
    set_events,
    summarize_events,
    use_events,
    validate_events,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    add_flops,
    get_tracer,
    set_tracer,
    trace_span,
    use_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
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
    "set_metrics",
    "use_metrics",
    "metric_key",
    # physics invariants
    "InvariantMonitor",
    "InvariantViolation",
    "NullInvariantMonitor",
    "NULL_MONITOR",
    "get_monitor",
    "set_monitor",
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
    "set_events",
    "use_events",
    "read_events",
    "validate_events",
    "summarize_events",
    "render_event_summary",
]
