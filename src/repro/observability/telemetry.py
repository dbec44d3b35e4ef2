"""The run recorder and cross-process telemetry.

Everything a run records goes into one :class:`Recorder`: the tracer,
the metrics registry, the live event stream and the safety net (the
:class:`~repro.observability.invariants.HealthSentinel`).  One
module-level recorder is the active one — the process's one instrument
slot.  :func:`use_run` scopes a replacement
(``with use_run(tracer=Tracer(), sentinel=HealthSentinel("strict")):``),
and what the instrumented kernels call — :func:`get_tracer`,
:func:`get_metrics`, :func:`get_events`, :func:`get_sentinel`,
:func:`trace_span`, :func:`add_flops` — are one-line views of it.  The
tracer, metrics and event stream default to null instruments, so a site
pays one branch when nothing records; the sentinel defaults to
``contain`` mode, so every run checks its numerical health and its
physics invariants.

Three more things live here:

1. **A recorder crosses the pool whole.**  A pool worker is another
   process: whatever the parent installed after the pool started never
   reaches it, and whatever it records dies with it.  So a recorder
   pickles as its *spec* — whether the tracer and metrics are live, the
   sentinel's mode; the event writer is null in a worker — and every
   pooled chunk runs under
   :func:`capture_telemetry` of the spec it was shipped with.  The
   :class:`TelemetryDelta` it returns carries the chunk's spans,
   metrics and flops, and the growth of its two ledgers
   (:class:`repro.observability.invariants.Ledger`): the faults a
   planted injector fired and the sentinel's trips and violations,
   each one ``(records, counts)`` pair.
   :func:`merge_delta` folds it into the parent's recorder in chunk
   order, so counters and ledgers are exactly what a serial run
   records, and merged spans land in the parent tracer with worker
   provenance and clock-offset alignment (:meth:`Tracer.absorb`).

2. **Structured live event stream.**  :class:`TelemetryWriter` appends
   typed JSONL events (:data:`EVENT_TYPES`) with monotonic sequence
   numbers, wall-clock stamps and progress/ETA fields to a file that can
   be tailed while the run is still going.  ``repro top EVENTS`` renders
   the in-flight view.

3. **Readers.**  :func:`read_events` tolerates a truncated final line
   (the writer died mid-append — the tail is dropped, everything before
   it survives); :func:`validate_events` checks the schema and ordering
   invariants; :func:`summarize_events` / :func:`render_event_summary`
   are the backend of ``repro top``.

Example
-------
>>> from repro.observability.telemetry import capture_telemetry, merge_delta
>>> from repro.observability import MetricsRegistry, use_metrics, add_flops
>>> with use_metrics(MetricsRegistry()) as parent:
...     with capture_telemetry(worker="w0", force=True) as cap:
...         add_flops("rgf", 64.0)       # lands in the capture tracer
...     _ = merge_delta(cap.delta)       # ... and is folded back here
>>> cap.delta.flops["rgf"]
64.0
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

from .invariants import HealthSentinel, Ledger
from .metrics import NULL_METRICS, MetricsRegistry, MetricsSnapshot
from .tracer import NULL_TRACER, Tracer

__all__ = [
    "EVENT_TYPES",
    "EVENT_SCHEMA_VERSION",
    "Recorder",
    "get_run",
    "use_run",
    "get_tracer",
    "get_metrics",
    "get_events",
    "get_sentinel",
    "trace_span",
    "add_flops",
    "use_tracer",
    "use_metrics",
    "use_events",
    "use_sentinel",
    "TelemetryDelta",
    "TelemetryCapture",
    "capture_telemetry",
    "in_worker",
    "merge_delta",
    "TelemetryWriter",
    "NullEventWriter",
    "NULL_EVENTS",
    "read_events",
    "validate_events",
    "summarize_events",
    "render_event_summary",
]

#: Version stamped into every event line (``"v"``) and every delta.
EVENT_SCHEMA_VERSION = 1

#: The closed set of event types a :class:`TelemetryWriter` will emit.
EVENT_TYPES = (
    "run_started",
    "heartbeat",
    "point_done",
    "wave_done",
    "degradation",
    "straggler",
    "chunk_retired",
    "run_finished",
)

# ---------------------------------------------------------------------------
# live event stream


def _json_default(value):
    """Last-resort JSON coercion: numpy scalars to float, else repr."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return repr(value)


class TelemetryWriter:
    """Appends typed JSONL events with monotonic sequence numbers.

    Every line is one JSON object with at least ``v`` (schema version),
    ``seq`` (strictly increasing per writer), ``t`` (wall clock) and
    ``event`` (one of :data:`EVENT_TYPES`); progress events additionally
    carry ``done`` / ``total`` / ``frac`` / ``elapsed_s`` / ``eta_s``.
    Lines are flushed per event so a tailing ``repro top`` sees them
    immediately, and the file is opened in append mode so a resumed
    sweep extends its own history.

    ``run_started`` and ``run_finished`` are idempotent: the layer that
    knows the total (e.g. the sweep loop) and the layer that owns the
    file (the CLI) can both call them without double events — the
    ``context`` dict given at construction is merged into whichever
    ``run_started`` fires first.

    Parameters
    ----------
    path : str
        JSONL file to append to.
    context : dict or None
        Run metadata (command, spec, backend) merged into
        ``run_started``.
    clock : callable
        Wall-clock source; injectable for deterministic tests.
    """

    enabled = True
    #: Minimum stream silence (s) before :meth:`maybe_heartbeat` emits.
    HEARTBEAT_S = 5.0

    def __init__(self, path, context=None, clock=time.time):
        self.path = str(path)
        self.context = dict(context or {})
        self._clock = clock
        self._fh = open(path, "a")
        self._lock = threading.Lock()
        self.seq = 0
        self._started = False
        self._finished = False
        self._t_started = None
        self._t_last_emit = None
        self.total = None
        self.done = 0

    # -- low level -----------------------------------------------------
    def emit(self, event: str, **fields) -> dict:
        """Append one event line (thread-safe); returns the event dict."""
        if event not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event!r}; expected one of {EVENT_TYPES}"
            )
        with self._lock:
            now = self._clock()
            record = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self.seq,
                "t": now,
                "event": event,
            }
            record.update(fields)
            self.seq += 1
            self._t_last_emit = now
            self._fh.write(
                json.dumps(record, default=_json_default) + "\n"
            )
            self._fh.flush()
        return record

    def _progress_fields(self, now) -> dict:
        fields = {"done": self.done, "total": self.total}
        if self._t_started is not None:
            elapsed = max(now - self._t_started, 0.0)
            fields["elapsed_s"] = elapsed
            if self.total:
                fields["frac"] = self.done / self.total
                if self.done > 0:
                    fields["eta_s"] = (
                        elapsed / self.done * (self.total - self.done)
                    )
        return fields

    # -- typed events --------------------------------------------------
    def run_started(self, total=None, **fields) -> None:
        """Emit ``run_started`` once; later calls only backfill ``total``."""
        if total is not None:
            self.total = int(total)
        if self._started:
            return
        self._started = True
        self._t_started = self._clock()
        merged = dict(self.context)
        merged.update(fields)
        if self.total is not None:
            merged["total"] = self.total
        self.emit("run_started", **merged)

    def point_done(self, **fields) -> None:
        """Count one finished unit of work and emit its progress event."""
        self.done += 1
        progress = self._progress_fields(self._clock())
        progress.update(fields)
        self.emit("point_done", **progress)

    def maybe_heartbeat(self, **fields) -> bool:
        """Emit ``heartbeat`` if the stream has been silent long enough.

        Call sites sprinkle this inside long inner loops; the interval
        guard (against the *last emitted event* of any type) keeps the
        file quiet while point_done traffic is already flowing.
        """
        now = self._clock()
        last = self._t_last_emit
        if last is not None and now - last < self.HEARTBEAT_S:
            return False
        progress = self._progress_fields(now)
        progress.update(fields)
        self.emit("heartbeat", **progress)
        return True

    def run_finished(self, **fields) -> None:
        """Emit ``run_finished`` once, with final progress fields."""
        if self._finished:
            return
        self._finished = True
        progress = self._progress_fields(self._clock())
        progress.update(fields)
        self.emit("run_finished", **progress)

    def close(self) -> None:
        """Finish the stream (emitting ``run_finished`` if still open)."""
        if self._started and not self._finished:
            self.run_finished()
        self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullEventWriter:
    """Do-nothing event writer: the zero-overhead default.

    >>> from repro.observability.telemetry import get_events
    >>> get_events().enabled
    False
    """

    enabled = False
    total = None
    done = 0

    def emit(self, event, **fields):
        return None

    def run_started(self, total=None, **fields):
        return None

    def point_done(self, **fields):
        return None

    def maybe_heartbeat(self, **fields):
        return False

    def run_finished(self, **fields):
        return None

    def close(self):
        return None


#: The process-wide disabled event writer (default active writer).
NULL_EVENTS = NullEventWriter()


# ---------------------------------------------------------------------------
# the recorder: one slot, one-line views


@dataclass(frozen=True)
class Recorder:
    """What a run records into: tracer, metrics registry, event stream
    and safety net (:class:`~repro.observability.invariants.HealthSentinel`).

    Frozen: a scope swaps the active recorder (:func:`use_run`), never a
    field of one.  A recorder pickles (and copies) as its *spec*: a fresh
    tracer and registry where these are live, null ones where not, the
    null event writer, and the sentinel as a fresh instance of its mode
    — the recorder a pool worker runs a chunk under
    (:func:`capture_telemetry`).
    """

    tracer: object = NULL_TRACER
    metrics: object = NULL_METRICS
    events: object = NULL_EVENTS
    sentinel: HealthSentinel = HealthSentinel()

    def __reduce__(self):
        return _spawn, (self.tracer.enabled, self.metrics.enabled,
                        self.sentinel)


def _spawn(tracer_live, metrics_live, sentinel) -> Recorder:
    """The recorder a spec unpickles to (:meth:`Recorder.__reduce__`)."""
    return Recorder(
        Tracer() if tracer_live else NULL_TRACER,
        MetricsRegistry() if metrics_live else NULL_METRICS,
        NULL_EVENTS, sentinel,
    )


#: The active recorder: the process's one instrument slot.
_RUN = Recorder()


def get_run() -> Recorder:
    """The active :class:`Recorder`."""
    return _RUN


@contextmanager
def use_run(**fields):
    """Scope the active recorder with ``fields`` replaced; yields it.

    Restores the previous recorder on exit, exception or not.

    Example
    -------
    >>> from repro.observability import Tracer, get_tracer, use_run
    >>> with use_run(tracer=Tracer()) as run:
    ...     get_tracer() is run.tracer
    True
    >>> get_tracer().enabled
    False
    """
    global _RUN
    previous = _RUN
    _RUN = replace(previous, **fields)
    try:
        yield _RUN
    finally:
        _RUN = previous


def get_tracer():
    """The active tracer (a :class:`NullTracer` unless one is installed)."""
    return _RUN.tracer


def get_metrics():
    """The active registry (a :class:`NullMetrics` unless one is installed)."""
    return _RUN.metrics


def get_events():
    """The active event writer (:class:`NullEventWriter` by default)."""
    return _RUN.events


def get_sentinel() -> HealthSentinel:
    """The active safety net (default: ``contain`` mode)."""
    return _RUN.sentinel


def trace_span(name: str, category: str = "phase", **attrs):
    """Open a span on the *active* tracer (no-op when tracing is off)."""
    return _RUN.tracer.span(name, category=category, **attrs)


def add_flops(kernel: str, flops: float) -> None:
    """Report measured flops to the *active* tracer (no-op when off)."""
    _RUN.tracer.add_flops(kernel, flops)


@contextmanager
def _scoped(field: str, instrument):
    with use_run(**{field: instrument}):
        yield instrument


def use_tracer(tracer):
    """``use_run(tracer=tracer)``, yielding the tracer."""
    return _scoped("tracer", tracer)


def use_metrics(registry):
    """``use_run(metrics=registry)``, yielding the registry."""
    return _scoped("metrics", registry)


def use_events(writer):
    """``use_run(events=writer)``, yielding the writer."""
    return _scoped("events", writer)


def use_sentinel(sentinel: HealthSentinel):
    """``use_run(sentinel=sentinel)``, yielding the sentinel."""
    return _scoped("sentinel", sentinel)


# ---------------------------------------------------------------------------
# worker-side capture


#: The ledgers of a delta that recorded nothing: no fault, trip or
#: violation.
_NO_LEDGERS = (([], {}),) * 2


class TelemetryDelta:
    """What one pool chunk recorded: metrics, spans, flops, clock
    epochs and the growth of its ledgers.

    A delta is the unit that crosses the process boundary.  It is built
    from the fresh instruments of a recorder spec (see
    :func:`capture_telemetry`), so its metric snapshot is already a diff
    against zero and merges into the parent by plain addition
    (:meth:`MetricsRegistry.merge_snapshot`).

    Attributes
    ----------
    worker : str
        Provenance label (``"pid:4242"``, ``"rank:3"``); stamped onto
        every absorbed span as ``attrs["worker"]``.
    wall_epoch : float or None
        ``time.time()`` at capture start — the cross-process clock
        anchor used to place worker spans on the parent timeline.
        None suppresses wall alignment (deterministic tests).
    perf_epoch : float
        The capture tracer's ``perf_counter`` epoch; worker span
        timestamps are relative to the same clock.
    duration_s : float
        Wall time the capture was open (merge-overhead accounting).
    metrics : dict or None
        ``MetricsSnapshot.to_dict()`` of everything the task recorded.
    spans : list of tuple
        Closed spans as 9-tuples ``(name, category, t_start, t_end,
        own_flops, total_flops, depth, attrs, thread)``.
    flops : dict
        Per-kernel measured-flop ledger of the capture tracer.
    ledgers : tuple of (list, dict)
        What the chunk added to each ledger, as
        :meth:`repro.observability.invariants.Ledger.since` reads it —
        ``(records, counts)`` of the planted injector's fired faults and
        of the sentinel's trips and violations, in that order.
    """

    __slots__ = (
        "worker", "wall_epoch", "perf_epoch", "duration_s",
        "metrics", "spans", "flops", "ledgers",
    )

    def __init__(self, worker, wall_epoch=None, perf_epoch=0.0,
                 duration_s=0.0, metrics=None, spans=(), flops=None,
                 ledgers=_NO_LEDGERS):
        self.worker = worker
        self.wall_epoch = wall_epoch
        self.perf_epoch = perf_epoch
        self.duration_s = duration_s
        self.metrics = metrics
        self.spans = list(spans)
        self.flops = dict(flops or {})
        self.ledgers = tuple(ledgers)

    def is_empty(self) -> bool:
        """True when merging this delta would be a no-op."""
        if (self.spans or self.flops
                or any(counts for _, counts in self.ledgers)):
            return False
        m = self.metrics or {}
        return not any(m.get(k) for k in
                       ("counters", "gauges", "histograms", "series"))

    def to_bytes(self) -> bytes:
        """Compact serialized form (sized by ``telemetry.delta_bytes``)."""
        state = {name: getattr(self, name) for name in self.__slots__}
        state["v"] = EVENT_SCHEMA_VERSION
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TelemetryDelta":
        """Inverse of :meth:`to_bytes`."""
        state = pickle.loads(blob)
        state.pop("v")
        return cls(**state)

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"TelemetryDelta(worker={self.worker!r}, "
            f"spans={len(self.spans)}, kernels={len(self.flops)})"
        )


def _span_records(tracer) -> list:
    """Closed spans of ``tracer`` as picklable 9-tuples."""
    records = []
    for s in tracer.spans:
        if s.t_end is None:  # pragma: no cover - open spans not shipped
            continue
        records.append((
            s.name, s.category, s.t_start, s.t_end,
            s.own_flops, s.total_flops, s.depth, dict(s.attrs), s.thread,
        ))
    return records


class TelemetryCapture:
    """Handle yielded by :func:`capture_telemetry`.

    ``delta`` is populated on scope exit when the capture engaged (child
    process, or ``force=True``) and anything was recorded; it stays None
    otherwise — callers ship ``cap.delta`` verbatim and the parent's
    :func:`merge_delta` treats None as "nothing to merge".
    """

    __slots__ = ("worker", "engaged", "delta")

    def __init__(self, worker, engaged):
        self.worker = worker
        self.engaged = engaged
        self.delta = None


def in_worker() -> bool:
    """True when executing inside a process-pool worker.

    The parent-side executions of a task — the single-item shortcut, the
    re-execution of a straggler after a pool restart — are not in a
    worker; the ``"worker"`` fault site fires only here so that recovery
    really recovers, and :func:`capture_telemetry` engages only here.
    A pool worker always has :mod:`multiprocessing` loaded, so a process
    that never imported it is not one (``import repro`` does not).
    """
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


@contextmanager
def capture_telemetry(run=None, worker: str | None = None,
                      force: bool = False, solver=None):
    """Record this scope under ``run`` into a shippable delta.

    Installs ``run`` as the active recorder for the ``with`` block and
    packages what it recorded there into ``cap.delta``: spans, metrics
    and flops, and what its ledgers recorded — the faults the injector
    of a planted ``solver`` (:class:`repro.resilience.PlantedSolver`)
    fired and the sentinel's trips and violations.  The capture only *engages* inside a pool worker (or with
    ``force=True``): in the parent, the live recorder already sees
    everything, so the scope yields an inert handle and the caller's
    recording is untouched — the same call site is safe on every
    backend.

    Parameters
    ----------
    run : Recorder or None
        What to record under.  A chunk payload carries the parent's
        recorder, which a worker unpickles as its spec: fresh
        instruments, the parent's modes.  None: a fresh tracer,
        registry and ``contain`` sentinel.
    worker : str or None
        Provenance label; defaults to ``"pid:<os.getpid()>"``.
    force : bool
        Engage even outside a child process (tests, benchmarks).
    solver : object or None
        The chunk's solver; a planted one's injector has its fired
        faults shipped back.
    """
    global _RUN
    label = worker or f"pid:{os.getpid()}"
    engaged = force or in_worker()
    cap = TelemetryCapture(label, engaged)
    if not engaged:
        yield cap
        return
    if run is None:
        run = Recorder(Tracer(), MetricsRegistry(), sentinel=HealthSentinel())
    injector = getattr(solver, "injector", None)
    ledgers = (Ledger() if injector is None else injector.ledger,
               run.sentinel.ledger)
    marks = [ledger.marker() for ledger in ledgers]
    wall0 = time.time()
    previous, _RUN = _RUN, run
    try:
        yield cap
    finally:
        _RUN = previous
        tracer, metrics = run.tracer, run.metrics
        delta = TelemetryDelta(
            worker=label,
            wall_epoch=wall0,
            perf_epoch=tracer.epoch if tracer.enabled else 0.0,
            duration_s=tracer.elapsed(),
            metrics=metrics.snapshot().to_dict() if metrics.enabled else None,
            spans=_span_records(tracer) if tracer.enabled else (),
            flops=tracer.counter.counts if tracer.enabled else None,
            ledgers=[ledger.since(mark)
                     for ledger, mark in zip(ledgers, marks)],
        )
        if not delta.is_empty():
            cap.delta = delta


def merge_delta(delta, solver=None, faults_only: bool = False) -> bool:
    """Fold a worker's :class:`TelemetryDelta` into the active recorder.

    Counters add, histograms merge, series extend and spans are absorbed
    into the active tracer with ``attrs["worker"]`` provenance and
    clock-offset alignment; the fired faults go into the ledger of
    ``solver``'s planted injector
    (:meth:`repro.resilience.FaultInjector.absorb`), the trips and
    violations into the sentinel's — so the merged
    state is exactly what a serial run of the same workload would have
    recorded.  Bookkeeping lands under
    ``telemetry.deltas_merged{worker=...}`` / ``telemetry.spans_merged``.
    ``faults_only`` merges the fired faults alone (the chunk belonged to
    a dispatch that raised, whose other records are void).

    Accepts None (nothing captured) and returns whether anything merged.
    """
    if delta is None or delta.is_empty():
        return False
    run = _RUN
    owners = (getattr(solver, "injector", None),)
    if not faults_only:
        owners += (run.sentinel,)
    for owner, (records, counts) in zip(owners, delta.ledgers):
        if counts:
            owner.absorb(records, counts)
    if faults_only:
        return bool(delta.ledgers[0][1])
    metrics, tracer = run.metrics, run.tracer
    if metrics.enabled and delta.metrics:
        metrics.merge_snapshot(MetricsSnapshot.from_dict(delta.metrics))
    if tracer.enabled:
        tracer.absorb(
            delta.worker,
            spans=delta.spans,
            flops=delta.flops,
            wall_epoch=delta.wall_epoch,
            perf_epoch=delta.perf_epoch,
        )
    if metrics.enabled:
        metrics.inc("telemetry.deltas_merged", 1.0, worker=delta.worker)
        metrics.inc("telemetry.spans_merged", float(len(delta.spans)))
    return True

# ---------------------------------------------------------------------------
# readers


def read_events(path, strict: bool = False) -> list:
    """Parse a JSONL event file into a list of event dicts.

    A malformed *final* line is tolerated by default: it is exactly what
    a writer killed mid-append leaves behind, and everything before it
    is intact — the tail is dropped.  Malformed lines anywhere else (or
    any malformed line with ``strict=True``) raise ``ValueError``.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    events = []
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            events.append(json.loads(stripped))
        except ValueError:
            trailing = any(rest.strip() for rest in lines[i + 1:])
            if strict or trailing:
                raise ValueError(
                    f"{path}:{i + 1}: malformed event line"
                ) from None
            break  # truncated tail: the writer died mid-append
    return events


def validate_events(events) -> list:
    """Schema/ordering violations of an event list (empty == valid).

    Checks: required fields (``v``/``seq``/``t``/``event``), known event
    types, strictly increasing ``seq``, ``run_started`` first when
    present, and nothing after ``run_finished``.
    """
    errors = []
    prev_seq = None
    finished_at = None
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        for key in ("v", "seq", "t", "event"):
            if key not in ev:
                errors.append(f"event {i}: missing field {key!r}")
        name = ev.get("event")
        if name is not None and name not in EVENT_TYPES:
            errors.append(f"event {i}: unknown type {name!r}")
        seq = ev.get("seq")
        if isinstance(seq, int):
            if prev_seq is not None and seq <= prev_seq:
                errors.append(
                    f"event {i}: seq {seq} not increasing (prev {prev_seq})"
                )
            prev_seq = seq
        if name == "run_started" and i != 0:
            errors.append(f"event {i}: run_started not first")
        if finished_at is not None:
            errors.append(
                f"event {i}: {name!r} after run_finished "
                f"(event {finished_at})"
            )
        if name == "run_finished":
            finished_at = i
    return errors


def summarize_events(events) -> dict:
    """Aggregate an event list into the dict ``repro top`` renders.

    Tolerant of partial streams: a live (or killed) run simply has no
    ``run_finished`` yet and ``finished`` stays False.
    """
    summary = {
        "n_events": len(events),
        "by_type": {},
        "started": None,
        "finished": False,
        "done": 0,
        "total": None,
        "frac": None,
        "elapsed_s": None,
        "eta_s": None,
        "t_first": None,
        "t_last": None,
        "last_event": None,
        "points": [],
        "degradations": [],
        "stragglers": [],
        "chunks_retired": 0,
        "heartbeats": 0,
        "waves": 0,
    }
    for ev in events:
        name = ev.get("event")
        summary["by_type"][name] = summary["by_type"].get(name, 0) + 1
        t = ev.get("t")
        if isinstance(t, (int, float)):
            if summary["t_first"] is None:
                summary["t_first"] = t
            summary["t_last"] = t
        summary["last_event"] = name
        for key in ("done", "total", "frac", "elapsed_s", "eta_s"):
            if key in ev and ev[key] is not None:
                summary[key] = ev[key]
        if name == "run_started":
            summary["started"] = {
                k: v for k, v in ev.items()
                if k not in ("v", "seq", "t", "event")
            }
        elif name == "point_done":
            summary["points"].append(ev)
        elif name == "degradation":
            summary["degradations"].append(ev)
        elif name == "straggler":
            summary["stragglers"].append(ev)
        elif name == "chunk_retired":
            summary["chunks_retired"] += 1
        elif name == "wave_done":
            summary["waves"] += 1
        elif name == "heartbeat":
            summary["heartbeats"] += 1
        elif name == "run_finished":
            summary["finished"] = True
    return summary


def _fmt_s(seconds) -> str:
    if seconds is None or not isinstance(seconds, (int, float)) \
            or not math.isfinite(seconds):
        return "-"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_event_summary(summary, now=None, width: int = 28) -> str:
    """Human view of :func:`summarize_events` (shared by top and doctor)."""
    from ..io import format_table

    lines = []
    started = summary.get("started") or {}
    run_bits = " ".join(
        f"{k}={started[k]}" for k in sorted(started) if k != "total"
    )
    lines.append(f"run      : {run_bits or '(no run_started event)'}")

    done = summary.get("done") or 0
    total = summary.get("total")
    frac = summary.get("frac")
    if frac is None and total:
        frac = done / total
    if total:
        filled = int(round((frac or 0.0) * width))
        bar = "#" * filled + "." * (width - filled)
        lines.append(
            f"progress : [{bar}] {done}/{total} ({(frac or 0) * 100:.0f}%)"
            f"  elapsed {_fmt_s(summary.get('elapsed_s'))}"
            f"  eta {_fmt_s(summary.get('eta_s'))}"
        )
    else:
        lines.append(
            f"progress : {done} done"
            f"  elapsed {_fmt_s(summary.get('elapsed_s'))}"
        )

    points = summary.get("points") or []
    if points:
        rows = []
        for ev in points[-12:]:
            rows.append([
                f"{ev.get('v_gate', float('nan')):+.3f}"
                if isinstance(ev.get("v_gate"), (int, float)) else "-",
                f"{ev.get('v_drain', float('nan')):+.3f}"
                if isinstance(ev.get("v_drain"), (int, float)) else "-",
                f"{ev.get('current_a', float('nan')):.3e}"
                if isinstance(ev.get("current_a"), (int, float)) else "-",
                "yes" if ev.get("converged") else "no",
                "resume" if ev.get("resumed") else "",
            ])
        lines.append("")
        lines.append(format_table(
            ["V_G (V)", "V_D (V)", "I (A)", "conv", ""],
            rows, title=f"last {len(rows)} of {len(points)} points",
        ))

    degradations = summary.get("degradations") or []
    if degradations:
        rows = [
            [str(ev.get("stage", "?")), str(ev.get("detail", ""))[:48],
             str(ev.get("count", 1))]
            for ev in degradations[-8:]
        ]
        lines.append("")
        lines.append(format_table(
            ["stage", "detail", "n"], rows,
            title=f"degradations ({len(degradations)})",
        ))

    stragglers = summary.get("stragglers") or []
    lines.append("")
    lines.append(
        f"stragglers {len(stragglers)} | "
        f"chunks retired {summary.get('chunks_retired', 0)} | "
        f"heartbeats {summary.get('heartbeats', 0)} | "
        f"events {summary.get('n_events', 0)}"
    )
    if summary.get("finished"):
        lines.append(
            f"status   : finished ({_fmt_s(summary.get('elapsed_s'))})"
        )
    else:
        age = None
        t_last = summary.get("t_last")
        if now is not None and isinstance(t_last, (int, float)):
            age = max(now - t_last, 0.0)
        suffix = f" (last event {_fmt_s(age)} ago)" if age is not None else ""
        lines.append(f"status   : in flight{suffix}")
    return "\n".join(lines)
