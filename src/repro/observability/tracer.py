"""Hierarchical phase tracing and measured flop accounting.

The paper's headline claim *is* a measurement: sustained Flop/s =
(analytically counted flops) / (wall time), the Gordon Bell convention.
This module provides the measurement substrate: a :class:`Tracer` with
nestable, exception-safe phase spans (``with tracer.span("rgf"): ...``)
that attribute wall time *and* counted flops to each phase.  The
instrumented kernels (:class:`repro.solvers.BlockTridiagLU`,
:func:`repro.negf.sancho_rubio`, :class:`repro.wf.WFSolver`, ...) report
into the *active* tracer, the ``tracer`` of the run recorder
(:func:`repro.observability.get_tracer`, :func:`~repro.observability.trace_span`,
:func:`~repro.observability.add_flops`).

Design constraints, in order:

1. **~zero cost when off.**  The default active tracer is a shared
   :class:`NullTracer` whose ``enabled`` flag is ``False``; every
   instrumented call site guards its counting arithmetic behind that flag,
   so uninstrumented runs pay one attribute load and one branch per kernel
   call (bounded by the tests).
2. **Exception safety.**  A span opened with ``with`` is always closed and
   recorded, even when the body raises — a traced sweep that hits a fault
   still produces a coherent timeline.
3. **Thread safety.**  The open-span stack is thread-local (spans nest per
   thread); completed spans and the global flop ledger are guarded by a
   lock.  Concurrent threads trace independent timelines into one tracer.

Example
-------
>>> from repro.observability import Tracer, use_tracer
>>> tracer = Tracer()
>>> with use_tracer(tracer):
...     with tracer.span("outer"):
...         with tracer.span("inner"):
...             tracer.add_flops("gemm", 128.0)
>>> tracer.counter.total
128.0
>>> [s.name for s in tracer.spans]       # completion order: inner first
['inner', 'outer']
>>> tracer.spans[0].depth
1
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]


class Span:
    """One closed (or still open) timed phase of a traced run.

    Attributes
    ----------
    name : str
        Phase label, e.g. ``"rgf.solve"`` or ``"task"``.
    category : str
        Coarse grouping used by the Chrome-trace exporter ("phase",
        "kernel", "task", "rank", ...).
    t_start, t_end : float
        Clock readings (:func:`time.perf_counter` by default); ``t_end``
        is None while the span is open.
    own_flops : float
        Flops attributed while this span was the innermost open span of
        its thread.
    total_flops : float
        ``own_flops`` plus the totals of all closed child spans.
    depth : int
        Nesting depth within this thread (0 = top level).
    attrs : dict
        Free-form metadata (``rank=3``, ``task=(ik, ie)``, ...).
    thread : int
        Small per-tracer thread ordinal (Chrome-trace ``tid``).

    Example
    -------
    >>> t = Tracer()
    >>> with t.span("phase", rank=2):
    ...     t.add_flops("k", 8.0)
    >>> s = t.spans[0]
    >>> (s.name, s.own_flops, s.attrs["rank"], s.duration_s >= 0.0)
    ('phase', 8.0, 2, True)
    """

    __slots__ = (
        "name",
        "category",
        "t_start",
        "t_end",
        "own_flops",
        "total_flops",
        "depth",
        "attrs",
        "thread",
    )

    def __init__(self, name, category, t_start, depth, attrs, thread):
        self.name = name
        self.category = category
        self.t_start = t_start
        self.t_end = None
        self.own_flops = 0.0
        self.total_flops = 0.0
        self.depth = depth
        self.attrs = attrs
        self.thread = thread

    @property
    def duration_s(self) -> float:
        """Wall time of the span (s); 0.0 while still open."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms, "
            f"{self.total_flops:.3g} flops, depth={self.depth})"
        )


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span` (exception-safe)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._tracer._close(self._span)
        return False  # never swallow exceptions


class Tracer:
    """Collects nested phase spans and a measured flop ledger.

    Parameters
    ----------
    clock : callable
        Monotonic time source; injectable for deterministic tests.

    Attributes
    ----------
    enabled : bool
        Always True — instrumented call sites branch on this.
    spans : list of Span
        Completed spans, in completion (i.e. post-order) order.
    counter : FlopCounter
        Global measured flop ledger across all spans and threads.
    epoch : float
        Clock reading at construction; the Chrome-trace time origin.

    Example
    -------
    >>> t = Tracer()
    >>> with t.span("sweep"):
    ...     with t.span("bias", category="task"):
    ...         t.add_flops("rgf", 100.0)
    >>> t.counter.counts["rgf"]
    100.0
    >>> t.phase_seconds()["sweep"] >= t.phase_seconds()["bias"]
    True
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        # deferred: repro.perf pulls in repro.parallel, whose scheduler is
        # itself instrumented with this module (import cycle at load time)
        from ..perf.flops import FlopCounter

        self._clock = clock
        self.epoch = clock()
        # wall-clock reading paired with `epoch`: the cross-process anchor
        # `absorb` uses to place worker spans on this tracer's timeline
        self.epoch_wall = time.time()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._thread_ids: dict[int, int] = {}
        self.spans: list[Span] = []
        self.counter = FlopCounter()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_ordinal(self) -> int:
        ident = threading.get_ident()
        ordinal = self._thread_ids.get(ident)
        if ordinal is None:
            with self._lock:
                ordinal = self._thread_ids.setdefault(
                    ident, len(self._thread_ids)
                )
        return ordinal

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "phase", **attrs) -> _SpanHandle:
        """Open a nested span; use as ``with tracer.span("rgf"): ...``.

        The span is closed (and its wall time recorded) when the ``with``
        block exits, *including* via an exception.
        """
        stack = self._stack()
        span = Span(
            name,
            category,
            self._clock(),
            len(stack),
            attrs,
            self._thread_ordinal(),
        )
        stack.append(span)
        return _SpanHandle(self, span)

    def _close(self, span: Span) -> None:
        span.t_end = self._clock()
        span.total_flops += span.own_flops
        stack = self._stack()
        # pop up to and including `span` — tolerates a caller that leaked
        # an unclosed inner span (the leaked span is closed at the same
        # timestamp so the timeline stays consistent)
        while stack:
            top = stack.pop()
            if top is span:
                break
            top.t_end = span.t_end  # pragma: no cover - defensive
            top.total_flops += top.own_flops
            with self._lock:
                self.spans.append(top)
        if stack:
            stack[-1].total_flops += span.total_flops
        with self._lock:
            self.spans.append(span)

    def add_flops(self, kernel: str, flops: float) -> None:
        """Attribute measured flops to ``kernel`` and the innermost span."""
        with self._lock:
            self.counter.add(kernel, flops)
        stack = self._stack()
        if stack:
            stack[-1].own_flops += flops

    def absorb(self, worker, spans=(), flops=None, wall_epoch=None,
               perf_epoch: float = 0.0) -> int:
        """Fold closed spans recorded by another process into this tracer.

        This is the merge half of cross-process telemetry (see
        :mod:`repro.observability.telemetry`): a worker traces into its
        own :class:`Tracer`, ships the closed spans as 9-tuples
        ``(name, category, t_start, t_end, own_flops, total_flops,
        depth, attrs, thread)`` plus its per-kernel flop ledger, and the
        parent absorbs them here.

        Timestamps are re-anchored onto this tracer's clock: the worker
        pairs its ``perf_counter`` epoch (``perf_epoch``) with a
        ``time.time()`` reading (``wall_epoch``), and so does this
        tracer (``epoch`` / ``epoch_wall``), which pins the two
        monotonic clocks to a common wall instant.  With
        ``wall_epoch=None`` the wall term is skipped and the worker's
        epoch is aligned to this tracer's epoch (deterministic tests).

        Every absorbed span gets ``attrs["worker"] = worker`` provenance
        (unless the span already carries one) and the flop ledger adds
        into :attr:`counter`.  Returns the number of spans absorbed.

        Example
        -------
        >>> parent = Tracer()
        >>> n = parent.absorb(
        ...     "pid:7", spans=[("rgf", "kernel", 1.0, 2.0, 8.0, 8.0,
        ...                      0, {}, 0)],
        ...     flops={"rgf": 8.0}, perf_epoch=1.0,
        ... )
        >>> n, parent.counter.counts["rgf"]
        (1, 8.0)
        >>> parent.spans[-1].attrs["worker"]
        'pid:7'
        """
        offset = self.epoch - float(perf_epoch)
        if wall_epoch is not None and self.epoch_wall is not None:
            offset += float(wall_epoch) - self.epoch_wall
        absorbed = []
        for rec in spans:
            name, category, t0, t1, own, total, depth, attrs, tid = rec
            span = Span(
                name, category, float(t0) + offset, int(depth),
                dict(attrs), int(tid),
            )
            span.t_end = float(t1 if t1 is not None else t0) + offset
            span.own_flops = float(own)
            span.total_flops = float(total)
            span.attrs.setdefault("worker", worker)
            absorbed.append(span)
        with self._lock:
            self.spans.extend(absorbed)
            for kernel, value in (flops or {}).items():
                self.counter.add(kernel, float(value))
        return len(absorbed)

    # ------------------------------------------------------------------
    def current_span(self) -> Span | None:
        """The innermost open span of the calling thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def elapsed(self) -> float:
        """Seconds since the tracer was constructed."""
        return self._clock() - self.epoch

    @property
    def total_flops(self) -> float:
        """Sum of the measured flop ledger over all kernels."""
        return self.counter.total

    def span_extent_s(self) -> float:
        """Wall time covered by completed spans (last end - first start)."""
        with self._lock:
            if not self.spans:
                return 0.0
            t0 = min(s.t_start for s in self.spans)
            t1 = max(s.t_end for s in self.spans if s.t_end is not None)
        return max(t1 - t0, 0.0)

    def phase_seconds(self) -> dict:
        """Total wall time per span name (nested spans each count)."""
        out: dict[str, float] = {}
        with self._lock:
            for s in self.spans:
                out[s.name] = out.get(s.name, 0.0) + s.duration_s
        return out

    def rank_seconds(self) -> dict:
        """Busy wall time per ``rank`` attribute over rank-category spans."""
        out: dict[int, float] = {}
        with self._lock:
            for s in self.spans:
                rank = s.attrs.get("rank")
                if rank is not None and s.category == "rank":
                    out[int(rank)] = out.get(int(rank), 0.0) + s.duration_s
        return out

    def task_count(self) -> int:
        """Tasks covered by completed task-category spans.

        A span counts as the ``n_tasks`` it carries (a distributed rank
        wraps a whole stacked k-group in one span), one when it has none.
        """
        with self._lock:
            return sum(
                int(s.attrs.get("n_tasks", 1))
                for s in self.spans if s.category == "task"
            )


class _NullSpanHandle:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_HANDLE = _NullSpanHandle()


class NullTracer:
    """Do-nothing tracer: the thread-safe default when tracing is off.

    Every method is a no-op; ``enabled`` is False so instrumented call
    sites skip their counting arithmetic entirely.  Stateless, hence
    trivially thread-safe and shared as the module singleton
    :data:`NULL_TRACER`.

    Example
    -------
    >>> from repro.observability import get_tracer
    >>> t = get_tracer()          # default: the NullTracer singleton
    >>> t.enabled
    False
    >>> with t.span("anything"):  # still usable as a context manager
    ...     t.add_flops("k", 1.0)
    >>> t.total_flops
    0.0
    """

    enabled = False
    spans: tuple = ()
    epoch_wall = None

    def span(self, name, category="phase", **attrs):
        return _NULL_HANDLE

    def add_flops(self, kernel, flops):
        return None

    def absorb(self, worker, spans=(), flops=None, wall_epoch=None,
               perf_epoch=0.0):
        return 0

    def current_span(self):
        return None

    def elapsed(self):
        return 0.0

    @property
    def total_flops(self):
        return 0.0

    def span_extent_s(self):
        return 0.0

    def phase_seconds(self):
        return {}

    def rank_seconds(self):
        return {}

    def task_count(self):
        return 0


#: The process-wide disabled tracer (default active tracer).
NULL_TRACER = NullTracer()
