"""Run metrics: counters, gauges, log-linear histograms, series.

Where :mod:`repro.observability.tracer` answers "where did the time go",
this module answers "how did the run behave": SCF residual series,
surface-GF decimation iteration histograms, per-level communication
volumes, invariant-violation counters.  Four instrument kinds:

* **counter** — monotonically increasing total (``inc``): task counts,
  bytes moved, invariant violations;
* **gauge** — last-written value (``gauge``): final SCF residual,
  charge-neutrality defect of the latest bias point;
* **histogram** — log-linear distribution (``observe``): decimation
  iteration counts, per-task wall times.  Buckets are octaves subdivided
  linearly (HDR-style), so the span from 1 µs to 1 h needs ~100 buckets;
* **series** — append-only (step, value) list (``record``): the
  per-iteration convergence telemetry that ``repro doctor`` prints.

All instruments accept ``**labels``; a labelled instrument is keyed
``name{k=v,...}`` with sorted label keys, the flattening used by the JSON
export and the flat benchmark metrics.

Well-known namespaces (recorded by the rest of the stack, listed here so
dashboards have one place to look):

* ``ipc.task_bytes{path=pickled}`` — pickled size of each chunk payload
  a process-backend energy sweep ships to its workers;
* ``adaptive.*`` — the energy wave loop of every
  ``TransportCalculation`` solve (a uniform grid is its one wave 0;
  ``energy_mode="adaptive"`` refines on):
  ``adaptive.waves`` / ``adaptive.nodes_added`` /
  ``adaptive.nodes_saved_vs_uniform`` (counters) and
  ``adaptive.est_error`` (gauge: worst interval interpolation error of
  the last scored wave).  All recorded parent-side from bitwise
  round-tripped results, so they are exactly equal on every backend;
* ``scf.*``, ``comm.*``, ``kernel.*`` — convergence telemetry,
  per-level communication and kernel flops.

Mirroring the tracer, the default active registry (the ``metrics`` of
the run recorder, :func:`repro.observability.get_metrics`) is a shared
:class:`NullMetrics` whose ``enabled`` flag is False — instrumented call
sites guard on that flag, so unmonitored runs pay one attribute load and
one branch per site, and *exactly nothing* is allocated or stored.

Typical use::

    from repro.observability import MetricsRegistry, use_metrics

    registry = MetricsRegistry()
    with use_metrics(registry):
        curve = IVSweep(scf).transfer_curve(...)
    snap = registry.snapshot()
    snap.write("metrics.json")
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field

__all__ = [
    "LogLinearHistogram",
    "MetricsSnapshot",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "metric_key",
]


#: Memo of flattened keys — instrument sites use a small fixed set of
#: (name, labels) combinations, so the string assembly is paid once.
_KEY_CACHE: dict = {}
_KEY_CACHE_MAX = 8192


def metric_key(name: str, labels: dict) -> str:
    """Flattened instrument key: ``name`` or ``name{k=v,...}`` (sorted)."""
    if not labels:
        return name
    try:
        cache_key = (name, tuple(sorted(labels.items())))
    except TypeError:  # unorderable/unhashable label values: build directly
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"
    key = _KEY_CACHE.get(cache_key)
    if key is None:
        inner = ",".join(f"{k}={v}" for k, v in cache_key[1])
        key = f"{name}{{{inner}}}"
        if len(_KEY_CACHE) < _KEY_CACHE_MAX:
            _KEY_CACHE[cache_key] = key
    return key


class LogLinearHistogram:
    """Log-linear (HDR-style) histogram of positive-ish values.

    Each power-of-two octave is subdivided into :attr:`SUBBUCKETS` linear
    bins, giving a constant ~``1/SUBBUCKETS`` relative resolution over an
    unbounded dynamic range with a bounded bucket count.  Values <= 0
    land in a dedicated underflow bucket (index ``None`` in the export).

    Example
    -------
    >>> h = LogLinearHistogram()
    >>> for v in (1.0, 1.1, 2.5, 40.0):
    ...     h.observe(v)
    >>> h.count, h.min, h.max
    (4, 1.0, 40.0)
    >>> h.merge(h); h.count
    8
    """

    __slots__ = ("buckets", "underflow", "count", "total", "min", "max")

    #: Linear bins per power-of-two octave.
    SUBBUCKETS = 4

    def __init__(self):
        self.buckets: dict[int, int] = {}
        self.underflow = 0
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        mantissa, exponent = math.frexp(value)  # value = m * 2^e, m in [.5,1)
        sub = int((2.0 * mantissa - 1.0) * self.SUBBUCKETS)
        return exponent * self.SUBBUCKETS + min(sub, self.SUBBUCKETS - 1)

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """(low, high) value range of bucket ``index``."""
        exponent, sub = divmod(index, self.SUBBUCKETS)
        width = 2.0 ** (exponent - 1) / self.SUBBUCKETS
        low = 2.0 ** (exponent - 1) + sub * width
        return low, low + width

    def observe(self, value: float) -> None:
        """Add one sample."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        if value <= 0.0 or not math.isfinite(value):
            self.underflow += 1
            return
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (bucket midpoint); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = self.underflow
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= target:
                low, high = self.bucket_bounds(idx)
                return 0.5 * (low + high)
        return self.max

    def merge(self, other: "LogLinearHistogram") -> None:
        """Fold another histogram into this one."""
        # snapshot first: merging a histogram into itself must double it
        items = list(other.buckets.items())
        self.underflow += other.underflow
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for idx, n in items:
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    def to_dict(self) -> dict:
        """JSON view: count/sum/min/max plus sparse bucket counts."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "underflow": self.underflow,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogLinearHistogram":
        """Inverse of :meth:`to_dict`."""
        h = cls()
        h.count = int(data["count"])
        h.total = float(data["sum"])
        h.min = math.inf if data.get("min") is None else float(data["min"])
        h.max = -math.inf if data.get("max") is None else float(data["max"])
        h.underflow = int(data.get("underflow", 0))
        h.buckets = {int(k): int(v) for k, v in data.get("buckets", {}).items()}
        return h


@dataclass
class MetricsSnapshot:
    """Immutable-by-convention view of a registry at one instant.

    All four maps are keyed by the flattened ``name{k=v,...}`` string of
    :func:`metric_key`.  Snapshots support :meth:`merge` (combine two
    runs), :meth:`diff` (what happened between two snapshots of the same
    registry) and round-trip JSON (:meth:`to_dict` / :meth:`from_dict`),
    which is the format ``--metrics FILE`` writes.
    """

    counters: dict = field(default_factory=dict)
    gauges: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def counter(self, name: str, default: float = 0.0, **labels) -> float:
        """Counter value by name and labels (``default`` when absent)."""
        return self.counters.get(metric_key(name, labels), default)

    def gauge(self, name: str, default: float | None = None, **labels):
        """Gauge value by name and labels."""
        return self.gauges.get(metric_key(name, labels), default)

    def with_prefix(self, kind: str, prefix: str) -> dict:
        """All ``kind`` ("counters", "series", ...) entries under a prefix."""
        source = getattr(self, kind)
        return {k: v for k, v in source.items() if k.startswith(prefix)}

    def total(self, prefix: str) -> float:
        """Sum of all counters whose key starts with ``prefix``."""
        return sum(
            v for k, v in self.counters.items() if k.startswith(prefix)
        )

    # ------------------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combined snapshot: counters add, series concatenate, gauges
        take ``other``'s value, histograms merge."""
        out = MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                k: LogLinearHistogram.from_dict(h.to_dict())
                for k, h in self.histograms.items()
            },
            series={k: list(v) for k, v in self.series.items()},
        )
        for k, v in other.counters.items():
            out.counters[k] = out.counters.get(k, 0.0) + v
        out.gauges.update(other.gauges)
        for k, h in other.histograms.items():
            if k in out.histograms:
                out.histograms[k].merge(h)
            else:
                out.histograms[k] = LogLinearHistogram.from_dict(h.to_dict())
        for k, v in other.series.items():
            out.series.setdefault(k, []).extend(v)
        return out

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """What changed since ``baseline`` (an earlier snapshot of the
        same registry): counters subtract, series keep only the new tail,
        gauges and histograms report the current state."""
        out = MetricsSnapshot(
            gauges=dict(self.gauges),
            histograms=dict(self.histograms),
        )
        for k, v in self.counters.items():
            delta = v - baseline.counters.get(k, 0.0)
            if delta != 0.0:
                out.counters[k] = delta
        for k, v in self.series.items():
            tail = v[len(baseline.series.get(k, ())):]
            if tail:
                out.series[k] = tail
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible document (the ``--metrics FILE`` format)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                k: h.to_dict() for k, h in self.histograms.items()
            },
            "series": {k: list(v) for k, v in self.series.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        """Inverse of :meth:`to_dict`."""
        return cls(
            counters={k: float(v) for k, v in data.get("counters", {}).items()},
            gauges=dict(data.get("gauges", {})),
            histograms={
                k: LogLinearHistogram.from_dict(h)
                for k, h in data.get("histograms", {}).items()
            },
            series={
                # JSON turns (step, value) tuples into lists; restore them
                k: [tuple(entry) for entry in v]
                for k, v in data.get("series", {}).items()
            },
        )

    def write(self, path) -> None:
        """Serialise to ``path`` as indented JSON."""
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MetricsSnapshot":
        """Load a snapshot written by :meth:`write`."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def flat(self) -> dict:
        """Single-level numeric dict (the shape of a ``BENCH_*.json`` file).

        Counters and gauges appear under their key; histograms contribute
        ``<key>.count`` and ``<key>.mean``; series contribute
        ``<key>.last`` and ``<key>.len``.
        """
        out: dict[str, float] = {}
        out.update(self.counters)
        for k, v in self.gauges.items():
            if isinstance(v, (int, float)):
                out[k] = float(v)
        for k, h in self.histograms.items():
            out[f"{k}.count"] = float(h.count)
            out[f"{k}.mean"] = h.mean
        for k, v in self.series.items():
            out[f"{k}.len"] = float(len(v))
            if v and isinstance(v[-1][1] if isinstance(v[-1], (list, tuple))
                               else v[-1], (int, float)):
                last = v[-1][1] if isinstance(v[-1], (list, tuple)) else v[-1]
                out[f"{k}.last"] = float(last)
        return out


class MetricsRegistry:
    """Thread-safe live registry: the run recorder's ``metrics`` when live.

    Example
    -------
    >>> r = MetricsRegistry()
    >>> r.inc("tasks", 3, level="energy")
    >>> r.gauge("residual", 1e-4)
    >>> r.observe("iters", 12.0)
    >>> r.record("scf.residual", 0.1)
    >>> snap = r.snapshot()
    >>> snap.counter("tasks", level="energy")
    3.0
    >>> snap.gauge("residual")
    0.0001
    """

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, object] = {}
        self._histograms: dict[str, LogLinearHistogram] = {}
        self._series: dict[str, list] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add ``value`` to a counter (monotonic total)."""
        key = metric_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + float(value)

    def gauge(self, name: str, value, **labels) -> None:
        """Set a gauge to its latest value."""
        key = metric_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float, **labels) -> None:
        """Add one sample to a log-linear histogram."""
        self.observe_key(metric_key(name, labels), value)

    # Fast path for a per-solve call site: the caller pre-flattens the
    # key (via :func:`metric_key`) once, skipping the kwargs dict and
    # label sort on every hit.  Semantically identical to observe.
    def observe_key(self, key: str, value: float) -> None:
        """:meth:`observe` with an already-flattened instrument key."""
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = LogLinearHistogram()
            hist.observe(value)

    def record(self, name: str, value, step: int | None = None,
               **labels) -> None:
        """Append ``(step, value)`` to a series (auto-numbered steps)."""
        key = metric_key(name, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = []
            series.append(
                [len(series) if step is None else int(step), value]
            )

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a snapshot from another registry into this live one.

        The merge half of cross-process telemetry (see
        :mod:`repro.observability.telemetry`): counters add, gauges take
        the snapshot's value, histograms merge bucket-wise and series
        extend — the same semantics as :meth:`MetricsSnapshot.merge`,
        applied in place so worker deltas accumulate into the parent's
        active registry under their original keys.

        Example
        -------
        >>> parent, worker = MetricsRegistry(), MetricsRegistry()
        >>> parent.inc("tasks", 2); worker.inc("tasks", 3)
        >>> parent.merge_snapshot(worker.snapshot())
        >>> parent.snapshot().counter("tasks")
        5.0
        """
        with self._lock:
            for k, v in snap.counters.items():
                self._counters[k] = self._counters.get(k, 0.0) + float(v)
            self._gauges.update(snap.gauges)
            for k, h in snap.histograms.items():
                mine = self._histograms.get(k)
                if mine is None:
                    self._histograms[k] = LogLinearHistogram.from_dict(
                        h.to_dict()
                    )
                else:
                    mine.merge(h)
            for k, v in snap.series.items():
                self._series.setdefault(k, []).extend(
                    [list(entry) for entry in v]
                )

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Deep-enough copy of the current state (safe to keep/export)."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                histograms={
                    k: LogLinearHistogram.from_dict(h.to_dict())
                    for k, h in self._histograms.items()
                },
                series={k: list(v) for k, v in self._series.items()},
            )

    def reset(self) -> None:
        """Clear every instrument (fresh run on a reused registry)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._series.clear()


class NullMetrics:
    """Do-nothing registry: the zero-overhead default when metrics are off.

    Stateless and shared as :data:`NULL_METRICS`; ``enabled`` is False so
    instrumented call sites skip their label/arithmetic work entirely —
    the same contract as :class:`repro.observability.NullTracer`.

    >>> from repro.observability import get_metrics
    >>> get_metrics().enabled
    False
    """

    enabled = False

    def inc(self, name, value=1.0, **labels):
        return None

    def gauge(self, name, value, **labels):
        return None

    def observe(self, name, value, **labels):
        return None

    def observe_key(self, key, value):
        return None

    def record(self, name, value, step=None, **labels):
        return None

    def merge_snapshot(self, snap):
        return None

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def reset(self):
        return None


#: The process-wide disabled registry (default active metrics).
NULL_METRICS = NullMetrics()
