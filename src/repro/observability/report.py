"""Sustained-Flop/s run reports from measured traces.

:class:`PerfReport` is the measured sibling of the *predicted*
:class:`repro.perf.model.ModelReport` (and rides next to the run's
:class:`repro.resilience.DegradationReport` account): where the model computes sustained
Flop/s from analytic counts and a machine model, the PerfReport divides
the flops the instrumented kernels actually reported by the wall time the
tracer actually observed — the Gordon Bell convention applied to a real
run.  It is attached to :class:`repro.core.IVCurve` whenever a tracer is
active and embedded in the CLI result JSON, so every optimisation PR can
be judged against a measured baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PerfReport"]


@dataclass
class PerfReport:
    """Measured performance ledger of one traced run.

    Attributes
    ----------
    wall_time_s : float
        Wall time of the run (s) under the chosen accounting (by default
        the extent of the completed spans).
    counted_flops : float
        Total measured flops reported by the instrumented kernels.
    kernel_flops : dict
        Per-kernel breakdown, e.g. ``{"block_lu.factor": ...,
        "surface_gf.sancho": ...}``.
    phase_seconds : dict
        Total wall time per span name (nested spans each count once).
    rank_seconds : dict
        Busy time per rank (spans carrying a ``rank`` attribute).
    n_spans, n_tasks : int
        Completed spans overall / task-category spans (the per-(k, E) or
        per-bias work items of the timelines).

    Example
    -------
    >>> from repro.observability import PerfReport, Tracer, use_tracer
    >>> t = Tracer()
    >>> with use_tracer(t), t.span("sweep"):
    ...     t.add_flops("gemm", 1e6)
    >>> report = PerfReport.from_tracer(t, wall_time_s=0.5)
    >>> report.sustained_flops
    2000000.0
    >>> report.to_dict()["counted_flops"]
    1000000.0
    """

    wall_time_s: float
    counted_flops: float
    kernel_flops: dict = field(default_factory=dict)
    phase_seconds: dict = field(default_factory=dict)
    rank_seconds: dict = field(default_factory=dict)
    n_spans: int = 0
    n_tasks: int = 0

    # ------------------------------------------------------------------
    @property
    def sustained_flops(self) -> float:
        """Measured sustained performance: counted flops / wall time."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.counted_flops / self.wall_time_s

    @classmethod
    def from_tracer(cls, tracer, wall_time_s: float | None = None) -> "PerfReport":
        """Aggregate a :class:`repro.observability.Tracer` into a report.

        ``wall_time_s`` overrides the wall-time accounting; the default is
        the extent of the completed spans (falling back to the tracer's
        lifetime when no span was recorded).
        """
        if wall_time_s is None:
            wall_time_s = tracer.span_extent_s() or tracer.elapsed()
        counter = getattr(tracer, "counter", None)
        kernel_flops = dict(counter.counts) if counter is not None else {}
        return cls(
            wall_time_s=float(wall_time_s),
            counted_flops=float(sum(kernel_flops.values())),
            kernel_flops=kernel_flops,
            phase_seconds=tracer.phase_seconds(),
            rank_seconds=tracer.rank_seconds(),
            n_spans=len(tracer.spans),
            n_tasks=tracer.task_count(),
        )

    def merge(self, other: "PerfReport") -> None:
        """Fold another report into this one (times add, flops add)."""
        self.wall_time_s += other.wall_time_s
        self.counted_flops += other.counted_flops
        for k, v in other.kernel_flops.items():
            self.kernel_flops[k] = self.kernel_flops.get(k, 0.0) + v
        for k, v in other.phase_seconds.items():
            self.phase_seconds[k] = self.phase_seconds.get(k, 0.0) + v
        for k, v in other.rank_seconds.items():
            self.rank_seconds[k] = self.rank_seconds.get(k, 0.0) + v
        self.n_spans += other.n_spans
        self.n_tasks += other.n_tasks

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible view (embedded in the CLI result files)."""
        return {
            "wall_time_s": self.wall_time_s,
            "counted_flops": self.counted_flops,
            "sustained_flops": self.sustained_flops,
            "kernel_flops": dict(self.kernel_flops),
            "phase_seconds": dict(self.phase_seconds),
            "rank_seconds": {str(k): v for k, v in self.rank_seconds.items()},
            "n_spans": self.n_spans,
            "n_tasks": self.n_tasks,
        }

    def summary(self) -> str:
        """One-paragraph human-readable digest for the CLI.

        Example
        -------
        >>> 'sustained' in PerfReport(1.0, 2.0e9).summary()
        True
        """
        from ..io.tables import format_si

        lines = [
            "performance: "
            f"{format_si(self.counted_flops, 'Flop')} counted in "
            f"{self.wall_time_s:.3f} s -> "
            f"{format_si(self.sustained_flops, 'Flop/s')} sustained "
            f"({self.n_spans} spans, {self.n_tasks} tasks)"
        ]
        if self.kernel_flops:
            total = self.counted_flops or 1.0
            top = sorted(
                self.kernel_flops.items(), key=lambda kv: -kv[1]
            )[:4]
            lines.append(
                "kernels: "
                + ", ".join(
                    f"{name} {v / total:.0%}" for name, v in top
                )
            )
        return "\n".join(lines)
