"""Automated performance-regression gate against measured baselines.

``benchmarks/baselines/BENCH_*.json`` holds the measured metrics of
committed benchmark runs (flat dicts from
:func:`repro.observability.export.flat_metrics` or
:meth:`repro.observability.MetricsSnapshot.flat`).  This module compares
a fresh run against those baselines with *per-metric tolerance bands* and
emits pass/warn/fail verdicts, so the paper's sustained-Flop/s story
cannot silently rot between PRs:

* **flop counts are deterministic** — same code, same shapes, same count,
  on any machine.  Their band is exact by default: a changed
  ``flops.*`` or ``counted_flops`` value means the *algorithm* changed
  and must be an intentional, reviewed baseline bump
  (``scripts/refresh_baselines.py``).
* **times are noisy and machine-dependent** — ``time.*``, ``wall_time_s``
  and ``sustained_flops`` get wide warn-only bands by default; CI runs
  the gate in warn-only mode and uploads the metrics JSON as an artifact.

The verdict ladder per metric: within the warn band -> ``pass``; outside
warn but inside fail (or fail band disabled) -> ``warn``; outside the
fail band -> ``fail``.  The report's overall verdict is the worst metric
verdict, and ``strict=False`` (warn-only mode) caps it at ``warn``.
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ToleranceBand",
    "MetricVerdict",
    "RegressionReport",
    "DEFAULT_BANDS",
    "band_for",
    "compare_metrics",
    "load_baseline",
    "check_against_baselines",
]


@dataclass(frozen=True)
class ToleranceBand:
    """Relative tolerance band of one metric pattern.

    ``warn`` and ``fail`` are relative deviations (|current/baseline - 1|);
    ``fail=None`` makes the band warn-only (can never fail the gate).
    """

    warn: float
    fail: float | None = None

    def verdict(self, baseline: float, current: float) -> str:
        """pass/warn/fail of one value pair under this band."""
        if baseline == current:
            return "pass"
        scale = max(abs(baseline), 1e-300)
        deviation = abs(current - baseline) / scale
        if not math.isfinite(deviation):
            return "fail" if self.fail is not None else "warn"
        if deviation <= self.warn:
            return "pass"
        if self.fail is not None and deviation > self.fail:
            return "fail"
        return "warn"


#: Pattern -> band, first match wins (order matters).
DEFAULT_BANDS: tuple = (
    # deterministic counts: any drift is an algorithm change
    ("flops.*", ToleranceBand(warn=1e-12, fail=1e-9)),
    ("counted_flops", ToleranceBand(warn=1e-12, fail=1e-9)),
    ("n_tasks", ToleranceBand(warn=1e-12, fail=1e-9)),
    ("n_spans", ToleranceBand(warn=0.1, fail=1.0)),
    # timings: machine- and noise-dependent, warn-only
    ("time.*", ToleranceBand(warn=0.5)),
    ("rank.*", ToleranceBand(warn=0.5)),
    ("wall_time_s", ToleranceBand(warn=0.5)),
    ("sustained_flops", ToleranceBand(warn=0.5)),
    # anything else: generous warn-only band
    ("*", ToleranceBand(warn=0.25)),
)


def band_for(metric: str, bands=DEFAULT_BANDS) -> ToleranceBand:
    """First matching band of a metric name (glob patterns, in order)."""
    for pattern, band in bands:
        if fnmatch.fnmatchcase(metric, pattern):
            return band
    return ToleranceBand(warn=0.25)


@dataclass(frozen=True)
class MetricVerdict:
    """Comparison outcome of one metric."""

    metric: str
    baseline: float
    current: float
    verdict: str

    @property
    def deviation(self) -> float:
        """Relative deviation |current/baseline - 1| (inf for /0)."""
        if self.baseline == self.current:
            return 0.0
        return abs(self.current - self.baseline) / max(
            abs(self.baseline), 1e-300
        )


@dataclass
class RegressionReport:
    """All metric verdicts of one baseline comparison."""

    name: str
    checks: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    strict: bool = False

    @property
    def verdict(self) -> str:
        """Worst metric verdict; warn-only mode caps 'fail' at 'warn'."""
        worst = "pass"
        for c in self.checks:
            if c.verdict == "fail":
                worst = "fail"
                break
            if c.verdict == "warn":
                worst = "warn"
        if self.missing and worst == "pass":
            worst = "warn"
        if worst == "fail" and not self.strict:
            worst = "warn"
        return worst

    def counts(self) -> dict:
        """{'pass': n, 'warn': n, 'fail': n} over the metric checks."""
        out = {"pass": 0, "warn": 0, "fail": 0}
        for c in self.checks:
            out[c.verdict] += 1
        return out

    def to_dict(self) -> dict:
        """JSON view (the CI artifact format)."""
        return {
            "name": self.name,
            "verdict": self.verdict,
            "strict": self.strict,
            "missing": list(self.missing),
            "checks": [
                {
                    "metric": c.metric,
                    "baseline": c.baseline,
                    "current": c.current,
                    "deviation": c.deviation,
                    "verdict": c.verdict,
                }
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        """Human-readable digest for the doctor CLI and CI logs."""
        counts = self.counts()
        lines = [
            f"baseline {self.name}: {self.verdict.upper()} "
            f"({counts['pass']} pass, {counts['warn']} warn, "
            f"{counts['fail']} fail"
            + (f", {len(self.missing)} missing" if self.missing else "")
            + ")"
        ]
        flagged = [c for c in self.checks if c.verdict != "pass"]
        flagged.sort(key=lambda c: -c.deviation)
        for c in flagged[:8]:
            lines.append(
                f"  {c.verdict.upper():4s} {c.metric}: "
                f"{c.baseline:.6g} -> {c.current:.6g} "
                f"({c.deviation:+.1%})"
            )
        if len(flagged) > 8:
            lines.append(f"  ... and {len(flagged) - 8} more")
        return "\n".join(lines)


def compare_metrics(
    current: dict,
    baseline: dict,
    name: str = "baseline",
    bands=DEFAULT_BANDS,
    strict: bool = False,
) -> RegressionReport:
    """Compare two flat metric dicts metric-by-metric.

    Baseline metrics absent from ``current`` are listed as ``missing``
    (a warn); metrics only in ``current`` are new and ignored — adding
    instrumentation must not fail the gate.

    Example
    -------
    >>> r = compare_metrics({"flops.k": 10.0, "wall_time_s": 1.2},
    ...                     {"flops.k": 10.0, "wall_time_s": 1.0})
    >>> r.verdict
    'warn'
    >>> [c.verdict for c in r.checks]
    ['pass', 'warn']
    """
    report = RegressionReport(name=name, strict=strict)
    for metric in sorted(baseline):
        base_value = baseline[metric]
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            continue
        if metric not in current:
            report.missing.append(metric)
            continue
        value = float(current[metric])
        verdict = band_for(metric, bands).verdict(float(base_value), value)
        report.checks.append(
            MetricVerdict(metric, float(base_value), value, verdict)
        )
    return report


# ----------------------------------------------------------------------
def load_baseline(path) -> dict:
    """Load one ``BENCH_*.json`` flat metrics dict."""
    with open(path) as fh:
        return json.load(fh)


def check_against_baselines(
    current: dict,
    directory,
    name: str,
    bands=DEFAULT_BANDS,
    strict: bool = False,
) -> RegressionReport:
    """Compare ``current`` against the named committed baseline.

    A missing baseline file yields an empty pass report flagged with a
    ``missing`` entry — a fresh repo must not fail its own gate.
    """
    path = Path(directory) / f"BENCH_{name}.json"
    if not path.exists():
        report = RegressionReport(name=name, strict=strict)
        report.missing.append(f"(no baseline file {path.name})")
        return report
    return compare_metrics(
        current, load_baseline(path), name=name, bands=bands, strict=strict
    )
