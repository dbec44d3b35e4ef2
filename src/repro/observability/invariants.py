"""Continuous physics-invariant monitors evaluated during runs.

A transport code can go numerically wrong while still returning finite
numbers — a transmission above the channel count, a slab interface that
leaks current, a Γ matrix that stopped being Hermitian.  At 221k cores
nobody eyeballs T(E) curves, so the production answer is *continuous
monitoring*: cheap invariant checks evaluated inside the kernels on every
solve, recording violations into the metrics registry
(:mod:`repro.observability.metrics`) instead of crashing.

The monitored invariants (all from the ballistic NEGF/QTBM theory):

* **current conservation** — the left-injected probability current is
  equal across every slab interface (WF kernel);
* **transmission bounds** — 0 <= T(E) <= n_open_channels (both kernels);
* **density non-negativity** — spectral/carrier densities are >= 0 and
  finite everywhere;
* **charge neutrality** — the integrated electron count of a converged
  SCF point stays within a (loose) factor of the donor count;
* **Γ anti-Hermiticity** — the broadening Γ = i(Σ - Σ†) built from the
  anti-Hermitian part of the contact self-energy must itself be Hermitian
  with non-negative trace (causality of the retarded GF).

Every run is monitored: the ``monitor`` of the run recorder,
:func:`repro.observability.get_monitor`, is a non-strict
:class:`InvariantMonitor` unless a scope installs another.  The kernels
hand it their whole result stack (:meth:`InvariantMonitor.check_stack`):
each invariant is one reduction over the ``(B, ...)`` arrays, one
``invariant.checks{invariant=...}`` increment counts the energies that
pass it, and only a violating energy is recorded, with its own energy,
as an ``invariant.violations{invariant=...}`` counter plus a local
:class:`InvariantViolation` record.  ``strict=True`` escalates every
violation to :class:`repro.errors.PhysicsInvariantError` — the mode CI
uses to turn silent physics rot into red builds.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsInvariantError

__all__ = ["Ledger", "InvariantViolation", "InvariantMonitor"]


def _active_metrics():
    """The active metrics registry, looked up at call time: the recorder
    module imports this one for its default monitor, and the package
    imports the recorder module first (a module lookup, not an import
    statement on every check)."""
    return sys.modules[f"{__package__}.telemetry"].get_metrics()


class Ledger:
    """The bounded account of a safety net (thread safe).

    Keeps the first :attr:`MAX_RECORDS` records, in order, and the exact
    count of every key, with no bound: a record past the bound is
    dropped, never its count.  :meth:`marker` snapshots the account and
    :meth:`since` reads what was recorded after a snapshot, so nested
    windows each see exactly their own events; :meth:`absorb` adds what
    another ledger recorded (a pool worker's copy).  The health
    sentinel's trips, the invariant monitor's violations and a fault
    injector's fired faults are each one ledger.

    Example
    -------
    >>> ledger = Ledger()
    >>> ledger.add("lu:nonfinite", "first trip")
    >>> mark = ledger.marker()
    >>> ledger.add("lu:nonfinite", "a stacked trip", count=3)
    >>> ledger.since(mark)
    (['a stacked trip'], {'lu:nonfinite': 3})
    """

    #: Records a ledger keeps, the first ones; counts have no bound.
    MAX_RECORDS = 4096

    def __init__(self):
        self.records: list = []
        self.counts: dict = {}
        self.total = 0
        self._lock = threading.Lock()

    def __getstate__(self):
        return self.records, self.counts, self.total

    def __setstate__(self, state):
        self.records, self.counts, self.total = state
        self._lock = threading.Lock()

    def add(self, key, record, count: int = 1) -> None:
        """Record ``record`` as ``count`` events under ``key``."""
        self.absorb([record], {key: count})

    def absorb(self, records, counts: dict) -> None:
        """Append ``records`` in order, as far as the bound allows, and
        add the per-key ``counts`` to the account."""
        with self._lock:
            room = max(self.MAX_RECORDS - len(self.records), 0)
            self.records.extend(records[:room])
            for key, n in counts.items():
                self.counts[key] = self.counts.get(key, 0) + n
                self.total += n

    def marker(self) -> tuple:
        """Snapshot of the account — records kept and per-key counts;
        pass to :meth:`since`."""
        with self._lock:
            return len(self.records), dict(self.counts)

    def since(self, marker=None) -> tuple[list, dict]:
        """``(records, counts)`` recorded after ``marker`` (None or 0:
        from the start): the kept records in order and the exact count
        of every key that grew."""
        kept, before = marker or (0, {})
        with self._lock:
            return self.records[kept:], {
                key: n - before.get(key, 0)
                for key, n in self.counts.items() if n != before.get(key, 0)
            }


@dataclass(frozen=True)
class InvariantViolation:
    """One recorded invariant violation."""

    invariant: str
    value: float
    threshold: float
    context: tuple = ()

    def describe(self) -> str:
        """One-line human-readable form."""
        ctx = ", ".join(f"{k}={v}" for k, v in self.context)
        where = f" ({ctx})" if ctx else ""
        return (
            f"{self.invariant}: defect {self.value:.3e} exceeds "
            f"tolerance {self.threshold:.3e}{where}"
        )


class InvariantMonitor:
    """Evaluates physics invariants and accounts their violations.

    Every check takes a stack — ``(B, ...)`` arrays, one row per energy —
    or a single row of one, a stack of one.

    Parameters
    ----------
    strict : bool
        True raises :class:`repro.errors.PhysicsInvariantError` on the
        first violation; False (default) records and continues.

    The tolerances are class constants (``TOL_*``), the same for every
    run.  Violations go into one :class:`Ledger` keyed by invariant:
    :attr:`violations` keeps the first :attr:`Ledger.MAX_RECORDS`;
    :attr:`n_violations` and the ``invariant.violations`` counters keep
    counting past it.  :meth:`marker` / :meth:`violations_since` read
    the ledger's snapshots, as the health sentinel's do.

    Example
    -------
    >>> m = InvariantMonitor()
    >>> m.check_transmission(2.5, n_modes=2)
    False
    >>> m.violations[0].invariant
    'transmission_bounds'
    """

    #: Allowed relative spread of the interface currents (loose enough
    #: that eta-broadening absorption along the device does not flag).
    TOL_CURRENT = 1e-5
    #: Allowed excursion of T(E) outside [0, n_modes].
    TOL_TRANSMISSION = 1e-8
    #: Most negative density value tolerated (absolute).
    TOL_DENSITY = 1e-12
    #: Allowed relative Hermiticity defect of Γ.
    TOL_GAMMA = 1e-8
    #: Allowed |log(n_electrons / n_donors)| of a converged SCF point —
    #: loose by design: exact neutrality only holds in equilibrium and a
    #: strong gate bias legitimately moves the integrated electron count
    #: by over a decade, so ln 100 (two decades) flags breakdowns, not
    #: bias.
    TOL_NEUTRALITY = 4.605

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.ledger = Ledger()

    def __reduce__(self):
        # a monitor pickles as its mode: a pool worker's copy starts an
        # empty ledger, the parent absorbs what it records
        return type(self), (self.strict,)

    def absorb(self, violations, counts: dict) -> None:
        """Account what a pool worker's copy recorded: its kept
        ``violations`` and its per-invariant ``counts`` (already counted
        in its metrics delta; a strict copy raised there)."""
        self.ledger.absorb(violations, counts)

    def marker(self) -> tuple:
        """Snapshot of the violation ledger; pass to
        :meth:`violations_since`."""
        return self.ledger.marker()

    @property
    def violations(self) -> list[InvariantViolation]:
        """The kept violations, the first ones, in order."""
        return self.ledger.records

    @property
    def n_violations(self) -> int:
        """Number of violations recorded so far, kept or not."""
        return self.ledger.total

    def violations_since(self, marker=0) -> list[InvariantViolation]:
        """The kept violations recorded after ``marker``, in order."""
        return self.ledger.since(marker)[0]

    def summary(self) -> str:
        """Digest for the doctor CLI: 'ok' or the violation list."""
        if not self.n_violations:
            return "invariants: all checks passed"
        lines = [f"invariants: {self.n_violations} violation(s)"]
        lines += [f"  - {v.describe()}" for v in self.violations[:8]]
        if self.n_violations > 8:
            lines.append(f"  ... and {self.n_violations - 8} more")
        return "\n".join(lines)

    # -- accounting ----------------------------------------------------

    def _violate(self, invariant: str, value: float, threshold: float,
                 **context) -> None:
        violation = InvariantViolation(
            invariant, value, float(threshold), tuple(sorted(context.items())),
        )
        self.ledger.add(invariant, violation)
        metrics = _active_metrics()
        if metrics.enabled:
            metrics.inc("invariant.violations", 1.0, invariant=invariant)
            metrics.gauge("invariant.last_defect", value, invariant=invariant)
        if self.strict:
            raise PhysicsInvariantError(
                violation.describe(), invariant=invariant, value=value,
                threshold=float(threshold),
            )

    def _account(self, checks, energies=None, **context) -> bool:
        """Account the ``checks`` of one stack; True when all pass.

        A check is ``(invariant, threshold, ok, defect, rows, extra)``:
        the per-row verdict and defect of one reduction, the stack rows
        they belong to (None: all) and context of its own.  Each
        invariant's passing rows are counted in one increment; the
        failing ones are recorded row by row, each row's in the order of
        ``checks``, with the row's energy when ``energies`` are given,
        and a non-finite defect as inf.
        """
        passed: dict[str, int] = {}
        failed = []
        for order, (invariant, _, ok, _, rows, _) in enumerate(checks):
            n_ok = np.count_nonzero(ok)
            passed[invariant] = passed.get(invariant, 0) + n_ok
            if n_ok < ok.size:
                bad = np.flatnonzero(~ok)
                where = bad if rows is None else rows[bad]
                failed += zip(where.tolist(), [order] * bad.size, bad.tolist())
        metrics = _active_metrics()
        if metrics.enabled:
            for invariant, n in passed.items():
                if n:
                    metrics.inc("invariant.checks", float(n),
                                invariant=invariant)
        for row, order, pos in sorted(failed):
            invariant, threshold, _, defect, _, extra = checks[order]
            value = float(defect[pos])
            if energies is not None:
                extra = dict(extra, energy=float(energies[row]))
            self._violate(invariant, value if math.isfinite(value)
                          else math.inf, threshold, **context, **extra)
        return not failed

    # -- one reduction per invariant: (invariant, threshold, ok, defect) --

    def _current(self, currents, transmission):
        # "<=" is False for a NaN spread (non-finite currents): it fails
        spread = (currents.max(axis=-1) - currents.min(axis=-1)) / np.maximum(
            np.abs(transmission), 1.0
        )
        return ("current_conservation", self.TOL_CURRENT,
                spread <= self.TOL_CURRENT, spread)

    def _transmission(self, t, n_modes):
        defect = np.where(np.isfinite(t), np.maximum(-t, t - n_modes),
                          np.inf)
        return ("transmission_bounds", self.TOL_TRANSMISSION,
                defect <= self.TOL_TRANSMISSION, defect)

    def _density(self, density, finite=None):
        # one minimum over the whole stack clears every row when it lies
        # at or above -tol; rows are reduced only when it does not
        floor = -self.TOL_DENSITY
        if density.min(initial=np.inf) >= floor:
            ok = np.ones(len(density), dtype=bool)
        else:
            ok = density.min(axis=-1) >= floor
        # a +inf entry passes the minimum: test the rows ``finite`` (the
        # stack's mask) does not vouch for
        suspect = ok if finite is None else ok & ~finite
        if suspect.any():
            ok[suspect] = np.isfinite(density[suspect]).all(axis=-1)
        # how far a failing row's minimum lies below zero: inf for a row
        # with a NaN, or one failing without a negative entry
        defect = np.full(len(density), np.inf)
        if not ok.all():
            low = density[~ok].min(axis=-1)
            defect[~ok] = np.where(low < 0.0, -low, np.inf)
        return ("density_nonnegative", self.TOL_DENSITY, ok, defect)

    def _gamma(self, gamma):
        # relative Hermiticity defect, or the trace's deficit below zero
        # when it is larger; NaN (recorded as inf) for a NaN/Inf entry
        m = gamma.shape[-1]
        scale = np.maximum(np.abs(gamma).max(axis=(-2, -1)), 1e-300)
        defect = np.abs(
            gamma - np.conj(np.swapaxes(gamma, -2, -1))
        ).max(axis=(-2, -1)) / scale
        trace = gamma.trace(axis1=-2, axis2=-1).real
        low = trace < -self.TOL_GAMMA * scale * m
        if low.any():
            defect = np.where(
                low, np.maximum(defect, -trace / (scale * m)), defect
            )
        return ("gamma_antihermitian", self.TOL_GAMMA,
                defect <= self.TOL_GAMMA, defect)

    # -- checks --------------------------------------------------------

    def check_stack(self, kernel: str, stack, gam_l, gam_r) -> bool:
        """Every invariant of a transport kernel's result stack.

        ``stack`` is an :class:`repro.negf.RGFResult` or
        :class:`repro.wf.WFResult`, ``gam_l`` / ``gam_r`` its contacts'
        ``(B, m, m)`` broadening stacks.  Per energy, in this order: Γ of
        each contact; T within [0, open modes] and (WF) the interface
        current spread on the energies with open modes in both leads;
        the spectral density injected from each contact.
        """
        modes = np.minimum(stack.n_channels_left, stack.n_channels_right)
        # below the band edge (zero open channels) eta-broadening leaves
        # a tiny positive T; the bounds only bind with modes
        bound = np.flatnonzero(modes > 0)
        t = stack.transmission[bound]
        checks = [
            (*self._gamma(gam_l), None, {"side": "left"}),
            (*self._gamma(gam_r), None, {"side": "right"}),
            (*self._transmission(t, modes[bound]), bound, {}),
        ]
        currents = getattr(stack, "interface_currents", None)
        if currents is not None:
            checks.append((*self._current(currents[bound], t), bound, {}))
        checks += [
            (*self._density(stack.spectral_left, stack.finite), None,
             {"side": "left"}),
            (*self._density(stack.spectral_right, stack.finite), None,
             {"side": "right"}),
        ]
        return self._account(checks, stack.energy, kernel=kernel)

    def _check(self, check, **context) -> bool:
        """Account one ``(invariant, threshold, ok, defect)`` reduction."""
        return self._account([(*check, None, {})], **context)

    def check_current_conservation(self, interface_currents, transmission,
                                   **context) -> bool:
        """Interface currents equal (= T) across every slab boundary."""
        currents = np.asarray(interface_currents, dtype=float)
        return self._check(self._current(
            currents.reshape(-1, currents.shape[-1]),
            np.atleast_1d(transmission),
        ), **context)

    def check_transmission(self, transmission, n_modes, **context) -> bool:
        """0 <= T(E) <= number of open modes."""
        t = np.atleast_1d(np.asarray(transmission, dtype=float))
        return self._check(self._transmission(t, np.asarray(n_modes)),
                           **context)

    def check_density(self, density, **context) -> bool:
        """Carrier/spectral density finite and non-negative."""
        d = np.asarray(density)
        return self._check(self._density(d.reshape(-1, d.shape[-1])),
                           **context)

    def check_gamma(self, gamma, **context) -> bool:
        """Γ from the anti-Hermitian part of Σ: Hermitian, trace >= 0."""
        g = np.asarray(gamma)
        return self._check(self._gamma(g.reshape((-1,) + g.shape[-2:])),
                           **context)

    def check_charge_neutrality(self, n_electrons: float, n_donors: float,
                                **context) -> bool:
        """Integrated electrons within two decades of the donor count."""
        residual = 0.0
        if not math.isfinite(float(n_electrons)):
            residual = math.inf
        elif n_donors > 0.0:
            residual = abs(float(
                np.log(max(float(n_electrons), 1e-300) / float(n_donors))
            ))
            metrics = _active_metrics()
            if metrics.enabled:
                metrics.gauge("scf.neutrality_log_residual", residual)
        return self._check((
            "charge_neutrality", self.TOL_NEUTRALITY,
            np.array([residual <= self.TOL_NEUTRALITY]), [residual],
        ), **context)

    def check_finite(self, arrays, kernel: str = "", **context) -> bool:
        """Every array of a kernel's output is finite (breakdown guard)."""
        finite = all(
            np.all(np.isfinite(a)) for a in map(np.asarray, arrays)
            if a.dtype.kind in "fc"
        )
        return self._check(
            ("finite_output", 0.0, np.array([finite]), [math.inf]),
            kernel=kernel, **context,
        )
