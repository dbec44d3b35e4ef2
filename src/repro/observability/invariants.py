"""The run's one safety net: numerical health and physics invariants.

A transport code can go wrong in two ways that do not throw.  It can
break down numerically — a NaN deep in a block-LU factor, a surface-GF
fixed point whose residual stopped contracting, a Schur complement whose
condition number exploded near a band edge — or it can return finite
numbers that break the physics: a transmission above the channel count, a
slab interface that leaks current, a Γ matrix that stopped being
Hermitian.  At 221k cores nobody eyeballs T(E) curves, so every solve
checks both itself, and one :class:`HealthSentinel` — the ``sentinel`` of
the run recorder, :func:`repro.observability.get_sentinel` — accounts
both in one :class:`Ledger`:

* **numerical trips** (:meth:`HealthSentinel.trip`,
  :meth:`~HealthSentinel.check_residual`), keyed ``"site:kind"``, counted
  as ``health.<site>.<kind>`` and kept as :class:`HealthEvent` records;
  only these drive the degradation ladder
  (:meth:`~HealthSentinel.trips_since`);
* **invariant violations**, keyed ``"invariant:<name>"``, counted as
  ``invariant.violations{invariant=...}`` and kept as
  :class:`InvariantViolation` records.  The kernels hand the sentinel
  their whole result stack (:meth:`HealthSentinel.check_stack`): each
  invariant is one reduction over the ``(B, ...)`` arrays, one
  ``invariant.checks{invariant=...}`` increment counts the energies that
  pass it, and only a violating energy is recorded, with its own energy.

The invariants (all from the ballistic NEGF/QTBM theory):

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

One mode covers both kinds of check: ``"off"`` checks nothing,
``"contain"`` (the default) records and lets the degradation ladder heal
a tripped energy, ``"strict"`` raises at the first trip
(:class:`repro.errors.NumericalBreakdownError`) or violation
(:class:`repro.errors.PhysicsInvariantError`) — the mode CI uses to turn
silent rot into red builds.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalBreakdownError, PhysicsInvariantError

__all__ = ["Ledger", "HealthEvent", "InvariantViolation", "HealthSentinel"]

_MODES = ("off", "contain", "strict")
#: Ledger key prefix of an invariant violation.
_INVARIANT = "invariant:"


def _active_metrics():
    """The active metrics registry, looked up at call time: the recorder
    module imports this one for its default sentinel, so this one cannot
    import it back, and the package has imported it before any check
    runs (a module lookup, not an import statement on every check)."""
    return sys.modules[f"{__package__}.telemetry"].get_metrics()


class Ledger:
    """The bounded account of a safety net (thread safe).

    Keeps the first :attr:`MAX_RECORDS` records, in order, and the exact
    count of every key, with no bound: a record past the bound is
    dropped, never its count.  :meth:`marker` snapshots the account and
    :meth:`since` reads what was recorded after a snapshot, so nested
    windows each see exactly their own events; :meth:`absorb` adds what
    another ledger recorded (a pool worker's copy).  The safety net's
    trips and violations are one ledger, a fault injector's fired faults
    another.  A ledger pickles as its counts alone: a pool worker's copy
    keeps room for every record it adds, so the records a chunk ships
    back — a fired ``once`` fault's key among them — never depend on how
    full the parent's ledger was.

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
        return [], self.counts, self.total

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
class HealthEvent:
    """One numerical trip: *where* (site), *what* (kind), *how bad*
    (value), and for how many energies of a stacked check (count)."""

    site: str
    kind: str
    value: float = float("nan")
    detail: str = ""
    count: int = 1


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


class HealthSentinel:
    """The run's safety net: numerical trips and invariant violations in
    one ledger (thread safe).

    Every invariant check takes a stack — ``(B, ...)`` arrays, one row
    per energy — or a single row of one, a stack of one.

    Parameters
    ----------
    mode : {"off", "contain", "strict"}
        ``"off"`` checks nothing; ``"contain"`` records trips for the
        degradation ladder and violations for the account;
        ``"strict"`` raises :class:`NumericalBreakdownError` at the first
        trip and :class:`PhysicsInvariantError` at the first violation.

    The thresholds and tolerances are class constants, the same for
    every run.  The ledger keeps the first :attr:`Ledger.MAX_RECORDS`
    records of both kinds; its counts — :attr:`n_trips`,
    :meth:`trips_since`, :attr:`n_violations` — are exact past that
    bound.  A sentinel pickles as its mode: the copy a pool worker
    unpickles starts an empty ledger, and the parent takes the worker's
    records back with :meth:`absorb`.

    Example
    -------
    >>> s = HealthSentinel()
    >>> s.check_density([1.0, -1.0])
    False
    >>> s.violations[0].invariant, s.n_trips
    ('density_nonnegative', 0)
    """

    #: 1-norm condition estimate above which a factorization is flagged
    #: ill-conditioned — far above anything a healthy nanowire
    #: Hamiltonian produces at double precision.
    COND_THRESHOLD = 1e12
    #: Relative residual above which a converged-looking fixed point is
    #: flagged (Sancho-Rubio residuals sit near 1e-12).
    RESIDUAL_THRESHOLD = 1e-6
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

    def __init__(self, mode: str = "contain"):
        if mode not in _MODES:
            raise ValueError(f"unknown sentinel mode {mode!r}; pick from {_MODES}")
        self.mode = mode
        self.ledger = Ledger()

    def __reduce__(self):
        return type(self), (self.mode,)

    # -- state ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    def marker(self) -> tuple:
        """Snapshot of the ledger; pass to :meth:`trips_since` or
        :meth:`violations_since`."""
        return self.ledger.marker()

    def absorb(self, records, counts: dict) -> None:
        """Account what a pool worker's copy recorded: its kept
        ``records`` and its ``counts``.

        They neither raise (a strict copy raised in the worker) nor count
        ``health.*`` / ``invariant.*`` again (the worker's metrics delta
        carries those).
        """
        self.ledger.absorb(records, counts)

    def trips_since(self, marker=0) -> dict:
        """Exact numerical trip counts keyed ``"site:kind"`` recorded
        after ``marker`` — never a violation: the degradation ladder
        reads these."""
        return {key: n for key, n in self.ledger.since(marker)[1].items()
                if not key.startswith(_INVARIANT)}

    def violations_since(self, marker=0) -> list[InvariantViolation]:
        """The kept violations recorded after ``marker``, in order."""
        return [r for r in self.ledger.since(marker)[0]
                if isinstance(r, InvariantViolation)]

    @property
    def violations(self) -> list[InvariantViolation]:
        """The kept violations, the first ones, in order."""
        return self.violations_since()

    @property
    def n_violations(self) -> int:
        """Violations recorded so far, kept or not."""
        return sum(n for key, n in self.ledger.since()[1].items()
                   if key.startswith(_INVARIANT))

    @property
    def n_trips(self) -> int:
        """Numerical trips recorded so far, kept or not."""
        return self.ledger.total - self.n_violations

    def summary(self) -> str:
        """Digest for the doctor CLI: the trips by key, then 'all checks
        passed' or the violation list."""
        trips = self.trips_since()
        body = ", ".join(f"{k}={v}" for k, v in sorted(trips.items()))
        head = f"health[{self.mode}]: " + (
            f"{self.n_trips} trips ({body})" if trips else "no trips")
        n = self.n_violations
        if not n:
            return f"{head}; invariants: all checks passed"
        lines = [head, f"invariants: {n} violation(s)"]
        lines += [f"  - {v.describe()}" for v in self.violations[:8]]
        if n > 8:
            lines.append(f"  ... and {n - 8} more")
        return "\n".join(lines)

    # -- numerical trips -----------------------------------------------

    def trip(self, site: str, kind: str, value: float = float("nan"),
             detail: str = "", count: int = 1) -> None:
        """Record one health violation — of ``count`` energies, for a
        stacked check, so the ledger counts energies however they were
        stacked; raise in strict mode."""
        self.ledger.add(f"{site}:{kind}",
                        HealthEvent(site, kind, float(value), detail, count),
                        count)
        metrics = _active_metrics()
        if metrics.enabled:
            metrics.inc(f"health.{site}.{kind}", float(count))
        if self.strict:
            raise NumericalBreakdownError(
                f"health sentinel [{site}] tripped: {kind} (value={value:.3e}) {detail}".strip()
            )

    def check_residual(self, site: str, residual: float, detail: str = "") -> bool:
        """True when a post-solve residual is acceptably small."""
        if not np.isfinite(residual):
            self.trip(site, "nonfinite", value=residual, detail=detail)
            return False
        if residual > self.RESIDUAL_THRESHOLD:
            self.trip(site, "residual", value=residual, detail=detail)
            return False
        return True

    # -- invariant accounting ------------------------------------------

    def _violate(self, invariant: str, value: float, threshold: float,
                 **context) -> None:
        violation = InvariantViolation(
            invariant, value, float(threshold), tuple(sorted(context.items())),
        )
        self.ledger.add(_INVARIANT + invariant, violation)
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
        """Account the ``checks`` of one stack; True when all pass (and
        always when the sentinel is off).

        A check is ``(invariant, threshold, ok, defect, rows, extra)``:
        the per-row verdict and defect of one reduction, the stack rows
        they belong to (None: all) and context of its own.  Each
        invariant's passing rows are counted in one increment; the
        failing ones are recorded row by row, each row's in the order of
        ``checks``, with the row's energy when ``energies`` are given,
        and a non-finite defect as inf.
        """
        if not self.enabled:
            return True
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
        the spectral density injected from each contact.  Off, it reduces
        nothing.
        """
        if not self.enabled:
            return True
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

    def check_density(self, density, **context) -> bool:
        """Carrier/spectral density finite and non-negative."""
        d = np.asarray(density)
        return self._check(self._density(d.reshape(-1, d.shape[-1])),
                           **context)

    def check_charge_neutrality(self, n_electrons: float, n_donors: float,
                                **context) -> bool:
        """Integrated electrons within two decades of the donor count
        (and the ``scf.neutrality_log_residual`` gauge, unless off)."""
        if not self.enabled:
            return True
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
