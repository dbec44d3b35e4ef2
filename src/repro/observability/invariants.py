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

The default active monitor — the ``monitor`` of the run recorder,
:func:`repro.observability.get_monitor` — is a disabled
:class:`NullInvariantMonitor` (zero overhead, mirroring
NullTracer/NullMetrics).  An enabled
:class:`InvariantMonitor` records each violation as a
``invariant.violations{invariant=...}`` counter plus a local
:class:`InvariantViolation` record; ``strict=True`` escalates every
violation to :class:`repro.errors.PhysicsInvariantError` — the mode CI
uses to turn silent physics rot into red builds.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import PhysicsInvariantError
from .metrics import metric_key
from .telemetry import NULL_MONITOR, NullInvariantMonitor, get_metrics

__all__ = [
    "InvariantViolation",
    "InvariantMonitor",
    "NullInvariantMonitor",
    "NULL_MONITOR",
]


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

    Parameters
    ----------
    strict : bool
        True raises :class:`repro.errors.PhysicsInvariantError` on the
        first violation; False (default) records and continues.
    tol_current : float
        Allowed relative spread of the interface currents (loose enough
        that eta-broadening absorption along the device does not flag).
    tol_transmission : float
        Allowed excursion of T(E) outside [0, n_modes].
    tol_density : float
        Most negative density value tolerated (absolute).
    tol_gamma : float
        Allowed relative Hermiticity defect of Γ.
    tol_neutrality : float
        Allowed |log(n_electrons / n_donors)| of a converged SCF point —
        loose by design: exact neutrality only holds in equilibrium and a
        strong gate bias legitimately moves the integrated electron count
        by over a decade, so the default (ln 100 ≈ two decades) flags
        breakdowns, not bias.

    Example
    -------
    >>> m = InvariantMonitor()
    >>> m.check_transmission(2.5, n_modes=2)
    False
    >>> m.violations[0].invariant
    'transmission_bounds'
    """

    enabled = True

    def __init__(
        self,
        strict: bool = False,
        tol_current: float = 1e-5,
        tol_transmission: float = 1e-8,
        tol_density: float = 1e-12,
        tol_gamma: float = 1e-8,
        tol_neutrality: float = 4.605,
    ):
        self.strict = strict
        self.tol_current = tol_current
        self.tol_transmission = tol_transmission
        self.tol_density = tol_density
        self.tol_gamma = tol_gamma
        self.tol_neutrality = tol_neutrality
        self.violations: list[InvariantViolation] = []
        self._lock = threading.Lock()
        # the pass-path counter runs on every solve of every energy, so
        # its flattened keys are assembled once instead of per check
        self._check_keys = {
            inv: metric_key("invariant.checks", {"invariant": inv})
            for inv in (
                "current_conservation", "transmission_bounds",
                "density_nonnegative", "charge_neutrality",
                "gamma_antihermitian", "finite_output",
            )
        }

    def __reduce__(self):
        # a monitor pickles as its configuration: a pool worker's copy
        # starts an empty ledger, the parent absorbs what it records
        return type(self), (
            self.strict, self.tol_current, self.tol_transmission,
            self.tol_density, self.tol_gamma, self.tol_neutrality,
        )

    def absorb(self, violations) -> None:
        """Append violations a pool worker's copy recorded, in order
        (already counted in its metrics delta; a strict copy raised
        there)."""
        with self._lock:
            self.violations.extend(violations)

    # ------------------------------------------------------------------
    def _violate(self, invariant: str, value: float, threshold: float,
                 **context) -> bool:
        violation = InvariantViolation(
            invariant, float(value), float(threshold),
            tuple(sorted(context.items())),
        )
        with self._lock:
            self.violations.append(violation)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("invariant.violations", 1.0, invariant=invariant)
            metrics.gauge("invariant.last_defect", float(value),
                          invariant=invariant)
        if self.strict:
            raise PhysicsInvariantError(
                violation.describe(),
                invariant=invariant,
                value=float(value),
                threshold=float(threshold),
            )
        return False

    def _pass(self, invariant: str) -> bool:
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc_key(self._check_keys[invariant])
        return True

    @property
    def n_violations(self) -> int:
        """Number of violations recorded so far."""
        return len(self.violations)

    def summary(self) -> str:
        """Digest for the doctor CLI: 'ok' or the violation list."""
        if not self.violations:
            return "invariants: all checks passed"
        lines = [f"invariants: {len(self.violations)} violation(s)"]
        lines += [f"  - {v.describe()}" for v in self.violations[:8]]
        if len(self.violations) > 8:
            lines.append(f"  ... and {len(self.violations) - 8} more")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def check_current_conservation(self, interface_currents,
                                   transmission: float, **context) -> bool:
        """Interface currents equal (= T) across every slab boundary."""
        currents = np.asarray(interface_currents, dtype=float)
        if currents.size == 0:
            return self._pass("current_conservation")
        scale = max(abs(float(transmission)), 1.0)
        spread = float(currents.max() - currents.min()) / scale
        # "not <=" instead of ">" so a NaN spread (non-finite currents)
        # lands in the violation branch without a separate isfinite scan
        if not spread <= self.tol_current:
            if not math.isfinite(spread):
                spread = float("inf")
            return self._violate(
                "current_conservation", spread, self.tol_current, **context
            )
        return self._pass("current_conservation")

    def check_transmission(self, transmission: float, n_modes: int,
                           **context) -> bool:
        """0 <= T(E) <= number of open modes."""
        t = float(transmission)
        if not math.isfinite(t):
            return self._violate(
                "transmission_bounds", float("inf"),
                self.tol_transmission, **context,
            )
        defect = max(-t, t - float(n_modes))
        if defect > self.tol_transmission:
            return self._violate(
                "transmission_bounds", defect, self.tol_transmission,
                **context,
            )
        return self._pass("transmission_bounds")

    def check_density(self, density, **context) -> bool:
        """Carrier/spectral density finite and non-negative."""
        d = np.asarray(density)
        if d.size == 0:
            return self._pass("density_nonnegative")
        low = float(d.min())
        # a NaN (or +inf total) fails the sum's finiteness; the min alone
        # would let +inf entries pass, and NaN fails "not >=" anyway
        if not low >= -self.tol_density or not math.isfinite(float(d.sum())):
            defect = -low if math.isfinite(low) and low < 0 else float("inf")
            return self._violate(
                "density_nonnegative", defect, self.tol_density, **context
            )
        return self._pass("density_nonnegative")

    def check_charge_neutrality(self, n_electrons: float, n_donors: float,
                                **context) -> bool:
        """Integrated electrons within two decades of the donor count."""
        metrics = get_metrics()
        if not math.isfinite(float(n_electrons)):
            return self._violate(
                "charge_neutrality", float("inf"), self.tol_neutrality,
                **context,
            )
        if n_donors <= 0.0:
            return self._pass("charge_neutrality")
        residual = abs(
            float(np.log(max(float(n_electrons), 1e-300) / float(n_donors)))
        )
        if metrics.enabled:
            metrics.gauge("scf.neutrality_log_residual", residual)
        if residual > self.tol_neutrality:
            return self._violate(
                "charge_neutrality", residual, self.tol_neutrality, **context
            )
        return self._pass("charge_neutrality")

    def check_gamma(self, gamma, **context) -> bool:
        """Γ from the anti-Hermitian part of Σ: Hermitian, trace >= 0."""
        g = np.asarray(gamma)
        if g.size == 0:
            return self._pass("gamma_antihermitian")
        ga = abs(g)
        scale = float(ga.max())
        if not math.isfinite(scale):  # scalar check; NaN/inf entries propagate
            return self._violate(
                "gamma_antihermitian", float("inf"), self.tol_gamma,
                **context,
            )
        scale = max(scale, 1e-300)
        defect = float(abs(g - g.conj().T).max()) / scale
        trace = float(g.trace().real)
        if trace < -self.tol_gamma * scale * g.shape[0]:
            defect = max(defect, -trace / (scale * g.shape[0]))
        if defect > self.tol_gamma:
            return self._violate(
                "gamma_antihermitian", defect, self.tol_gamma, **context
            )
        return self._pass("gamma_antihermitian")

    def check_finite(self, arrays, kernel: str = "", **context) -> bool:
        """Every array of a kernel's output is finite (breakdown guard)."""
        for a in arrays:
            arr = np.asarray(a)
            if arr.dtype.kind in "fc" and not np.all(np.isfinite(arr)):
                return self._violate(
                    "finite_output", float("inf"), 0.0, kernel=kernel,
                    **context,
                )
        return self._pass("finite_output")
