"""Quadrature grids for the energy and transverse-momentum integrals.

A ballistic terminal current is a double integral

    I = (q/h) * sum_k w_k  int dE  T(E, k) (fL - fR)

and the charge is a similar integral of the spectral density.  OMEN spends
almost all of its petaflops on the (k, E) sample points of these integrals,
so the grid objects here are the unit of work for the parallel scheduler:
each :class:`EnergyGrid`/:class:`MomentumGrid` node maps to one independent
open-system solve.

Two energy-grid constructions are provided:

* :func:`fermi_window_grid` — uniform grid covering the union of the thermal
  windows of all contacts (the workhorse for current integration);
* :class:`AdaptiveEnergyGrid` — bisection refinement driven by a local
  interpolation-error estimate, each failing interval split as deep in
  one wave as its error predicts, which concentrates points on
  transmission resonances (the ablation partner of the uniform grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "EnergyGrid",
    "MomentumGrid",
    "fermi_window_grid",
    "uniform_grid",
    "AdaptiveEnergyGrid",
    "trapezoid_weights",
]

#: Deepest split :meth:`AdaptiveEnergyGrid.next_wave` gives one interval
#: in one wave.  Measured on the resonant 40-slab chain: a cap of 3 runs
#: 6-7 waves where one-level bisection runs 13, at fewer solves; a cap
#: of 2 runs 8 waves, and a cap of 4 overshoots to more solves than
#: bisection spends.
MAX_SPLIT_DEPTH = 3


def trapezoid_weights(points: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights for sorted, possibly non-uniform points.

    For a single point the weight is 1 (the integral degenerates to a sample,
    used by single-energy diagnostics).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1:
        raise ValueError("points must be one-dimensional")
    n = points.size
    if n == 0:
        raise ValueError("empty grid")
    if n == 1:
        return np.ones(1)
    if np.any(np.diff(points) <= 0):
        raise ValueError("points must be strictly increasing")
    w = np.zeros(n)
    d = np.diff(points)
    w[0] = d[0] / 2.0
    w[-1] = d[-1] / 2.0
    w[1:-1] = (d[:-1] + d[1:]) / 2.0
    return w


@dataclass(frozen=True)
class EnergyGrid:
    """A set of energy nodes with quadrature weights.

    Attributes
    ----------
    energies : ndarray
        Strictly increasing energy nodes (eV).
    weights : ndarray
        Quadrature weights (eV); ``integral f ~= sum(weights * f(energies))``.
    """

    energies: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if e.shape != w.shape or e.ndim != 1:
            raise ValueError("energies and weights must be 1-D of equal size")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.energies.size

    def integrate(self, values) -> complex | float:
        """Quadrature of sampled values against this grid's weights."""
        values = np.asarray(values)
        if values.shape[0] != len(self):
            raise ValueError(
                f"values has leading dim {values.shape[0]}, grid has {len(self)}"
            )
        return np.tensordot(self.weights, values, axes=(0, 0))

    def restrict(self, emin: float, emax: float) -> "EnergyGrid":
        """Sub-grid of nodes inside [emin, emax], weights recomputed."""
        mask = (self.energies >= emin) & (self.energies <= emax)
        pts = self.energies[mask]
        if pts.size == 0:
            raise ValueError("restriction produced an empty grid")
        return EnergyGrid(pts, trapezoid_weights(pts))


def uniform_grid(emin: float, emax: float, n_points: int) -> EnergyGrid:
    """Uniform trapezoidal grid on [emin, emax]."""
    if n_points < 1:
        raise ValueError("need at least one point")
    if n_points == 1:
        return EnergyGrid(np.array([(emin + emax) / 2.0]), np.array([emax - emin]))
    if emax <= emin:
        raise ValueError(f"emax ({emax}) must exceed emin ({emin})")
    pts = np.linspace(emin, emax, n_points)
    return EnergyGrid(pts, trapezoid_weights(pts))


def fermi_window_grid(
    chemical_potentials: Sequence[float],
    kT: float,
    n_points: int = 101,
    n_kT: float = 10.0,
    band_bottom: float | None = None,
) -> EnergyGrid:
    """Uniform grid covering the thermal window of all contacts.

    The window spans ``[min(mu) - n_kT*kT, max(mu) + n_kT*kT]``, optionally
    clipped from below at ``band_bottom`` (no propagating states below the
    source-side band edge contribute to ballistic current).
    """
    mus = list(chemical_potentials)
    if not mus:
        raise ValueError("need at least one chemical potential")
    if kT <= 0:
        raise ValueError("kT must be > 0")
    lo = min(mus) - n_kT * kT
    hi = max(mus) + n_kT * kT
    if band_bottom is not None:
        lo = max(lo, band_bottom)
    if hi <= lo:
        hi = lo + kT  # degenerate window: keep a sliver so quadrature is sane
    return uniform_grid(lo, hi, n_points)


@dataclass
class AdaptiveEnergyGrid:
    """Bisection-refined energy grid driven by an interpolation error estimate.

    The grid starts from ``n_initial`` uniform nodes; each refinement wave
    evaluates the integrand midpoint of every active interval and splits
    the intervals whose midpoint deviates from the linear interpolant by
    more than ``tol`` (absolute, in the integrand's units) — as many
    halvings deep, in that one wave, as the interval's own error predicts
    it needs (``ceil(log4(err / tol))``, at most :data:`MAX_SPLIT_DEPTH`).
    Every node sits on the bisection lattice of the seed grid, and
    ``max_passes`` bounds the number of waves.  This is the standard
    way quantum-transport codes catch narrow resonances without paying for a
    globally fine grid.  Refinement *spreads*: an interval that passes the
    midpoint test is still split while an adjacent interval is failing, so
    a resonance whose midpoint value coincidentally lands on the linear
    interpolant cannot masquerade as converged (see :meth:`next_wave`).

    Two driving styles share one refinement engine:

    * **callable** — :meth:`refine` walks the waves internally, invoking
      the integrand only on energies *not yet* in :attr:`samples` (each
      node is evaluated exactly once, pinned by :attr:`n_evaluations`);
    * **wave** — the caller pulls node batches with :meth:`first_wave` /
      :meth:`next_wave`, solves them however it likes (e.g. through a
      parallel execution backend) and feeds the values back with
      :meth:`record`.  A node recorded as ``None`` (a quarantined solve)
      is excluded: the intervals touching it are retired instead of
      pinning refinement on an unsolvable point, and the node never
      appears in the final grid.

    Samples may be scalars or 1-D vectors (e.g. transmission *and*
    spectral density); the interval error is the max over components.
    """

    emin: float
    emax: float
    n_initial: int = 16
    tol: float = 1e-3
    max_points: int = 4096
    max_passes: int = 12
    samples: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.emax <= self.emin:
            raise ValueError("emax must exceed emin")
        if self.n_initial < 3:
            raise ValueError("need at least 3 initial points")
        self.n_evaluations = 0
        self._reset_waves()

    # -- wave engine ---------------------------------------------------

    def _reset_waves(self) -> None:
        self._accepted: set[float] = set()
        self._excluded: set[float] = set()
        self._active: list[tuple[float, float]] = []
        self._leaves: list[tuple[float, float]] = []
        self._wave = 0
        self._budget_hit = False
        self._est_error = float("inf")
        self.node_counts: list[int] = []

    @property
    def wave_index(self) -> int:
        """Waves emitted so far (wave 0 is the initial uniform seed)."""
        return self._wave

    @property
    def est_error(self) -> float:
        """Max interpolation error seen while processing the last wave."""
        return self._est_error

    @property
    def n_nodes(self) -> int:
        """Accepted quadrature nodes so far (excluded nodes not counted)."""
        return len(self._accepted - self._excluded)

    @property
    def n_excluded(self) -> int:
        """Nodes quarantined out of the error estimator and the grid."""
        return len(self._excluded)

    @property
    def budget_hit(self) -> bool:
        """True once the ``max_points`` node budget stopped refinement."""
        return self._budget_hit

    def first_wave(self) -> list[float]:
        """Reset the engine and emit wave 0: the uniform seed nodes."""
        self._reset_waves()
        nodes = [float(e) for e in
                 np.linspace(self.emin, self.emax, self.n_initial)]
        self._accepted.update(nodes)
        self._active = list(zip(nodes[:-1], nodes[1:]))
        self.node_counts.append(self.n_nodes)
        return list(nodes)

    def record(self, energy: float, value) -> None:
        """Memoize one solved node; ``None`` quarantines it.

        Every node a wave emits must be recorded (from :attr:`samples`,
        a caller-side cache, or a fresh solve) before :meth:`next_wave`.
        """
        e = float(energy)
        if value is None:
            self._excluded.add(e)
            self.samples.pop(e, None)
        else:
            self.samples[e] = value

    def next_wave(self) -> list[float]:
        """Score the last wave's intervals and emit the next wave.

        Every active interval is scored at once: its error is the
        recorded midpoint's deviation from the chord, which falls about
        4x per halving, so an interval failing by ``err > tol`` is split
        ``ceil(log4(err / tol))`` levels deep in this one wave (at most
        :data:`MAX_SPLIT_DEPTH`).  Its new interior nodes join the grid
        and are emitted together with the midpoints of its new
        sub-intervals, which the next call scores.  All nodes are built
        by repeated ``0.5 * (a + b)``, so they sit on the same bisection
        lattice one-level splits would reach.  Intervals touching an
        excluded node are retired.  Returns an empty list when
        everything is converged, the node budget (``max_points``) is
        exhausted, or ``max_passes`` waves have been emitted — the pass
        cap bounds waves, not depth.

        Splits deeper than one level only spend nodes that are sure to
        be solved: on the last pass, or when one node per split would
        exhaust the budget, every split is a single bisection (nodes past
        it would never be emitted); otherwise the depths are clipped in
        energy order to the budget left over.

        A passing interval is still split one level when an *adjacent*
        active interval failed its own test (refinement spreading).  The
        midpoint test alone can be defeated by chord coincidence — a
        resonance positioned so the midpoint value happens to land on
        the linear interpolant of the endpoints looks converged while
        hiding the peak — but such a feature always leaks a large error
        into a neighbouring interval, whose failure vetoes the
        coincidence.
        """
        if len(self._accepted) >= self.max_points:
            self._budget_hit = True
        if self._budget_hit or self._wave > self.max_passes:
            return self._truncate()
        if self._wave == 0:
            # wave 0 carried the seed nodes themselves; the intervals
            # between them are already active — just emit midpoints
            self._wave = 1
            return [0.5 * (a + b) for a, b in self._active]
        edges = np.array(self._active).reshape(-1, 2)
        triples = np.column_stack(
            [edges[:, 0], 0.5 * (edges[:, 0] + edges[:, 1]), edges[:, 1]]
        ).tolist()
        # an excluded endpoint or midpoint retires the interval
        live = np.array([self._excluded.isdisjoint(t) for t in triples],
                        dtype=bool)
        err = np.full(len(triples), -np.inf)
        if live.any():
            v = np.array([[self.samples[x] for x in t]
                          for t, ok in zip(triples, live) if ok], dtype=float)
            dev = np.abs(v[:, 1] - 0.5 * (v[:, 0] + v[:, 2]))
            err[live] = dev.reshape(len(dev), -1).max(axis=1)
        # neighbour veto: _active is kept sorted by energy, so adjacency
        # is a shared endpoint at i +- 1
        fail = err > self.tol
        touch = edges[1:, 0] == edges[:-1, 1]
        near = np.zeros_like(fail)
        near[1:] |= fail[:-1] & touch
        near[:-1] |= fail[1:] & touch
        split = fail | (live & near)
        depth = 1 + np.searchsorted(
            self.tol * 4.0 ** np.arange(1, MAX_SPLIT_DEPTH), err
        )
        # nodes left for halvings past the first: none on the last pass,
        # nor when one node per split already meets the budget
        spare = -1 if self._wave >= self.max_passes else max(
            self.max_points - 1 - len(self._accepted) - int(split.sum()), -1
        )
        next_active: list[tuple[float, float]] = []
        wave: list[float] = []
        for (a, b), ok, cut, k in zip(
            self._active, live, split, depth.tolist()
        ):
            if not ok:
                continue  # quarantined node: retire, don't pin refinement
            if not cut or self._budget_hit:
                # converged — or the budget is spent, and the interval's
                # solved midpoint stays as leaf quadrature support
                self._leaves.append((a, b))
                continue
            k = max(1, min(k, (spare + 2).bit_length() - 1))
            spare -= 2 ** k - 2
            cuts = [a, b]
            for _ in range(k):
                cuts = [x for lo, hi in zip(cuts, cuts[1:])
                        for x in (lo, 0.5 * (lo + hi))] + [b]
            kids = list(zip(cuts, cuts[1:]))
            self._accepted.update(cuts[1:-1])
            solved = (a, cuts[len(cuts) // 2])  # the midpoint scored above
            for lo, hi in kids:
                if lo not in solved:
                    wave.append(lo)
                wave.append(0.5 * (lo + hi))
            next_active.extend(kids)
            if len(self._accepted) >= self.max_points:
                self._budget_hit = True
        self._est_error = float(err.max(initial=0.0))
        self._active = next_active
        self._wave += 1
        self.node_counts.append(self.n_nodes)
        if self._budget_hit or self._wave > self.max_passes:
            # refinement is truncated: the still-active intervals become
            # leaves (their midpoints are never solved)
            return self._truncate()
        return wave

    def _truncate(self) -> list[float]:
        """End refinement: every active interval becomes a leaf."""
        self._leaves.extend(self._active)
        self._active = []
        return []

    def grid(self) -> EnergyGrid:
        """Final :class:`EnergyGrid` over the refined node set.

        On the clean path the grid is a composite-Simpson rule over the
        converged leaf intervals: every leaf's midpoint was already
        solved to score the interval, so including it with Simpson
        weights upgrades the quadrature from O(h^2) to O(h^4) at zero
        extra solves.  A leaf whose midpoint was never solved (budget or
        pass-limit truncation) contributes trapezoid weights instead.
        When nodes were quarantined the engine falls back to trapezoid
        weights over the surviving accepted nodes — the reweighting
        semantics of the degradation ladder.
        """
        survivors = self._accepted - self._excluded
        if not survivors:
            raise ValueError("every adaptive node was quarantined")
        if self._excluded or not self._leaves:
            pts = np.array(sorted(survivors))
            return EnergyGrid(pts, trapezoid_weights(pts))
        weights: dict[float, float] = {}
        for a, b in sorted(self._leaves):
            mid = 0.5 * (a + b)
            h = b - a
            if mid in self.samples:
                weights[a] = weights.get(a, 0.0) + h / 6.0
                weights[mid] = weights.get(mid, 0.0) + 4.0 * h / 6.0
                weights[b] = weights.get(b, 0.0) + h / 6.0
            else:
                weights[a] = weights.get(a, 0.0) + 0.5 * h
                weights[b] = weights.get(b, 0.0) + 0.5 * h
        pts = np.array(sorted(weights))
        return EnergyGrid(pts, np.array([weights[p] for p in pts]))

    # -- callable driver -----------------------------------------------

    def refine(
        self,
        integrand: Callable[[float], float],
        max_passes: int | None = None,
    ) -> EnergyGrid:
        """Refine until the error estimate falls below ``tol`` everywhere.

        A thin driver over the wave engine: each wave's nodes are looked
        up in :attr:`samples` first, so the integrand is charged exactly
        once per unique energy — even across repeated :meth:`refine`
        calls on the same object (:attr:`n_evaluations` counts actual
        invocations).  Returns the final :class:`EnergyGrid`; sampled
        values are available via :meth:`sampled_values`.
        """
        if max_passes is not None:
            self.max_passes = int(max_passes)
        wave = self.first_wave()
        while wave:
            for e in wave:
                if e in self.samples:
                    continue  # memoized: never re-evaluate a solved node
                self.samples[e] = float(integrand(e))
                self.n_evaluations += 1
            wave = self.next_wave()
        return self.grid()

    def sampled_values(self, grid: EnergyGrid) -> np.ndarray:
        """Cached integrand values at the nodes of ``grid``."""
        return np.array([self.samples[e] for e in grid.energies])


@dataclass(frozen=True)
class MomentumGrid:
    """Transverse-momentum sample points with weights.

    For a device periodic in one transverse direction with period ``L``
    (ultra-thin-body films), the Brillouin zone ``[-pi/L, pi/L)`` is sampled
    on ``n_points`` nodes.  Time-reversal symmetry (T(k) = T(-k) in the
    ballistic coherent case) lets us fold onto ``[0, pi/L]`` with doubled
    weights, which :func:`MomentumGrid.irreducible` exploits — this is the
    "momentum parallelism" level of OMEN.

    For a nanowire (no transverse periodicity) use :meth:`gamma_only`.
    """

    k_points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        k = np.atleast_1d(np.asarray(self.k_points, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if k.shape != w.shape:
            raise ValueError("k_points and weights must have equal shape")
        if not np.isclose(w.sum(), 1.0):
            raise ValueError("momentum weights must sum to 1 (BZ average)")
        object.__setattr__(self, "k_points", k)
        object.__setattr__(self, "weights", w)

    def __len__(self) -> int:
        return self.k_points.size

    @staticmethod
    def gamma_only() -> "MomentumGrid":
        """Single Gamma point — nanowires and other non-periodic sections."""
        return MomentumGrid(np.array([0.0]), np.array([1.0]))

    @staticmethod
    def uniform(period_nm: float, n_points: int) -> "MomentumGrid":
        """Uniform BZ sampling (Monkhorst-Pack, Gamma-centred) of [-pi/L, pi/L)."""
        if n_points < 1:
            raise ValueError("need at least one k point")
        if period_nm <= 0:
            raise ValueError("period must be positive")
        kmax = np.pi / period_nm
        ks = -kmax + 2.0 * kmax * (np.arange(n_points) + 0.5) / n_points
        w = np.full(n_points, 1.0 / n_points)
        return MomentumGrid(ks, w)

    @staticmethod
    def irreducible(period_nm: float, n_points: int) -> "MomentumGrid":
        """Half-BZ sampling exploiting T(k)=T(-k); weights doubled off Gamma."""
        full = MomentumGrid.uniform(period_nm, n_points)
        ks, ws = [], []
        seen: dict[float, int] = {}
        for k, w in zip(full.k_points, full.weights):
            key = round(abs(k), 12)
            if key in seen:
                ws[seen[key]] += w
            else:
                seen[key] = len(ks)
                ks.append(abs(k))
                ws.append(w)
        order = np.argsort(ks)
        return MomentumGrid(np.array(ks)[order], np.array(ws)[order])
