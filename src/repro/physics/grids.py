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

The refiner's state is arrays — sorted accepted nodes, active and leaf
intervals, recorded energies with one row of values each — so a wave is
scored, split and emitted, and the final grid built, in a fixed number
of numpy calls however many nodes it holds; a driver hands a whole
wave's values back at once (:meth:`AdaptiveEnergyGrid.record_wave`).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
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


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique``; its plain path, without
    ``return_index``, imports ``numpy.ma``)."""
    return np.unique(values, return_index=True)[0]


def _member(table: np.ndarray, values) -> np.ndarray:
    """Elementwise: is each of ``values`` one of the sorted ``table``?"""
    if not table.size:
        return np.zeros(np.shape(values), dtype=bool)
    pos = np.minimum(np.searchsorted(table, values), table.size - 1)
    return table[pos] == values


def _split_depths(depth: np.ndarray, spare: int) -> np.ndarray:
    """Halvings each split interval gets, in energy order, out of
    ``spare >= 0`` nodes past one a split: the predicted ``depth`` while
    the running sum of ``2**depth - 2`` fits, then the deepest split the
    budget left over allows (one level once fewer than two are left)."""
    if (2 ** depth - 2).sum() <= spare:
        return depth
    k = depth.copy()
    for j, d in enumerate(depth.tolist()):  # at most once a refinement
        k[j] = max(1, min(d, (spare + 2).bit_length() - 1))
        spare -= 2 ** int(k[j]) - 2
    return k


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
      parallel execution backend) and feeds the values back, a wave at
      a time with :meth:`record_wave` or a node at a time with
      :meth:`record`.  A node recorded as ``None`` (a quarantined solve)
      is excluded: the intervals touching it are retired instead of
      pinning refinement on an unsolvable point, and the node never
      appears in the final grid.

    Samples may be scalars or 1-D vectors (e.g. transmission *and*
    spectral density); the interval error is the max over components.

    The engine is array-valued: the accepted nodes, the active and
    leaf intervals and the recorded values are sorted float arrays, so
    a wave is scored, split and emitted, and :meth:`grid` is built, in
    a fixed number of numpy calls whatever its node count.  The waves,
    node sets and weights are those of the node-at-a-time engine, bit
    for bit: every node is still built by repeated ``0.5 * (a + b)``.
    """

    emin: float
    emax: float
    n_initial: int = 16
    tol: float = 1e-3
    max_points: int = 4096
    max_passes: int = 12

    def __post_init__(self):
        if self.emax <= self.emin:
            raise ValueError("emax must exceed emin")
        if self.n_initial < 3:
            raise ValueError("need at least 3 initial points")
        self.n_evaluations = 0
        # recorded values: sorted energies and one row of values each
        self._keys = np.empty(0)
        self._values = np.empty((0, 1))
        self._scalar = True
        self._samples = None
        self._reset_waves()

    # -- recorded values -------------------------------------------------

    @property
    def samples(self):
        """Recorded values by energy, a read-only mapping: every node
        recorded with a value (by :meth:`record`, :meth:`record_wave` or
        :meth:`refine`), and not quarantined since.  Built on the first
        read after a record, then the same mapping until the next."""
        if self._samples is None:
            values = (self._values[:, 0].tolist() if self._scalar
                      else list(self._values))
            self._samples = MappingProxyType(
                dict(zip(self._keys.tolist(), values))
            )
        return self._samples

    def recorded(self, energies) -> tuple[np.ndarray, np.ndarray]:
        """Two masks over ``energies``: recorded with a value, and
        quarantined — a node at neither was never recorded."""
        return _member(self._keys, energies), _member(self._excluded, energies)

    def record(self, energy: float, value) -> None:
        """Memoize one solved node; ``None`` quarantines it.

        Every node a wave emits must be recorded (here, by
        :meth:`record_wave`, or already present in :attr:`samples`)
        before :meth:`next_wave`.  A later record of an energy replaces
        an earlier one; a quarantine stays.
        """
        if value is None:
            self.record_wave([], [], quarantined=[energy])
        else:
            self.record_wave([energy], [value])

    def record_wave(self, energies, values, quarantined=()) -> None:
        """Memoize a wave of solved nodes at once: ``values[i]`` (a row of
        an ``(n, c)`` array, or an entry of an ``(n,)`` one) is the value
        at ``energies[i]`` (the last of equal energies wins); every energy
        of ``quarantined`` is then recorded as ``None``.  The same as
        :meth:`record` node by node, in that order.
        """
        self._samples = None
        values = np.asarray(values, dtype=float)
        if values.size:
            self._scalar = values.ndim == 1
            values = values.reshape(len(values), -1)
            keys = np.concatenate([self._keys, np.asarray(energies, float)])
            values = np.concatenate(
                [self._values.reshape(-1, values.shape[1]), values]
            )
            order = np.argsort(keys, kind="stable")
            last = np.append(keys[order][1:] != keys[order][:-1], True)
            self._keys, self._values = keys[order][last], values[order][last]
        dropped = np.sort(np.asarray(quarantined, dtype=float))
        if dropped.size:
            self._excluded = _unique(np.concatenate([self._excluded, dropped]))
            keep = ~_member(dropped, self._keys)
            self._keys, self._values = self._keys[keep], self._values[keep]

    def _rows(self, energies) -> np.ndarray:
        """Rows of the recorded ``energies`` in the value arrays (a
        ``KeyError`` for one never recorded)."""
        if not _member(self._keys, energies).all():
            raise KeyError("an energy was never recorded")
        return np.searchsorted(self._keys, energies)

    # -- wave engine ---------------------------------------------------

    def _reset_waves(self) -> None:
        self._nodes = np.empty(0)          # accepted nodes, sorted
        self._excluded = np.empty(0)       # quarantined energies, sorted
        self._active = np.empty((0, 2))    # intervals to score, in order
        self._leaves: list[np.ndarray] = []
        self._wave = 0
        self._budget_hit = False
        #: True when the last wave emitted may hold a node twice: a cut
        #: rounded onto its neighbour (float resolution)
        self.collapsed = False
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
        return int(np.count_nonzero(~_member(self._excluded, self._nodes)))

    @property
    def n_excluded(self) -> int:
        """Nodes quarantined out of the error estimator and the grid."""
        return self._excluded.size

    @property
    def budget_hit(self) -> bool:
        """True once the ``max_points`` node budget stopped refinement."""
        return self._budget_hit

    def first_wave(self) -> list[float]:
        """Reset the engine and emit wave 0: the uniform seed nodes."""
        self._reset_waves()
        nodes = np.linspace(self.emin, self.emax, self.n_initial)
        self._nodes = _unique(nodes)
        self.collapsed = self._nodes.size < nodes.size
        self._active = np.column_stack([nodes[:-1], nodes[1:]])
        self.node_counts.append(self.n_nodes)
        return nodes.tolist()

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
        energy order to the budget left over.  A wave's splits run in
        energy order until one reaches the budget; the split intervals
        after it stay leaves.

        A passing interval is still split one level when an *adjacent*
        active interval failed its own test (refinement spreading).  The
        midpoint test alone can be defeated by chord coincidence — a
        resonance positioned so the midpoint value happens to land on
        the linear interpolant of the endpoints looks converged while
        hiding the peak — but such a feature always leaks a large error
        into a neighbouring interval, whose failure vetoes the
        coincidence.

        The whole wave is a fixed sequence of array operations: the
        intervals are cut at every depth to the deepest one split
        (``(splits, 2**levels + 1)`` nodes), and each split reads its
        own nodes off that array at its own stride.
        """
        self.collapsed = False
        if self._nodes.size >= self.max_points:
            self._budget_hit = True
        if self._budget_hit or self._wave > self.max_passes:
            return self._truncate()
        a, b = self._active.T
        mid = 0.5 * (a + b)
        if self._wave == 0:
            # wave 0 carried the seed nodes themselves; the intervals
            # between them are already active — just emit midpoints
            self._wave = 1
            return mid.tolist()
        # an excluded endpoint or midpoint retires the interval
        triples = np.stack([a, mid, b])
        live = ~_member(self._excluded, triples).any(axis=0)
        err = np.full(a.size, -np.inf)
        va, vm, vb = self._values[self._rows(triples[:, live])]
        err[live] = np.abs(vm - 0.5 * (va + vb)).max(axis=1)
        # neighbour veto: _active is kept sorted by energy, so adjacency
        # is a shared endpoint at i +- 1
        fail = err > self.tol
        touch = a[1:] == b[:-1]
        near = np.zeros_like(fail)
        near[1:] |= fail[:-1] & touch
        near[:-1] |= fail[1:] & touch
        split = np.flatnonzero(fail | (live & near))
        leaf = live.copy()
        wave = np.empty(0)
        self._active = np.empty((0, 2))
        if split.size:
            lo, hi, half = a[split], b[split], mid[split]
            # nodes left for halvings past the first: none on the last
            # pass, nor when one node per split already meets the budget
            room = self.max_points - self._nodes.size
            spare = room - 1 - split.size
            if spare < 0 or self._wave >= self.max_passes:
                # single bisections, each adding its midpoint (unless it
                # rounds onto an end): the budget may run out part-way
                k = np.ones_like(split)
                grown = np.cumsum((half != lo) & (half != hi))
                n_cut = np.searchsorted(grown, room)
                self._budget_hit = bool(n_cut < split.size)
                split, lo, hi, half, k = (
                    x[:n_cut + 1] for x in (split, lo, hi, half, k)
                )
            else:
                k = _split_depths(1 + np.searchsorted(
                    self.tol * 4.0 ** np.arange(1, MAX_SPLIT_DEPTH), err[split]
                ), spare)
            leaf[split] = False
            # every split interval cut one level past its deepest split:
            # row j holds its nodes at stride 2**(levels - k_j) and its
            # sub-intervals' midpoints half-way between them
            levels = int(k.max()) + 1
            cuts = np.column_stack([lo, hi])
            for _ in range(levels):
                halves = np.empty((split.size, 2 * cuts.shape[1] - 1))
                halves[:, ::2] = cuts
                halves[:, 1::2] = 0.5 * (cuts[:, :-1] + cuts[:, 1:])
                cuts = halves
            # cuts are sorted along a row: a repeat is a neighbour
            self.collapsed = bool((cuts[:, 1:] == cuts[:, :-1]).any())
            stride = (2 ** levels >> k)[:, None]
            at = np.arange(cuts.shape[1]) % stride
            on_cut = at == 0
            new = cuts[:, 1:-1][on_cut[:, 1:-1]]
            self._nodes = _unique(np.concatenate([self._nodes, new]))
            # the wave: each sub-interval's left end unless it is the
            # interval's own or the midpoint scored above, and each
            # sub-interval's midpoint
            emit = on_cut & (cuts != lo[:, None]) & (cuts != half[:, None])
            emit[:, -1] = False
            wave = cuts[emit | (at == stride // 2)]
            ends = cuts[:, :-1][on_cut[:, :-1]], cuts[:, 1:][on_cut[:, 1:]]
            self._active = np.column_stack(ends)
        if leaf.any():
            # converged — or the budget is spent, and the interval's
            # solved midpoint stays as leaf quadrature support
            self._leaves.append(np.column_stack([a[leaf], b[leaf]]))
        self._est_error = float(err.max(initial=0.0))
        self._wave += 1
        self.node_counts.append(self.n_nodes)
        if self._budget_hit or self._wave > self.max_passes:
            # refinement is truncated: the still-active intervals become
            # leaves (their midpoints are never solved)
            return self._truncate()
        return wave.tolist()

    def _truncate(self) -> list[float]:
        """End refinement: every active interval becomes a leaf."""
        if self._active.size:
            self._leaves.append(self._active)
        self._active = np.empty((0, 2))
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
        semantics of the degradation ladder.  A node's weight is the sum
        of the leaves' shares it carries, added leaf by leaf in energy
        order (at float resolution a node can carry more than two).
        """
        survivors = self._nodes[~_member(self._excluded, self._nodes)]
        if not survivors.size:
            raise ValueError("every adaptive node was quarantined")
        if self._excluded.size or not self._leaves:
            return EnergyGrid(survivors, trapezoid_weights(survivors))
        leaves = np.concatenate(self._leaves)
        a, b = leaves[np.lexsort(leaves.T[::-1])].T
        mid = 0.5 * (a + b)
        h = b - a
        simpson = _member(self._keys, mid)
        end = np.where(simpson, h / 6.0, 0.5 * h)
        # leaf by leaf in energy order, a, its midpoint and b: the order
        # the shares of a node are summed in
        used = np.column_stack([np.ones_like(simpson), simpson,
                                np.ones_like(simpson)])
        nodes = np.column_stack([a, mid, b])[used]
        weights = np.column_stack([end, 4.0 * h / 6.0, end])[used]
        pts = _unique(nodes)
        return EnergyGrid(pts, np.bincount(np.searchsorted(pts, nodes), weights))

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
            nodes = np.array(wave)
            # memoized: never re-evaluate a solved node (at float
            # resolution a midpoint rounds onto one)
            fresh = nodes[~self.recorded(nodes)[0]]
            values = [float(integrand(e)) for e in fresh.tolist()]
            self.n_evaluations += len(values)
            self.record_wave(fresh, values)
            wave = self.next_wave()
        return self.grid()

    def sampled_values(self, grid: EnergyGrid) -> np.ndarray:
        """Cached integrand values at the nodes of ``grid``."""
        values = self._values[self._rows(grid.energies)]
        return values[:, 0] if self._scalar else values


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
