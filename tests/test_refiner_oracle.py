"""The array refiner against the node-at-a-time one it replaced.

:class:`repro.physics.grids.AdaptiveEnergyGrid` scores, splits and
builds its grid on arrays.  :class:`PerNodeRefiner` below is the engine
it replaced — sets of floats, lists of interval tuples, a value dict and
a Python loop over intervals — kept verbatim as the oracle.  Both are
driven through the same waves on hypothesis-drawn integrands, including
quarantined (``None``) nodes, a ``max_points`` budget hit and the pass
cap, and must agree bit for bit: the same waves in order, node counts,
node sets, ``grid()`` energies and weights, recorded samples.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.physics import grids
from repro.physics.grids import (
    AdaptiveEnergyGrid,
    EnergyGrid,
    trapezoid_weights,
)

MAX_SPLIT_DEPTH = grids.MAX_SPLIT_DEPTH

EMIN, EMAX = -2.0, 2.0


@dataclass
class PerNodeRefiner:
    """The node-at-a-time engine: sets, tuples and a dict, one Python
    step per interval and per node (code unchanged, docstrings cut)."""

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
        return self._wave

    @property
    def est_error(self) -> float:
        return self._est_error

    @property
    def n_nodes(self) -> int:
        return len(self._accepted - self._excluded)

    @property
    def n_excluded(self) -> int:
        return len(self._excluded)

    @property
    def budget_hit(self) -> bool:
        return self._budget_hit

    def first_wave(self) -> list[float]:
        self._reset_waves()
        nodes = [float(e) for e in
                 np.linspace(self.emin, self.emax, self.n_initial)]
        self._accepted.update(nodes)
        self._active = list(zip(nodes[:-1], nodes[1:]))
        self.node_counts.append(self.n_nodes)
        return list(nodes)

    def record(self, energy: float, value) -> None:
        e = float(energy)
        if value is None:
            self._excluded.add(e)
            self.samples.pop(e, None)
        else:
            self.samples[e] = value

    def next_wave(self) -> list[float]:
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
        self._leaves.extend(self._active)
        self._active = []
        return []

    def grid(self) -> EnergyGrid:
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
        return np.array([self.samples[e] for e in grid.energies])


def integrand(peaks, vector):
    """A sum of Lorentzian resonances ``(center, width, height)``; with
    ``vector`` a second component (their log), as the transport
    indicator has two."""

    def f(e):
        t = sum(h * w * w / ((e - c) ** 2 + w * w) for c, w, h in peaks)
        return np.array([t, np.log1p(t)]) if vector else t

    return f


def quarantined(e, salt, rate):
    """Deterministic per-energy quarantine draw, the same for both
    engines."""
    return rate and hash((salt, e)) % rate == 0


def assert_same_state(new, old):
    assert new.wave_index == old.wave_index
    assert new.node_counts == old.node_counts
    assert new.n_nodes == old.n_nodes
    assert new.n_excluded == old.n_excluded
    assert new.budget_hit == old.budget_hit
    assert new.est_error == old.est_error or (
        np.isnan(new.est_error) and np.isnan(old.est_error)
    )


def assert_same_grid(new, old):
    try:
        want = old.grid()
    except ValueError as exc:
        try:
            new.grid()
        except ValueError as got:
            assert str(got) == str(exc)
            return
        raise AssertionError("the oracle raised, the array engine did not")
    got = new.grid()
    assert got.energies.tolist() == want.energies.tolist()
    assert got.weights.tolist() == want.weights.tolist()


PEAKS = st.lists(
    st.tuples(st.floats(-1.5, 1.5), st.floats(0.002, 0.4),
              st.floats(0.1, 2.0)),
    min_size=1, max_size=3,
)


@given(
    peaks=PEAKS,
    vector=st.booleans(),
    tol=st.floats(1e-5, 5e-2),
    n_initial=st.integers(3, 24),
    budget=st.integers(3, 400),
    max_passes=st.integers(0, 12),
    salt=st.integers(0, 2**16),
    rate=st.sampled_from([0, 0, 7, 40]),
    bulk=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_waves_nodes_and_grid_match_the_per_node_engine(
    peaks, vector, tol, n_initial, budget, max_passes, salt, rate, bulk,
):
    """Wave by wave, the same nodes in the same order and the same
    accounts; at the end the same grid, bit for bit.  The array engine
    is fed a wave at a time (``record_wave``) or a node at a time."""
    f = integrand(peaks, vector)
    config = dict(n_initial=n_initial, tol=tol, max_points=budget,
                  max_passes=max_passes)
    new = AdaptiveEnergyGrid(EMIN, EMAX, **config)
    old = PerNodeRefiner(EMIN, EMAX, **config)
    wave, want = new.first_wave(), old.first_wave()
    while True:
        assert wave == want
        assert_same_state(new, old)
        if not wave:
            break
        lost = [e for e in wave if quarantined(e, salt, rate)]
        solved = [e for e in wave if not quarantined(e, salt, rate)]
        values = [f(e) for e in solved]
        for e in wave:
            old.record(e, None if e in lost else f(e))
        if bulk:
            new.record_wave(solved, values, quarantined=lost)
        else:
            for e in wave:
                new.record(e, None if e in lost else f(e))
        wave, want = new.next_wave(), old.next_wave()
    assert_same_grid(new, old)
    assert dict(new.samples).keys() == old.samples.keys()
    for e, value in old.samples.items():
        assert np.array_equal(new.samples[e], value)


@given(
    peaks=PEAKS,
    tol=st.floats(1e-5, 5e-2),
    n_initial=st.integers(3, 24),
    budget=st.integers(3, 400),
    max_passes=st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
def test_refine_on_a_scalar_integrand_matches_the_per_node_engine(
    peaks, tol, n_initial, budget, max_passes,
):
    """The callable driver: the same grid, the same evaluations in the
    same order, the same sampled values — and a repeated ``refine``
    charges nothing on either engine."""
    f = integrand(peaks, False)
    config = dict(n_initial=n_initial, tol=tol, max_points=budget)
    runs = []
    for engine in (AdaptiveEnergyGrid, PerNodeRefiner):
        calls = []

        def counted(e):
            calls.append(e)
            return f(e)

        refiner = engine(EMIN, EMAX, **config)
        grid = refiner.refine(counted, max_passes=max_passes)
        again = refiner.refine(counted)
        runs.append((refiner, grid, again, calls))
    (new, got, got_again, new_calls), (old, want, want_again, old_calls) = runs
    assert new_calls == old_calls
    assert new.n_evaluations == old.n_evaluations == len(old_calls)
    for a, b in ((got, want), (got_again, want_again)):
        assert a.energies.tolist() == b.energies.tolist()
        assert a.weights.tolist() == b.weights.tolist()
    assert new.sampled_values(got).tolist() == [
        old.samples[e] for e in want.energies.tolist()
    ]
    assert_same_state(new, old)


def test_a_step_refined_to_float_resolution_matches_the_per_node_engine():
    """A step integrand over 64 ulps with a raised pass cap: intervals
    reach one ulp and their midpoints round onto their ends, so later
    waves re-emit recorded nodes.  Both engines emit the same waves and
    build the same grid, and ``refine`` evaluates each energy once."""
    ulp = np.spacing(1.0)
    lo, hi, step = 1.0, 1.0 + 64 * ulp, 1.0 + 20.5 * ulp
    config = dict(n_initial=5, tol=1e-3, max_passes=40)
    new = AdaptiveEnergyGrid(lo, hi, **config)
    old = PerNodeRefiner(lo, hi, **config)
    wave, want, seen, again = new.first_wave(), old.first_wave(), set(), 0
    while wave:
        assert wave == want
        assert_same_state(new, old)
        again += sum(e in seen for e in wave)
        seen.update(wave)
        new.record_wave(wave, [float(e > step) for e in wave])
        for e in wave:
            old.record(e, float(e > step))
        wave, want = new.next_wave(), old.next_wave()
    assert not want and again > 0
    assert_same_grid(new, old)
    calls = []
    refiner = AdaptiveEnergyGrid(lo, hi, **config)
    refiner.refine(lambda e: calls.append(e) or float(e > step))
    assert len(calls) == len(set(calls)) == len(seen)


def test_every_node_quarantined_raises_alike():
    """A wave of nothing but quarantined nodes: both engines retire every
    interval and refuse to build a grid."""
    engines = [AdaptiveEnergyGrid(EMIN, EMAX, n_initial=5, tol=1e-3),
               PerNodeRefiner(EMIN, EMAX, n_initial=5, tol=1e-3)]
    for refiner in engines:
        wave = refiner.first_wave()
        while wave:
            for e in wave:
                refiner.record(e, None)
            wave = refiner.next_wave()
    assert_same_state(*engines)
    assert_same_grid(*engines)
