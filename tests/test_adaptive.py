"""Adaptive energy quadrature: property tests and the parallel wave path.

Locks down the contracts of :class:`repro.physics.grids.AdaptiveEnergyGrid`
and its promotion to a first-class execution mode in
:class:`repro.core.TransportCalculation`:

* Hypothesis properties — refinement of a Lorentzian resonance converges
  to the dense-oracle integral within the requested tolerance, the node
  count is monotone non-decreasing across waves and never exceeds the
  budget, and the final quadrature weights sum to the integration window,
* memoization — the callable and wave drivers charge each unique energy
  exactly once, pinned through ``flops.*`` counters and
  :attr:`n_evaluations`,
* the wave engine — quarantined (``None``-recorded) nodes retire their
  intervals instead of pinning refinement and never reach the final grid,
  and the ``max_points`` budget halts emission,
* transport integration — ``energy_mode="adaptive"`` populates
  :attr:`TransportResult.adaptive`, records parent-side ``adaptive.*``
  metrics, emits ``wave_done`` events, and per-energy ``flops.*`` prove
  no node is ever solved twice.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.negf import RGFSolver, landauer_current
from repro.observability import (
    MetricsRegistry,
    Tracer,
    add_flops,
    use_metrics,
    use_tracer,
)
from repro.observability.telemetry import (
    TelemetryWriter,
    read_events,
    use_events,
)
from repro import env
from repro.physics import grids
from repro.physics.grids import AdaptiveEnergyGrid, uniform_grid

EMIN, EMAX = -2.0, 2.0
WINDOW = EMAX - EMIN


def lorentzian(center: float, width: float):
    """Unit-height Lorentzian resonance — the sharp-feature workhorse."""

    def f(e: float) -> float:
        return width * width / ((e - center) ** 2 + width * width)

    return f


def lorentzian_integral(center: float, width: float) -> float:
    """Analytic dense-oracle value of the Lorentzian over the window."""
    return width * (
        np.arctan((EMAX - center) / width)
        - np.arctan((EMIN - center) / width)
    )


@pytest.fixture(scope="module")
def built():
    return build_device(DeviceSpec(
        n_x=10, n_y=2, n_z=2, spacing_nm=0.25,
        source_cells=3, drain_cells=3, gate_cells=(4, 6),
        donor_density_nm3=0.05, material_params={"m_rel": 0.3},
    ))


# ---------------------------------------------------------------------------
# Hypothesis properties of the refinement engine


class TestRefinementProperties:
    @given(
        center=st.floats(-0.5, 0.5),
        width=st.floats(0.03, 0.2),
        tol=st.floats(1e-4, 5e-3),
    )
    @settings(max_examples=40, deadline=None)
    def test_converges_to_dense_oracle(self, center, width, tol):
        """Adaptive integral agrees with the analytic value within tol.

        The seed grid must resolve the resonance at least coarsely —
        bisection cannot see structure that aliases entirely between
        seed nodes — so the seed spacing (0.125) is kept of the order
        of the narrowest width generated.
        """
        refiner = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=33, tol=tol, max_points=4096,
            max_passes=20,
        )
        grid = refiner.refine(lorentzian(center, width))
        est = grid.integrate(refiner.sampled_values(grid))
        exact = lorentzian_integral(center, width)
        assert abs(est - exact) <= 2.0 * tol * WINDOW
        assert refiner.est_error <= tol

    @given(
        center=st.floats(-0.5, 0.5),
        width=st.floats(0.02, 0.2),
        budget=st.integers(12, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_count_monotone_and_bounded(self, center, width, budget):
        """Per-wave node counts never decrease and never exceed the budget."""
        refiner = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=9, tol=1e-4, max_points=budget
        )
        refiner.refine(lorentzian(center, width))
        counts = refiner.node_counts
        assert counts, "refinement recorded no waves"
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] <= budget
        assert refiner.n_nodes <= budget
        if refiner.budget_hit:
            assert refiner.next_wave() == []

    @given(
        center=st.floats(-0.5, 0.5),
        width=st.floats(0.02, 0.2),
        tol=st.floats(1e-4, 5e-2),
    )
    @settings(max_examples=40, deadline=None)
    def test_weights_sum_to_window(self, center, width, tol):
        """Trapezoid weights of the refined grid sum to emax - emin."""
        refiner = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=9, tol=tol, max_points=4096
        )
        grid = refiner.refine(lorentzian(center, width))
        assert grid.weights.sum() == pytest.approx(WINDOW, rel=1e-12)
        assert grid.energies[0] == EMIN
        assert grid.energies[-1] == EMAX

    @given(
        center=st.floats(-0.5, 0.5),
        width=st.floats(0.005, 0.2),
        tol=st.floats(1e-5, 1e-2),
        budget=st.integers(12, 400),
        max_passes=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_nodes_on_the_bisection_lattice_solved_once(
        self, center, width, tol, budget, max_passes
    ):
        """Every emitted node is a repeated midpoint of the seed grid,
        emitted once and evaluated once, and the final grid holds only
        solved nodes — also when the budget or the pass cap truncates a
        wave that split intervals several levels deep.  The seed spacing
        (4/9) is not a binary fraction, so nodes placed any other way
        than by repeated ``0.5 * (a + b)`` fall off the lattice."""
        refiner = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=10, tol=tol, max_points=budget,
            max_passes=max_passes,
        )
        f = lorentzian(center, width)
        seeds = refiner.first_wave()
        wave, emitted = list(seeds), []
        while wave:
            emitted.extend(wave)
            for e in wave:
                refiner.record(e, f(e))
            wave = refiner.next_wave()
        assert len(emitted) == len(set(emitted)), "a node was emitted twice"
        # wave w reaches at most MAX_SPLIT_DEPTH levels below wave w - 1;
        # an off-lattice float is reached only ~50 halvings down
        deepest = 1 + grids.MAX_SPLIT_DEPTH * max_passes
        for e in emitted:
            i = min(np.searchsorted(seeds, e, side="right") - 1,
                    len(seeds) - 2)
            a, b = seeds[i], seeds[i + 1]
            for _ in range(deepest):
                if e in (a, b):
                    break
                mid = 0.5 * (a + b)
                a, b = (a, mid) if e <= mid else (mid, b)
            assert e in (a, b), f"{e!r} is not a repeated midpoint"
        assert set(refiner.grid().energies) <= set(refiner.samples)
        assert refiner.n_nodes <= budget
        # the callable driver over the same configuration: one
        # evaluation per node it keeps
        again = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=10, tol=tol, max_points=budget,
            max_passes=max_passes,
        )
        again.refine(f)
        assert again.n_evaluations == len(again.samples) == len(emitted)

    def test_beats_uniform_on_sharp_resonance(self):
        """Adaptive needs far fewer nodes than uniform at equal accuracy."""
        f = lorentzian(0.1, 0.002)
        exact = lorentzian_integral(0.1, 0.002)
        refiner = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=17, tol=1e-4, max_points=4096,
            max_passes=30,
        )
        grid = refiner.refine(f)
        est = grid.integrate(refiner.sampled_values(grid))
        assert abs(est - exact) <= 1e-4 * WINDOW
        # find the uniform node count needed for the same accuracy
        n = 16
        while n < 2 ** 20:
            g = uniform_grid(EMIN, EMAX, n)
            if abs(g.integrate(np.array([f(e) for e in g.energies]))
                   - exact) <= 1e-4 * WINDOW:
                break
            n *= 2
        assert len(grid) * 3 <= n, (
            f"adaptive used {len(grid)} nodes; uniform needed {n}"
        )


# ---------------------------------------------------------------------------
# the resonant chain: waves, solves and accuracy against a dense oracle


def _resonant_chain():
    """40-site m = 1 chain, two 0.7 eV barriers around a 10-site well."""
    built = build_device(DeviceSpec(
        n_x=40, n_y=1, n_z=1, spacing_nm=0.25, source_cells=4,
        drain_cells=4, gate_cells=(12, 28), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    ))
    pot = np.zeros(built.n_atoms)
    pot[9:15] = pot[25:31] = 0.7
    return built, pot


class TestResonantChain:
    def test_few_waves_no_more_solves_dense_accuracy(self, monkeypatch):
        """Deep splits reach the one-level bisection's accuracy in at
        most 8 waves (bisection: 13) with no more solves.

        The oracle is the current on a dense 16385-node uniform grid
        (converged to 1e-8 relative on this device); the bisection run
        is the same engine with ``MAX_SPLIT_DEPTH = 1``.
        """
        built, pot = _resonant_chain()
        calc = dict(
            method="rgf", eta=5e-5, n_energy=128, energy_mode="adaptive",
            adaptive_tol=1e-3, adaptive_max_passes=12,
            max_energy_points=16384,
        )
        tc = TransportCalculation(built, **calc)
        window = tc.energy_grid(pot, 0.05).energies
        dense = uniform_grid(float(window[0]), float(window[-1]), 16385)
        batch = RGFSolver(tc.hamiltonian(pot), eta=tc.eta).solve_batch(
            [float(e) for e in dense.energies]
        )
        i_ref = landauer_current(
            dense, batch.transmission, built.contact_mu("source"),
            built.contact_mu("drain", 0.05), built.spec.kT,
            spin_degeneracy=tc.spin_degeneracy,
        )
        deep = tc.solve_bias(pot, 0.05)
        assert deep.adaptive["waves"] <= 8
        monkeypatch.setattr(grids, "MAX_SPLIT_DEPTH", 1)
        bisect = TransportCalculation(built, **calc).solve_bias(pot, 0.05)
        assert bisect.adaptive["waves"] == 13
        assert deep.adaptive["solved"] <= bisect.adaptive["solved"]
        rel = abs(deep.current_a - i_ref) / abs(i_ref)
        rel_bisect = abs(bisect.current_a - i_ref) / abs(i_ref)
        assert rel <= rel_bisect <= 5e-4


# ---------------------------------------------------------------------------
# memoization: each energy charged exactly once


class TestMemoization:
    def test_each_energy_evaluated_once(self):
        seen: list[float] = []

        def f(e):
            seen.append(e)
            return lorentzian(0.0, 0.05)(e)

        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=9, tol=1e-3)
        refiner.refine(f)
        assert len(seen) == len(set(seen)), "an energy was solved twice"
        assert refiner.n_evaluations == len(seen)

    def test_repeat_refine_charges_nothing(self):
        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=9, tol=1e-3)
        f = lorentzian(0.0, 0.05)
        grid1 = refiner.refine(f)
        charged = refiner.n_evaluations
        grid2 = refiner.refine(f)
        assert refiner.n_evaluations == charged
        np.testing.assert_array_equal(grid1.energies, grid2.energies)

    def test_flops_pin_callable_path(self):
        """flops.* totals prove the integrand ran once per unique energy."""
        tracer = Tracer()

        def f(e):
            add_flops("adaptive.integrand", 1.0)
            return lorentzian(0.0, 0.05)(e)

        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=9, tol=1e-3)
        with use_tracer(tracer):
            refiner.refine(f)
            refiner.refine(f)  # second pass must be fully memoized
        charged = tracer.counter.counts["adaptive.integrand"]
        assert charged == float(refiner.n_evaluations)
        assert charged == float(len(refiner.samples))

    def test_wave_path_skips_cached_nodes(self):
        """Driving the wave engine by hand, samples short-circuit solves."""
        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=9, tol=1e-3)
        f = lorentzian(0.0, 0.05)
        solved: list[float] = []
        wave = refiner.first_wave()
        while wave:
            for e in wave:
                if e not in refiner.samples:
                    solved.append(e)
                    refiner.record(e, f(e))
            wave = refiner.next_wave()
        assert len(solved) == len(set(solved))
        assert set(solved) == set(refiner.samples)


# ---------------------------------------------------------------------------
# wave engine details


class TestWaveEngine:
    def test_quarantined_node_retires_interval(self):
        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=9, tol=1e-6)
        f = lorentzian(0.0, 0.05)
        bad = None
        wave = refiner.first_wave()
        passes = 0
        while wave:
            for e in wave:
                if passes == 1 and bad is None:
                    bad = e
                    refiner.record(e, None)  # quarantine one midpoint
                else:
                    refiner.record(e, f(e))
            wave = refiner.next_wave()
            passes += 1
        assert bad is not None
        grid = refiner.grid()
        assert bad not in grid.energies
        assert refiner.n_excluded == 1
        # the retired interval stopped refining: no accepted node sits
        # strictly inside it at a depth the quarantine should have blocked
        assert refiner.n_nodes == len(grid)

    def test_all_quarantined_raises(self):
        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=3, tol=1e-3)
        wave = refiner.first_wave()
        while wave:
            for e in wave:
                refiner.record(e, None)
            wave = refiner.next_wave()
        with pytest.raises(ValueError, match="quarantined"):
            refiner.grid()

    def test_budget_halts_emission(self):
        refiner = AdaptiveEnergyGrid(
            EMIN, EMAX, n_initial=9, tol=1e-9, max_points=12
        )
        refiner.refine(lorentzian(0.0, 0.02))
        assert refiner.budget_hit
        assert refiner.n_nodes <= 12

    def test_first_wave_resets_state(self):
        refiner = AdaptiveEnergyGrid(EMIN, EMAX, n_initial=9, tol=1e-3)
        refiner.refine(lorentzian(0.0, 0.05))
        nodes = refiner.first_wave()
        assert len(nodes) == 9
        assert refiner.wave_index == 0
        assert refiner.n_nodes == 9
        assert not refiner.budget_hit

    def test_adaptive_enabled_env(self, monkeypatch):
        """``$REPRO_ADAPTIVE``'s truthy values, which
        ``TransportCalculation(energy_mode=None)`` resolves against."""
        monkeypatch.delenv("REPRO_ADAPTIVE", raising=False)
        assert not env.read("REPRO_ADAPTIVE")
        for truthy in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_ADAPTIVE", truthy)
            assert env.read("REPRO_ADAPTIVE")
        monkeypatch.setenv("REPRO_ADAPTIVE", "0")
        assert not env.read("REPRO_ADAPTIVE")


# ---------------------------------------------------------------------------
# transport wave path


class TestAdaptiveTransport:
    def _run(self, built, backend="serial", workers=None, events=None,
             **kwargs):
        tc = TransportCalculation(
            built, method="rgf", n_energy=21, backend=backend,
            workers=workers,
            energy_mode="adaptive", adaptive_tol=0.05, **kwargs,
        )
        pot = np.zeros(built.n_atoms)
        tracer, registry = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(registry):
            if events is not None:
                with use_events(events):
                    result = tc.solve_bias(pot, 0.05)
            else:
                result = tc.solve_bias(pot, 0.05)
        return result, tracer, registry.snapshot()

    def test_coupling_verdicts_taken_once_per_skeleton(self, monkeypatch):
        """The ``c·I`` test of the couplings runs once, when the skeleton
        is assembled: every Hamiltonian the skeleton hands out — one per
        ladder rung of each k-point — carries its verdicts, and no kernel
        stage of any wave (the LU's couplings, the contacts' closed-form
        choice) re-reads a block."""
        from repro.negf import surface_gf
        from repro.tb import hamiltonian

        calls = []
        real = hamiltonian.identity_scalars

        def counted(blocks):
            calls.append(len(blocks))
            return real(blocks)

        monkeypatch.setattr(hamiltonian, "identity_scalars", counted)
        monkeypatch.setattr(surface_gf, "identity_scalars", counted)
        built = build_device(DeviceSpec(
            n_x=10, n_y=2, n_z=2, spacing_nm=0.25,
            source_cells=3, drain_cells=3, gate_cells=(4, 6),
            donor_density_nm3=0.05, material_params={"m_rel": 0.3},
        ))
        assert calls == [9]  # the skeleton's 9 couplings, at the build
        res, _, _ = self._run(built)
        assert res.adaptive["waves"] > 1
        assert calls == [9]

    def test_lu_couplings_built_once_per_skeleton(self, monkeypatch):
        """Every kernel stage of every wave factors with its
        Hamiltonian's ``system_couplings``, and every Hamiltonian of one
        skeleton — each potential of an SCF loop, each ladder rung —
        shares its skeleton's pair: the couplings are put in the block
        LU's form (``-c`` and the conjugate transposes) once per
        skeleton (when the device is built), not once per stage or per
        potential."""
        from repro.solvers import block_tridiagonal

        calls = []
        real = block_tridiagonal._coupling

        def counted(c):
            calls.append(1)
            return real(c)

        monkeypatch.setattr(block_tridiagonal, "_coupling", counted)
        built = build_device(DeviceSpec(
            n_x=10, n_y=2, n_z=2, spacing_nm=0.25,
            source_cells=3, drain_cells=3, gate_cells=(4, 6),
            donor_density_nm3=0.05, material_params={"m_rel": 0.3},
        ))
        n_couplings = built.device.n_slabs - 1
        assert len(calls) == 2 * n_couplings * len(built.momentum_grid)
        res, _, _ = self._run(built)
        assert res.adaptive["waves"] > 1
        shifted = np.full(built.n_atoms, 0.01)
        TransportCalculation(built, method="rgf", n_energy=21).solve_bias(
            shifted, 0.05)
        assert len(calls) == 2 * n_couplings * len(built.momentum_grid)
        assert (built.hamiltonian(shifted).system_couplings
                is built.hamiltonian().system_couplings)

    def test_nodes_at_float_resolution_are_not_solved_again(self, built):
        """A step in T(E) refined to float resolution (a raised pass cap,
        the setting for narrow resonances): bisection midpoints round onto
        nodes earlier waves solved, or onto a node of their own wave, and
        the wave loop neither solves nor counts a node twice."""
        from types import SimpleNamespace

        ulp = np.spacing(1.0)
        step = 1.0 + 20.5 * ulp

        class StepKPoint:
            ik = 0
            calls: list = []

            def solve(self, energies):
                self.calls.append(energies)
                return np.ones(len(energies), dtype=bool)

            def rows(self, energies):
                e = np.asarray(energies)
                zero = np.zeros((e.size, 1))
                return SimpleNamespace(transmission=(e > step) * 1.0,
                                       spectral_left=zero,
                                       spectral_right=zero)

        tc = TransportCalculation(built, method="rgf", n_energy=10,
                                  adaptive_max_passes=40)
        kp, account = StepKPoint(), {}
        grid = tc._solve_waves(kp, uniform_grid(1.0, 1.0 + 64 * ulp, 10),
                               1e-3, 10.0, -10.0, 0.025, account)
        assert account["waves"] == 41  # the step never converges
        seen = set()
        for energies in kp.calls:
            assert len(set(energies)) == len(energies)
            assert seen.isdisjoint(energies)
            seen.update(energies)
        assert sum(map(len, kp.calls)) == account["solved"]
        assert set(grid.energies.tolist()) <= seen

    def test_result_carries_adaptive_stats(self, built):
        res, _, snap = self._run(built)
        stats = res.adaptive
        assert stats is not None
        assert stats["waves"] >= 1
        assert stats["nodes"] >= 2
        assert stats["solved"] >= stats["nodes"]
        assert stats["excluded"] == 0
        assert np.isfinite(res.current_a)
        # T(E, k) is reported resampled on the common base grid
        assert res.transmission.shape[-1] == len(res.energy_grid)
        assert snap.counter("adaptive.waves") == float(stats["waves"])
        assert snap.counter("adaptive.nodes_added") == float(stats["solved"])

    def test_uniform_solve_reports_one_wave(self, built, tmp_path):
        """A uniform solve is the wave loop with refinement off: one wave
        a k-point, every node of the window grid solved once, nothing
        saved, excluded or estimated."""
        tc = TransportCalculation(
            built, method="rgf", n_energy=11, energy_mode="uniform",
        )
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path) as writer, use_events(writer):
            res = tc.solve_bias(np.zeros(built.n_atoms), 0.05)
        n_k = len(built.momentum_grid)
        n = 11 * n_k
        assert res.adaptive == {
            "waves": n_k, "nodes": n, "solved": n, "saved_vs_uniform": 0,
            "excluded": 0, "est_error": 0.0, "budget_hits": 0,
        }
        waves = [e for e in read_events(path) if e["event"] == "wave_done"]
        assert [(w["k"], w["wave"], w["n_new"]) for w in waves] == [
            (k, 0, 11) for k in range(n_k)
        ]

    def test_flops_pin_each_node_solved_once(self, built):
        """Per-energy flops are exactly linear in the solve count."""
        tc = TransportCalculation(
            built, method="rgf", n_energy=21, energy_mode="uniform",
        )
        tracer = Tracer()
        with use_tracer(tracer):
            tc.solve_bias(np.zeros(built.n_atoms), 0.05)
        per_energy = tracer.counter.counts["block_lu.factor"] / 21
        res, atracer, _ = self._run(built)
        assert atracer.counter.counts["block_lu.factor"] == pytest.approx(
            per_energy * res.adaptive["solved"], rel=1e-12
        )

    def test_wave_done_events_emitted(self, built, tmp_path):
        path = tmp_path / "events.jsonl"
        with TelemetryWriter(path) as writer:
            res, _, _ = self._run(built, events=writer)
        lines = [line for line in path.read_text().splitlines() if line]
        import json

        waves = [json.loads(line) for line in lines
                 if json.loads(line)["event"] == "wave_done"]
        assert len(waves) == res.adaptive["waves"]
        assert waves[-1]["n_nodes"] == res.adaptive["nodes"]
        assert all(w["wave"] == i for i, w in enumerate(waves))

    @pytest.mark.parametrize("backend", ["process"])
    def test_bit_identical_across_backends(self, built, backend):
        ref, _, ref_snap = self._run(built)
        res, _, snap = self._run(built, backend=backend, workers=2)
        np.testing.assert_array_equal(
            res.energy_grid.energies, ref.energy_grid.energies
        )
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        assert res.current_a == ref.current_a
        assert res.adaptive == ref.adaptive

        def adaptive_counters(s):
            return {k: v for k, v in s.counters.items()
                    if k.startswith("adaptive.")}

        assert adaptive_counters(snap) == adaptive_counters(ref_snap)

    def test_env_flag_selects_adaptive(self, built, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE", "1")
        tc = TransportCalculation(built, method="rgf", n_energy=11)
        assert tc.energy_mode == "adaptive"
        monkeypatch.delenv("REPRO_ADAPTIVE")
        tc = TransportCalculation(built, method="rgf", n_energy=11)
        assert tc.energy_mode == "uniform"
