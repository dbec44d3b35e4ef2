"""Execution-backend properties: equivalence, scheduling, resume.

Locks down the contracts of :mod:`repro.parallel.backend`:

* serial / process backends (in stacks of one and in the device's own
  stack length) produce *identical* transport results and IV curves,
* the backend is the only execution choice: the deleted ``zero_copy``,
  ``sigma_cache``, ``precision`` and (calculation) ``surface_method``
  knobs are rejected everywhere they used to reach, and so is the
  deleted ``thread`` backend,
* the scheduler's round-robin and contiguous-chunk splitters cover every
  index for any ``n_points % n_ranks`` remainder (regression: a
  remainder must never be dropped), and
* an interrupted sweep resumed from its checkpoint is identical to an
  uninterrupted one under every backend.
"""

import os

import numpy as np
import pytest

from repro.core import (
    DistributedTransport,
    IVSweep,
    SelfConsistentSolver,
)
from repro.parallel import (
    BACKEND_NAMES,
    Decomposition,
    SerialComm,
    choose_level_sizes,
    get_backend,
    round_robin,
    split_chunks,
)
from repro.negf import RGFSolver
from repro.resilience import SweepCheckpoint
from repro.wf import WFSolver
from tests.conftest import make_transport as _transport

# the ``built`` and ``reference`` fixtures live in tests/conftest.py

BACKENDS = list(BACKEND_NAMES)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [False, True])
    def test_solve_bias_identical(self, built, reference, backend, batch,
                                  force_stack):
        """``batch=False`` is the former per-point loop: stacks of one."""
        pot, grid, ref = reference
        if not batch:
            force_stack(1)
        tc = _transport(built, backend=backend, workers=2)
        res = tc.solve_bias(pot, 0.05, energy_grid=grid)
        assert res.current_a == ref.current_a
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        np.testing.assert_array_equal(
            res.density_per_atom, ref.density_per_atom
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cached_solve_identical(self, built, reference, backend):
        """A second solve on the same calculation is bit-identical on
        every backend: nothing is carried from one solve to the next."""
        pot, grid, ref = reference
        tc = _transport(built, backend=backend, workers=2)
        for _ in range(2):
            res = tc.solve_bias(pot, 0.05, energy_grid=grid)
            assert res.current_a == ref.current_a
            np.testing.assert_array_equal(res.transmission, ref.transmission)

    def test_wf_backends_agree(self, built):
        """The WF kernel on the process pool against the serial solve and
        against :meth:`WFSolver.solve` node by node: a single energy is a
        stack of one, so both are bit-identical."""
        pot = np.zeros(built.n_atoms)
        # pin the uniform grid: the comparison below re-solves on the
        # reference's own nodes, which only sees the same integrand when
        # the reference was not adaptively refined ($REPRO_ADAPTIVE)
        ref = _transport(built, method="wf", energy_mode="uniform").solve_bias(
            pot, 0.05
        )
        tc = _transport(built, method="wf", backend="process", workers=2)
        res = tc.solve_bias(pot, 0.05, energy_grid=ref.energy_grid)
        assert res.current_a == ref.current_a
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        H = tc.hamiltonian(pot, built.momentum_grid.k_points[0])
        scalar = WFSolver(H, eta=tc.eta)
        t_scalar = [
            scalar.solve(float(e)).transmission
            for e in ref.energy_grid.energies
        ]
        np.testing.assert_array_equal(res.transmission[0], t_scalar)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_iv_curve_identical(self, built, backend):
        vgs = [-0.1, 0.1]
        curves = {}
        for name in ("serial", backend):
            tc = _transport(built, backend=name, workers=2)
            scf = SelfConsistentSolver(built, tc, max_iterations=40)
            curves[name] = IVSweep(scf).transfer_curve(vgs, v_drain=0.05)
        ref, cur = curves["serial"], curves[backend]
        assert len(cur.points) == len(ref.points)
        for a, b in zip(cur.points, ref.points):
            assert a.v_gate == b.v_gate
            assert a.current_a == b.current_a
            assert a.converged == b.converged

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        backend = get_backend()
        assert backend.name == "process"
        assert backend.workers == 3

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            get_backend("cuda")


class TestSchedulerRemainder:
    """Regression: remainders of n_points % n_ranks must never be dropped."""

    @pytest.mark.parametrize("n_items,n_workers", [
        (7, 3), (11, 4), (41, 8), (5, 8), (1, 4), (0, 3), (12, 12),
    ])
    def test_round_robin_full_coverage(self, n_items, n_workers):
        plan = round_robin(n_items, n_workers)
        assert len(plan) == n_workers
        flat = sorted(i for chunk in plan for i in chunk)
        assert flat == list(range(n_items))
        sizes = [len(chunk) for chunk in plan]
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

    @pytest.mark.parametrize("n_items,n_chunks", [
        (7, 3), (11, 4), (41, 8), (5, 8), (1, 4), (12, 5),
    ])
    def test_split_chunks_contiguous_and_complete(self, n_items, n_chunks):
        chunks = split_chunks(n_items, n_chunks)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(n_items))  # ordered, gapless, complete
        for chunk in chunks:
            assert chunk == list(range(chunk[0], chunk[-1] + 1))

    def test_distributed_uneven_ranks_match_serial(self, built, reference):
        """41 energies over 5 ranks (remainder 1) == the 1-rank answer."""
        pot, grid, _ = reference
        results = {}
        for n_ranks in (1, 5):
            dist = DistributedTransport(_transport(built))
            out = dist.solve_bias(pot, 0.05, SerialComm(), n_ranks=n_ranks)
            results[n_ranks] = out
        # rank-count changes the reduction (sum) order: last-ulp window,
        # far inside the 1e-10 differential contract
        np.testing.assert_allclose(
            results[1]["density_per_atom"], results[5]["density_per_atom"],
            rtol=1e-13, atol=0.0,
        )
        assert results[1]["current_a"] == pytest.approx(
            results[5]["current_a"], rel=1e-13
        )


class TestDecompositionEdges:
    """choose_level_sizes / Decomposition at the degenerate corners."""

    def test_single_rank(self):
        groups = choose_level_sizes(1, n_bias=5, n_k=3, n_energy=41)
        assert groups == (1, 1, 1, 1)
        d = Decomposition(5, 3, 41, groups)
        assert d.n_ranks == 1
        assert len(d.tasks_of_rank(0)) == 5 * 3 * 41
        assert d.coverage_is_exact()
        assert d.efficiency() == 1.0

    @pytest.mark.parametrize("p", [7, 13, 61])
    def test_prime_rank_counts(self, p):
        """A prime P cannot factor evenly: sizes may multiply to < P, but
        every level stays bounded by its work and coverage stays exact."""
        groups = choose_level_sizes(p, n_bias=4, n_k=2, n_energy=11)
        g_b, g_k, g_e, g_s = groups
        assert g_b <= 4 and g_k <= 2 and g_e <= 11
        assert g_b * g_k * g_e * g_s <= p
        d = Decomposition(4, 2, 11, groups)
        assert d.coverage_is_exact()
        assert 0.0 < d.efficiency() <= 1.0

    def test_spatial_overflow_clamped(self):
        """Far more ranks than outer work: the spatial level absorbs the
        excess but never exceeds its cap, and spatial peers share tasks."""
        groups = choose_level_sizes(
            4096, n_bias=2, n_k=2, n_energy=4, max_spatial=8
        )
        assert groups[:3] == (2, 2, 4)
        assert groups[3] <= 8
        d = Decomposition(2, 2, 4, groups)
        assert d.coverage_is_exact()
        rep = d.tasks_of_rank(0)
        for s in range(1, groups[3]):
            assert d.tasks_of_rank(s) == rep

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            choose_level_sizes(0, 1, 1, 1)
        with pytest.raises(ValueError):
            choose_level_sizes(4, 0, 1, 1)
        with pytest.raises(ValueError):
            Decomposition(1, 1, 1, (0, 1, 1, 1))
        with pytest.raises(IndexError):
            Decomposition(1, 1, 1, (1, 1, 1, 1)).rank_coordinates(1)


class TestSingleDispatchPath:
    """Chunk payloads through the pool are the only dispatch: there is no
    shared-memory plan layer to opt into, by argument or by environment."""

    def test_zero_copy_is_not_an_option(self, built):
        with pytest.raises(TypeError):
            _transport(built, zero_copy=True)
        with pytest.raises(TypeError):
            DistributedTransport(_transport(built), zero_copy=True)

    def test_thread_is_not_a_backend(self, monkeypatch):
        """Two backends, serial and process: the deleted thread backend
        is an unknown name in the environment and no longer exported."""
        import repro.parallel

        assert BACKEND_NAMES == ("serial", "process")
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend()
        assert not hasattr(repro.parallel, "ThreadBackend")
        assert "ThreadBackend" not in repro.parallel.__all__

    def test_harness_contract_properties(self, built):
        """``benchmarks/e2e`` records these four in its resolved config."""
        tc = _transport(built)
        assert tc.zero_copy is False
        assert tc.batch_energies is True
        assert tc.sigma_cache is None
        assert tc.precision == "fp64"
        with pytest.raises(AttributeError):
            tc.zero_copy = True
        with pytest.raises(AttributeError):
            tc.sigma_cache = object()
        with pytest.raises(AttributeError):
            tc.precision = "mixed"

    def test_precision_is_not_an_option(self, built):
        """One working precision: no constructor takes a precision mode
        or the refinement-stall hook of the deleted mixed mode."""
        from repro.negf import RGFSolver

        H = _transport(built).hamiltonian(np.zeros(built.n_atoms))
        for solver, arguments in ((RGFSolver, ("precision", "refine_faults")),
                                  (WFSolver, ("precision",))):
            for argument in arguments:
                with pytest.raises(TypeError):
                    solver(H, **{argument: None})
        for argument in ("precision", "refine_faults"):
            with pytest.raises(TypeError):
                _transport(built, **{argument: None})
        with pytest.raises(TypeError):
            _transport(built, precision="mixed")

    def test_surface_method_is_not_a_calculation_option(self, built):
        """The contacts of a bias solve are Sancho-Rubio; only the heal
        rung asks its solver for the robust ladder."""
        with pytest.raises(TypeError):
            _transport(built, surface_method="eigen")
        assert not hasattr(_transport(built), "surface_method")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_precision_env_var_is_ignored(self, built, monkeypatch, backend):
        """``REPRO_PRECISION=mixed`` selects nothing: an RGF solve under
        it is bit-identical to one without it."""
        pot = np.zeros(built.n_atoms)

        def solve():
            return _transport(built, backend=backend, workers=2).solve_bias(
                pot, 0.05
            )

        monkeypatch.delenv("REPRO_PRECISION", raising=False)
        ref = solve()
        monkeypatch.setenv("REPRO_PRECISION", "mixed")
        res = solve()
        assert res.current_a == ref.current_a
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        np.testing.assert_array_equal(
            res.density_per_atom, ref.density_per_atom
        )

    @pytest.mark.parametrize("argument", ["sigma_cache", "lead_tokens"])
    def test_sigma_cache_is_not_an_option(self, built, argument):
        """The contacts are recomputed at every (k, E): no constructor
        takes a self-energy cache or the tokens that keyed it."""
        from repro.negf import RGFSolver

        H = _transport(built).hamiltonian(np.zeros(built.n_atoms))
        for solver in (RGFSolver, WFSolver):
            solver(H)
            with pytest.raises(TypeError):
                solver(H, **{argument: None})
        with pytest.raises(TypeError):
            _transport(built, **{argument: None})

    def test_sigma_cache_survives_only_as_the_harness_property(self):
        """Identifier guard: under ``src/repro`` the name ``sigma_cache``
        is the read-only ``TransportCalculation`` property, nothing else."""
        import pathlib

        import repro

        hits = [
            (path.name, line.strip())
            for path in pathlib.Path(repro.__file__).parent.rglob("*.py")
            for line in path.read_text().splitlines()
            if "sigma_cache" in line
        ]
        assert hits == [("transport.py", "def sigma_cache(self) -> None:")]

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="no POSIX shared-memory mount"
    )
    @pytest.mark.parametrize("energy_mode", ["uniform", "adaptive"])
    def test_env_var_is_ignored(self, built, monkeypatch, energy_mode):
        """``REPRO_ZERO_COPY=1`` selects nothing: a process-backend solve
        stays bit-identical to serial and creates no shared segment."""
        monkeypatch.setenv("REPRO_ZERO_COPY", "1")
        pot = np.zeros(built.n_atoms)
        ref = _transport(
            built, backend="serial", energy_mode=energy_mode
        ).solve_bias(pot, 0.05)
        before = set(os.listdir("/dev/shm"))
        res = _transport(
            built, backend="process", workers=2, energy_mode=energy_mode
        ).solve_bias(pot, 0.05)
        assert set(os.listdir("/dev/shm")) <= before
        assert res.current_a == ref.current_a
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        np.testing.assert_array_equal(
            res.density_per_atom, ref.density_per_atom
        )
        assert res.adaptive == ref.adaptive


class TestCheckpointResume:
    VGS = [-0.1, 0.0, 0.1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_interrupted_resume_identical(self, built, backend, tmp_path):
        path = tmp_path / "iv.npz"
        kwargs = {"backend": backend, "workers": 2}

        full = IVSweep(SelfConsistentSolver(
            built, _transport(built, **kwargs), max_iterations=40
        )).transfer_curve(self.VGS, v_drain=0.05)

        # kill the sweep at the last bias point
        scf_killed = SelfConsistentSolver(
            built, _transport(built, **kwargs), max_iterations=40
        )
        original_run = scf_killed.run

        def run_then_die(v_gate, *args, **kw):
            if v_gate == self.VGS[2]:
                raise KeyboardInterrupt
            return original_run(v_gate, *args, **kw)

        scf_killed.run = run_then_die
        with pytest.raises(KeyboardInterrupt):
            IVSweep(scf_killed, checkpoint=path).transfer_curve(
                self.VGS, v_drain=0.05
            )
        assert len(SweepCheckpoint(path).load()["points"]) == 2

        resumed = IVSweep(
            SelfConsistentSolver(
                built, _transport(built, **kwargs), max_iterations=40
            ),
            checkpoint=path, resume=True,
        ).transfer_curve(self.VGS, v_drain=0.05)

        assert resumed.report.resumed_points == 2
        assert len(resumed.points) == len(full.points)
        for a, b in zip(resumed.points, full.points):
            assert a.v_gate == b.v_gate
            assert a.current_a == b.current_a
            assert a.converged == b.converged


# ---------------------------------------------------------------------------
# the stacked kernels are the energy sweep: split invariance + memory bound
# ---------------------------------------------------------------------------

def _wide_device(n_x=8, n_y=5, n_z=5):
    """Short m=25 device: block arrays large enough to need sub-stacks."""
    from repro.core import DeviceSpec, build_device

    return build_device(DeviceSpec(
        n_x=n_x, n_y=n_y, n_z=n_z, spacing_nm=0.25,
        source_cells=2, drain_cells=2, gate_cells=(3, 5),
        donor_density_nm3=0.05, material_params={"m_rel": 0.3},
    ))


def _wide_e2e_device():
    """The ``transport_wide_process`` device of ``benchmarks/e2e``: m = 25
    blocks on 48 slabs, the device the stack budget is calibrated on."""
    from repro.core import DeviceSpec, build_device

    return build_device(DeviceSpec(
        n_x=48, n_y=5, n_z=5, spacing_nm=0.25, source_cells=8,
        drain_cells=8, gate_cells=(16, 32), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    ))


def _second_solve_faults(payload):
    """Pool-worker probe: solve one chunk twice and return the minor page
    faults of the second solve — what a warm worker pays per chunk."""
    import resource

    from repro.core.transport import solve_energies

    solver, energies = payload
    solve_energies(solver, energies)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solve_energies(solver, energies)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _subband_grid(tc, built, n_energy):
    """Grid from below the lead band bottom up through several subbands,
    so the open-channel count changes along it."""
    from repro.physics.grids import uniform_grid

    H = tc.hamiltonian(
        np.zeros(built.n_atoms), built.momentum_grid.k_points[0]
    )
    bottom = tc.lead_band_minimum(H)
    return uniform_grid(bottom - 0.05, bottom + 2.5, n_energy)


class TestStackSplitInvariance:
    """However the energy grid is cut into stacks — length 1 (the former
    per-point loop), the device's own length, or one stack for the whole
    grid — and whichever backend runs them, the result is the same bits.
    A ``(length, n_energy)`` input runs a grid of ``n_energy`` nodes."""

    N_ENERGY = 23
    LONG_GRID = 65

    @pytest.fixture(scope="class")
    def devices(self, built):
        return {"mini": built, "wide": _wide_device(n_x=6)}

    @pytest.fixture(scope="class")
    def references(self, devices):
        out = {}
        for name, dev in devices.items():
            for method in ("rgf", "wf"):
                tc = _transport(dev, method=method, backend="serial")
                pot = np.zeros(dev.n_atoms)
                for n_energy in (self.N_ENERGY, self.LONG_GRID):
                    grid = _subband_grid(tc, dev, n_energy)
                    out[name, method, n_energy] = (
                        pot, grid, tc.solve_bias(pot, 0.05, energy_grid=grid)
                    )
        return out

    @pytest.mark.parametrize("length", [
        1, 2, 7, N_ENERGY,
        pytest.param((1, LONG_GRID), id="1-of-65"),
        pytest.param((4, LONG_GRID), id="4-of-65"),
        pytest.param((13, LONG_GRID), id="13-of-65"),
    ])
    @pytest.mark.parametrize("device", ["mini", "wide"])
    @pytest.mark.parametrize("method", ["rgf", "wf"])
    def test_result_independent_of_split_and_backend(
        self, devices, references, force_stack, monkeypatch, method, device,
        length,
    ):
        length, n_energy = (
            length if isinstance(length, tuple) else (length, self.N_ENERGY)
        )
        pot, grid, ref = references[device, method, n_energy]
        # the grid must cross subband thresholds (WF pads its right-hand
        # sides to the stack-wide channel maximum)
        assert len(np.unique(ref.channels)) > 1
        force_stack(length)
        # a chunk of n energies runs as ceil(n / length) sub-stacks whose
        # lengths differ by at most one: 65 at length 13 are 5 x 13
        stacks = []
        solver = RGFSolver if method == "rgf" else WFSolver
        solve_batch = solver.solve_batch
        monkeypatch.setattr(solver, "solve_batch", lambda self, e: (
            stacks.append(len(e)), solve_batch(self, e))[1])
        for backend in BACKENDS:
            tc = _transport(
                devices[device], method=method, backend=backend, workers=2
            )
            res = tc.solve_bias(pot, 0.05, energy_grid=grid)
            if backend == "serial":
                n_k = len(devices[device].momentum_grid)
                parts = -(-len(grid) // length)
                assert sorted(stacks) == sorted([
                    len(grid) * (i + 1) // parts - len(grid) * i // parts
                    for i in range(parts)
                ] * n_k)
                if length == 13 and len(grid) == 65:
                    assert stacks == [13] * 5 * n_k
            assert res.current_a == ref.current_a, backend
            np.testing.assert_array_equal(res.transmission, ref.transmission)
            np.testing.assert_array_equal(res.channels, ref.channels)
            np.testing.assert_array_equal(
                res.density_per_atom, ref.density_per_atom
            )
            assert res.flops.total == ref.flops.total

    def test_stack_length_follows_the_device(self, devices):
        from repro.core.transport import (
            STACK_BUDGET_BYTES,
            STAGE_SLAB_SETS,
            stack_length,
        )

        lengths = {}
        for name, dev in devices.items():
            tc = _transport(dev)
            H = tc.hamiltonian(
                np.zeros(dev.n_atoms), dev.momentum_grid.k_points[0]
            )
            m = int(H.block_sizes.max())
            lengths[name] = tc.stack_length
            assert tc.stack_length == stack_length(H.n_blocks, m)
            # the longest stack whose measured stage peak (STAGE_SLAB_SETS
            # slab-sets of (m, m) complex blocks per energy) fits the budget
            per_energy = STAGE_SLAB_SETS * H.n_blocks * m * m * 16
            assert tc.stack_length * per_energy <= STACK_BUDGET_BYTES
            assert (tc.stack_length + 1) * per_energy > STACK_BUDGET_BYTES
        assert lengths["wide"] < lengths["mini"]
        assert stack_length(48, 25) == 13  # the e2e wide device
        # a device too large for the budget still solves, one at a time
        assert stack_length(10_000, 100) == 1
        assert _transport(devices["mini"]).batch_energies is True

    def test_serial_peak_memory_bounded_by_the_stack_budget(self):
        """Quadrupling the grid must not quadruple the stacked arrays."""
        import tracemalloc

        from repro.core.transport import STACK_BUDGET_BYTES

        dev = _wide_device(n_x=32)
        pot = np.zeros(dev.n_atoms)

        def peak(n_energy):
            tc = _transport(dev, n_energy=n_energy, backend="serial")
            assert tc.stack_length < 33  # both grids span several stacks
            grid = _subband_grid(tc, dev, n_energy)
            tracemalloc.start()
            try:
                tc.solve_bias(pot, 0.05, energy_grid=grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(129) - peak(33) < STACK_BUDGET_BYTES

    @pytest.mark.parametrize("method", ["rgf", "wf"])
    def test_stage_peak_within_the_stack_budget(self, method):
        """One stacked kernel stage on the wide e2e device, at the device's
        stack length, peaks within the budget the stack length is derived
        from — the memory bound the docs state, by tracemalloc — and at
        most 2.5 slab-sets per energy (it held 7.1 when the LU kept
        both multipliers and the stage both columns of G)."""
        import tracemalloc

        from repro.core.transport import STACK_BUDGET_BYTES

        dev = _wide_e2e_device()
        tc = _transport(dev, method=method, n_energy=129)
        assert tc.stack_length >= 12
        pot = np.zeros(dev.n_atoms)
        H = tc.hamiltonian(pot)
        energies = tc.energy_grid(pot, 0.05).energies[: tc.stack_length]
        solver = (RGFSolver if method == "rgf" else WFSolver)(H)
        sigmas = solver.contacts.sigma_stacks(energies)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver.kernel_stage(energies, *sigmas)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= STACK_BUDGET_BYTES
        slab_set = H.n_blocks * int(H.block_sizes.max()) ** 2 * 16
        assert peak / (energies.size * slab_set) <= 2.5

    @pytest.mark.skipif(
        __import__("platform").libc_ver()[0] != "glibc",
        reason="the worker heap settings are glibc mallopt parameters",
    )
    def test_pool_workers_keep_their_heap(self):
        """A warm process-pool worker solves a wide chunk (65 energies,
        five stacks of 13) without faulting its freed stacks back in:
        with glibc's defaults they go back to the OS between stacks (up
        to ~3.3k minor faults a chunk at 4-energy stacks, 2.6k-3.6k at
        13)."""
        from repro.parallel import ProcessBackend

        dev = _wide_e2e_device()
        tc = _transport(dev, n_energy=129)
        pot = np.zeros(dev.n_atoms)
        solver = RGFSolver(tc.hamiltonian(pot))
        energies = tc.energy_grid(pot, 0.05).energies
        faults = ProcessBackend(workers=2).map(
            _second_solve_faults, [(solver, energies[:65]),
                                   (solver, energies[65:])]
        )
        assert max(faults) <= 200, faults

    def test_serial_sub_stacks_heartbeat(self, built, reference, force_stack,
                                         tmp_path):
        """`repro top` keeps moving during a long serial k-point."""
        from repro.observability import (
            TelemetryWriter,
            read_events,
            use_events,
        )

        pot, grid, _ = reference
        force_stack(4)
        path = tmp_path / "events.jsonl"
        writer = TelemetryWriter(path, heartbeat_s=0.0)
        with use_events(writer):
            _transport(built, backend="serial").solve_bias(
                pot, 0.05, energy_grid=grid
            )
        writer.close()
        beats = [
            e for e in read_events(path)
            if e["event"] == "heartbeat" and e.get("stage") == "energy-stack"
        ]
        # ceil(n / 4) sub-stacks of balanced lengths (at most 4)
        n_stacks = -(-len(grid) // 4)
        assert [b["solved"] for b in beats] == [
            len(grid) * (i + 1) // n_stacks for i in range(n_stacks)
        ]
