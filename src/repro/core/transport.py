"""Transport façade: one call from (device, potential, bias) to observables.

:class:`TransportCalculation` wires together the Hamiltonian assembly, the
contact construction, the energy/momentum grids and the chosen kernel (WF
or RGF) and returns integrated currents and carrier densities.  It is the
unit of work the SCF loop and the I-V engine repeat, and the unit the
parallel scheduler distributes: one ``(k, E)`` kernel call per
:class:`repro.parallel.WorkItem`.

Flop accounting: every kernel invocation is charged to a
:class:`repro.perf.FlopCounter` using the analytic per-kernel formulas, so
a run reports its own (counted-flops / wall-time) sustained performance —
the same accounting convention as the paper.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import DegradationBudgetError
from ..negf.observables import carrier_density, landauer_current, orbital_to_atom
from ..negf.rgf import RGFResult, RGFSolver
from ..observability.metrics import get_metrics
from ..observability.telemetry import (
    capture_telemetry,
    get_events,
    merge_delta,
)
from ..observability.tracer import get_tracer, trace_span
from ..parallel.backend import SerialBackend, get_backend, in_worker
from ..parallel.scheduler import split_chunks, wave_chunks
from ..perf.flops import (
    FlopCounter,
    rgf_solve_flops,
    sancho_rubio_flops,
    wf_solve_flops,
)
from ..physics.fermi import fermi_dirac
from ..physics.grids import (
    AdaptiveEnergyGrid,
    EnergyGrid,
    adaptive_enabled,
    fermi_window_grid,
    trapezoid_weights,
)
from ..resilience.degrade import (
    LADDER_EXCEPTIONS,
    DegradationBudget,
    DegradationReport,
    DenseOracleSolver,
)
from ..resilience.health import get_sentinel
from ..tb.bands import lead_conduction_minimum
from ..wf.qtbm import WFSolver
from .device import BuiltDevice

__all__ = [
    "STACK_BUDGET_BYTES",
    "STAGE_SLAB_SETS",
    "TransportCalculation",
    "TransportResult",
    "solve_energies",
    "stack_length",
]


@dataclass
class TransportResult:
    """Integrated observables of one bias point at a fixed potential.

    Attributes
    ----------
    energy_grid : EnergyGrid
    transmission : ndarray, shape (n_k, n_E)
        T(E, k).
    current_a : float
        Terminal current (A).
    density_per_atom : ndarray
        Electrons per atom (all k and E integrated).
    mu_source, mu_drain : float
        Contact chemical potentials used (eV).
    channels : ndarray, shape (n_k, n_E)
        Open source-side channels per sample.
    flops : FlopCounter
        Analytic flop account of this solve.
    degradation : DegradationReport or None
        Account of every self-healing action taken during this solve
        (sentinel trips, ladder steps, quarantined energy points,
        elastic-execution events); None only for hand-built results.
    adaptive : dict or None
        Refinement account of an adaptive-quadrature solve, summed over
        k-points: ``waves`` (refinement waves run), ``nodes`` (accepted
        quadrature nodes), ``solved`` (energy points actually solved),
        ``saved_vs_uniform`` (solves avoided relative to the uniform
        base grid), ``excluded`` (quarantined nodes dropped from the
        estimator), ``est_error`` (worst interval error at convergence)
        and ``budget_hits`` (k-points that exhausted the node budget).
        None for uniform-grid solves.
    """

    energy_grid: EnergyGrid
    transmission: np.ndarray
    current_a: float
    density_per_atom: np.ndarray
    mu_source: float
    mu_drain: float
    channels: np.ndarray
    flops: FlopCounter
    degradation: DegradationReport | None = None
    adaptive: dict | None = None


class TransportCalculation:
    """Repeatable ballistic transport solve for a built device.

    Parameters
    ----------
    built : BuiltDevice
        Output of :func:`repro.core.build_device`.
    method : {"wf", "rgf"}
        Transport kernel (the paper's two algorithms).
    n_energy : int
        Energy nodes of the integration window.
    eta : float
        Retarded infinitesimal (eV).
    n_kT_window : float
        Half-width of the Fermi window in units of kT.
    energy_mode : {"uniform", "adaptive"} or None
        Quadrature strategy for the energy integral.  ``"uniform"`` runs
        the full ``n_energy``-point grid; ``"adaptive"`` starts from a
        coarse seed and bisects intervals whose transmission/spectral
        interpolation error exceeds ``adaptive_tol``, solving each
        refinement *wave* through the configured execution backend (see
        :meth:`_solve_adaptive`).  None reads ``$REPRO_ADAPTIVE`` (default
        uniform).
    adaptive_tol : float
        Absolute interpolation-error tolerance of the adaptive mode, in
        the units of the normalized refinement indicator
        ``[T*(fL-fR), log1p(spectral-density/scale)]``.
    max_energy_points : int
        Node budget of the adaptive mode per k-point; refinement stops
        once this many nodes are accepted.
    adaptive_max_passes : int
        Refinement-wave cap of the adaptive mode.  A wave splits each
        failing interval up to
        :data:`~repro.physics.grids.MAX_SPLIT_DEPTH` halvings deep, so
        the finest reachable interval is the seed spacing divided by
        ``2**(MAX_SPLIT_DEPTH * adaptive_max_passes)``; raise it when
        chasing resonances much narrower than the seed grid.
    backend : str, ExecutionBackend or None
        Local execution backend for the energy grid of each k-point:
        "serial" (default) or "process".  None reads
        ``$REPRO_BACKEND`` (default serial).  Every backend runs the
        same stacked kernels (:func:`solve_energies`) and is
        bit-identical to the others.
    workers : int or None
        Worker count for the process backend (None: ``$REPRO_WORKERS``).
    injector : repro.resilience.FaultInjector or None
        Fault drills: planted in every solver a k-point builds
        (:meth:`repro.resilience.FaultInjector.plant` — site ``"hblock"``
        corrupts the per-k Hamiltonian, ``"energy"`` poisons one row of
        a stacked solve, ``"worker"`` fires inside pool workers), which
        then run the production path.
    degradation_budget : DegradationBudget or None
        Bound on quarantined quadrature per k-grid (None = defaults).
    """

    def __init__(
        self,
        built: BuiltDevice,
        method: str = "wf",
        n_energy: int = 81,
        eta: float = 1e-6,
        n_kT_window: float = 12.0,
        energy_mode: str | None = None,
        adaptive_tol: float = 0.02,
        max_energy_points: int = 512,
        adaptive_max_passes: int = 12,
        backend=None,
        workers=None,
        injector=None,
        degradation_budget=None,
    ):
        if method not in ("wf", "rgf"):
            raise ValueError("method must be 'wf' or 'rgf'")
        if energy_mode is None:
            energy_mode = "adaptive" if adaptive_enabled() else "uniform"
        if energy_mode not in ("uniform", "adaptive"):
            raise ValueError("energy_mode must be 'uniform' or 'adaptive'")
        self.built = built
        self.method = method
        self.n_energy = n_energy
        self.eta = eta
        self.n_kT_window = n_kT_window
        self.energy_mode = energy_mode
        self.adaptive_tol = adaptive_tol
        self.max_energy_points = max_energy_points
        self.adaptive_max_passes = int(adaptive_max_passes)
        self.spin_degeneracy = 1 if built.material.basis.spin else 2
        self.backend = get_backend(backend, workers)
        self.injector = injector
        self.degradation_budget = degradation_budget or DegradationBudget()

    @property
    def batch_energies(self) -> bool:
        """Always True: the stacked kernels are the only energy sweep."""
        return True

    @property
    def zero_copy(self) -> bool:
        """Always False: chunk payloads through the pool are the only
        dispatch (kept, like :attr:`batch_energies`, because
        ``benchmarks/e2e`` reads it)."""
        return False

    @property
    def sigma_cache(self) -> None:
        """Always None: the contacts are recomputed at every (k, E)
        (kept, like :attr:`zero_copy`, because ``benchmarks/e2e`` reads
        it)."""
        return None

    @property
    def precision(self) -> str:
        """Always ``"fp64"``: every kernel computes in complex128 (kept,
        like :attr:`zero_copy`, because ``benchmarks/e2e`` reads it)."""
        return "fp64"

    @property
    def stack_length(self) -> int:
        """Energies per stacked kernel call on this device
        (:func:`stack_length` of its slab count and widest slab)."""
        device = self.built.device
        widest = max(device.slab_size(s) for s in range(device.n_slabs))
        return stack_length(
            device.n_slabs, widest * self.built.material.orbitals_per_atom
        )

    # ------------------------------------------------------------------
    def hamiltonian(self, potential_ev: np.ndarray, k_transverse: float = 0.0):
        """Device Hamiltonian at a given per-atom potential energy (eV).

        :meth:`repro.core.BuiltDevice.hamiltonian`: a diagonal add on the
        skeleton assembled once per (device, k), not an assembly.
        """
        return self.built.hamiltonian(potential_ev, k_transverse)

    def lead_band_minimum(self, H) -> float:
        """Lowest conduction subband bottom over both leads.

        Sampled over a coarse k_x grid of the lead Bloch Hamiltonian; for
        full-band materials only subbands above the bulk midgap count
        (electron transport window).
        """
        bottoms = []
        for end in (0, -1):
            try:
                bottoms.append(lead_conduction_minimum(
                    H.diagonal[end], H.upper[end],
                    self.built.device.slab_length_nm,
                    floor=self.built.midgap, n_k=7,
                ))
            except np.linalg.LinAlgError:
                raise  # a ValueError too, but a breakdown, not an empty lead
            except ValueError:
                pass  # this lead has no state above the floor
        if not bottoms:
            raise RuntimeError("no conduction states found in the leads")
        return min(bottoms)

    def energy_grid(
        self, potential_ev: np.ndarray, v_drain: float
    ) -> EnergyGrid:
        """Integration window: Fermi window clipped at the lead band bottom."""
        mu_s = self.built.contact_mu("source")
        mu_d = self.built.contact_mu("drain", v_drain)
        H0 = self.hamiltonian(potential_ev, self.built.momentum_grid.k_points[0])
        bottom = self.lead_band_minimum(H0) - 2.0 * self.built.spec.kT
        return fermi_window_grid(
            [mu_s, mu_d],
            kT=self.built.spec.kT,
            n_points=self.n_energy,
            n_kT=self.n_kT_window,
            band_bottom=bottom,
        )

    def _make_solver(self, H, surface_method: str = "sancho"):
        solver = RGFSolver if self.method == "rgf" else WFSolver
        return solver(H, eta=self.eta, surface_method=surface_method)

    def _integrate(self, grid, stack, mu_s, mu_d, kT):
        """Reduce a kernel result stack over ``grid``: *the* quadrature.

        One :func:`~repro.negf.carrier_density` and one
        :func:`~repro.negf.landauer_current` over the rows of ``stack``
        at ``grid.energies``, for a whole k-grid (the bias loop) or a
        rank's share of one (the weights of the common grid make shares
        additive).  Returns ``(current_a, density_per_atom, transmission,
        channels)`` of this k-point, *before* the momentum weight.
        """
        t = stack.transmission
        n_orbital = carrier_density(
            grid, stack.spectral_left, stack.spectral_right,
            mu_s, mu_d, kT, spin_degeneracy=self.spin_degeneracy,
        )
        current = landauer_current(
            grid, t, mu_s, mu_d, kT, spin_degeneracy=self.spin_degeneracy
        )
        density = orbital_to_atom(
            n_orbital, self.built.material.orbitals_per_atom
        )
        return current, density, t, stack.n_channels_left

    def _effective_backend(self):
        """Backend actually used for chunk dispatch.

        Tracer spans and metrics recorded inside process-pool children
        are captured per chunk and merged back into the parent with
        worker provenance (see :mod:`repro.observability.telemetry`), so
        measuring does not forfeit the dispatch speedup.  Parent-side
        object state that a child's snapshot cannot reconstruct keeps the
        process backend in-process, on the serial backend: a live
        :class:`InvariantMonitor`'s violation ledger, and — when the
        injector plants ``"hblock"`` or ``"energy"`` faults — its
        ``once`` bookkeeping and the sentinel trips the planted rows
        raise.  ``"worker"`` drills still use the pool.
        """
        backend = self.backend
        if backend.name == "process":
            from ..observability.invariants import get_monitor

            injector = self.injector
            planted = injector is not None and (
                injector.targets("hblock") or injector.targets("energy")
            )
            if planted or get_monitor().enabled:
                backend = SerialBackend()
        return backend

    def _run_backend(self, solver, energies: list, chunks=None):
        """Solve ``energies`` through the configured execution backend.

        The grid is split into one contiguous chunk per worker (all in
        one chunk for the serial backend) and each chunk is solved by
        :func:`_solve_chunk` in memory-bounded stacked ``solve_batch``
        calls (:func:`solve_energies`); the chunk stacks are joined in
        grid order, one ``concatenate`` per field, into the one result
        stack returned.  Stacked results do not depend on how the grid is
        split, so every backend and worker count is bit-identical.

        When a tracer or metrics registry is live and the chunks go to
        the process pool, each chunk runs under
        :func:`~repro.observability.telemetry.capture_telemetry` and its
        delta is merged back here — the parent's counters and span tree
        end up exactly what a serial run would have recorded, with
        ``worker`` provenance on the absorbed spans.  The same runs record
        the pickled size of every chunk payload as
        ``ipc.task_bytes{path=pickled}``.

        ``chunks`` overrides the default contiguous split: the adaptive
        wave loop pre-chunks small waves per point
        (:func:`repro.parallel.wave_chunks`).
        """
        backend = self._effective_backend()
        if chunks is None:
            n_chunks = 1 if backend.name == "serial" else backend.workers
            chunks = split_chunks(len(energies), n_chunks)
        metrics = get_metrics()
        pooled = backend.name == "process"
        capture = pooled and (get_tracer().enabled or metrics.enabled)
        payloads = [
            (solver, [energies[i] for i in chunk], capture)
            for chunk in chunks
        ]
        if pooled and metrics.enabled:
            for payload in payloads:
                metrics.observe(
                    "ipc.task_bytes", float(len(pickle.dumps(payload))),
                    path="pickled",
                )
        events = get_events()
        stacks = []
        for chunk_id, stack in enumerate(backend.map(_solve_chunk, payloads)):
            if capture:
                stack, delta = stack
                if delta is not None and metrics.enabled:
                    metrics.observe(
                        "telemetry.delta_bytes",
                        float(len(delta.to_bytes())),
                        path="pickled",
                    )
                merge_delta(delta)
            if events.enabled:
                events.emit(
                    "chunk_retired", chunk=chunk_id,
                    n_points=len(stack), path="pickled",
                )
            stacks.append(stack)
        return type(stacks[0]).concatenate(stacks)

    # -- adaptive energy waves -----------------------------------------

    def _solve_adaptive(self, kp, grid, mu_s, mu_d, kT):
        """Wave-scheduled adaptive energy quadrature for one k-point.

        Refinement is driven parent-side by the
        :class:`~repro.physics.grids.AdaptiveEnergyGrid` wave engine:
        each wave's unsolved nodes go through the k-point's node solver
        ``kp`` (per-point below ``min_chunk * workers`` nodes, contiguous
        chunks above — :func:`repro.parallel.wave_chunks`), the refinement
        indicator ``[T*(fL-fR), log1p(spectral-density / wave-0 max)]`` is
        computed over the wave's rows as one stack (one row sum per
        spectral array), and the
        next wave of bisection-lattice nodes is emitted until tolerance, the
        node budget or the pass cap.  Every split decision is made in the
        parent from bitwise round-tripped results, so the node set — and
        therefore the whole solve — is bit-identical across
        serial/process.

        Quarantined nodes are recorded as ``None`` — the refiner retires
        their intervals instead of pinning refinement on an unsolvable
        point — and are charged against the degradation budget here,
        since they never appear in the returned grid.

        Progress flows out as one ``wave_done`` event and one
        ``adaptive.*`` metrics update per wave (all parent-side, hence
        exactly equal on every backend).  Returns ``(grid, stats)``
        where ``stats`` feeds :attr:`TransportResult.adaptive`.
        """
        scale = max(self.built.n_atoms * 0.1, 1.0)
        refiner = AdaptiveEnergyGrid(
            float(grid.energies.min()),
            float(grid.energies.max()),
            n_initial=max(self.n_energy // 2, 9),
            tol=self.adaptive_tol,
            max_points=self.max_energy_points,
            max_passes=self.adaptive_max_passes,
        )
        eff = self._effective_backend()
        n_workers = 1 if eff.name == "serial" else eff.workers
        metrics = get_metrics()
        events = get_events()

        n_waves = 0
        n_solved = 0
        spec_scale = est_error = None
        wave = refiner.first_wave()
        while wave:
            n_waves += 1
            fresh = [e for e in wave if e not in kp.rows]
            if fresh:
                kp.solve(fresh, chunks=wave_chunks(len(fresh), n_workers))
            n_solved += len(fresh)
            solved = [e for e in wave if kp.rows[e] is not None]
            fl = fermi_dirac(solved, mu_s, kT)
            fr = fermi_dirac(solved, mu_d, kT)
            t_term = s_term = np.zeros(0)
            if solved:
                rows = kp.stack(solved)
                t_term = rows.transmission * (fl - fr)
                s_term = (rows.spectral_left.sum(axis=1) * fl
                          + rows.spectral_right.sum(axis=1) * fr)
            if spec_scale is None:
                # normalize the spectral component by its wave-0
                # magnitude so both indicator components are O(1);
                # computed from round-tripped float64 results, hence
                # identical on every backend
                spec_scale = max(
                    float(np.abs(s_term).max(initial=0.0)), scale
                )
            # log-compress the spectral component: quasi-bound peaks tower
            # orders of magnitude over the lead background, and resolving
            # them to *absolute* tolerance would consume the whole node
            # budget; log1p bounds their *relative* interpolation error at
            # the same tol as the current integrand
            indicator = dict(zip(solved, np.column_stack(
                [t_term, np.log1p(s_term / spec_scale)]
            )))
            for energy in wave:
                refiner.record(energy, indicator.get(energy))
            wave = refiner.next_wave()
            est_error = (
                float(refiner.est_error)
                if np.isfinite(refiner.est_error) else None
            )
            if metrics.enabled:
                metrics.inc("adaptive.waves", 1.0)
                if fresh:
                    metrics.inc("adaptive.nodes_added", float(len(fresh)))
                if est_error is not None:
                    metrics.gauge("adaptive.est_error", est_error)
            if events.enabled:
                events.emit(
                    "wave_done",
                    k=kp.ik,
                    wave=n_waves - 1,
                    n_new=len(fresh),
                    n_nodes=refiner.n_nodes,
                    est_error=est_error,
                )

        # quarantined nodes already left the refiner's grid; account
        # them against the quadrature budget and the degradation report
        # here (the k-point's own reweighting never sees them)
        if refiner.n_excluded:
            self.degradation_budget.check(
                refiner.n_excluded,
                refiner.n_excluded + refiner.n_nodes,
                context=f"k-point {kp.ik} adaptive",
            )
            kp.degradation.reweighted_grids += 1
            kp.degradation.record_ladder("quadrature:reweight")
        saved = max(len(grid) - n_solved, 0)
        if metrics.enabled and saved:
            metrics.inc("adaptive.nodes_saved_vs_uniform", float(saved))
        stats = {
            "waves": n_waves,
            "nodes": refiner.n_nodes,
            "solved": n_solved,
            "saved_vs_uniform": saved,
            "excluded": refiner.n_excluded,
            "est_error": est_error or 0.0,
            "budget_hits": int(refiner.budget_hit),
        }
        return refiner.grid(), stats

    # ------------------------------------------------------------------
    def solve_bias(
        self,
        potential_ev: np.ndarray,
        v_drain: float,
        energy_grid: EnergyGrid | None = None,
    ) -> TransportResult:
        """Full (k, E) sweep at one bias and potential.

        Parameters
        ----------
        potential_ev : ndarray
            Electron potential energy per atom (eV) — note the sign:
            potential energy, i.e. -phi for an electrostatic potential phi
            in volts.
        v_drain : float
            Drain bias (V); the drain chemical potential is mu_S - v_drain.
        energy_grid : EnergyGrid or None
            Override the automatic window (used by the adaptive-grid bench).
        """
        with trace_span(
            "transport.solve_bias", category="phase", v_drain=float(v_drain)
        ):
            return self._solve_bias(potential_ev, v_drain, energy_grid)

    def _solve_bias(self, potential_ev, v_drain, energy_grid):
        sentinel = get_sentinel()
        degradation = DegradationReport()
        marker0 = sentinel.marker()
        elastic0 = self.backend.elastic_stats()
        built = self.built
        kT = built.spec.kT
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", v_drain)
        grid = energy_grid or self.energy_grid(potential_ev, v_drain)
        kgrid = built.momentum_grid
        n_k = len(kgrid)

        flops = FlopCounter()
        current = 0.0
        density = np.zeros(built.n_atoms)
        # T(E,k) is reported on the common base grid (exact when a k-grid
        # equals the base grid, interpolated otherwise)
        transmission = np.zeros((n_k, len(grid)))
        channels = np.zeros((n_k, len(grid)), dtype=int)
        adaptive_info = None
        if self.energy_mode == "adaptive" and energy_grid is None:
            adaptive_info = {
                "waves": 0, "nodes": 0, "solved": 0, "saved_vs_uniform": 0,
                "excluded": 0, "est_error": 0.0, "budget_hits": 0,
            }

        for ik, (k, wk) in enumerate(zip(kgrid.k_points, kgrid.weights)):
            get_events().maybe_heartbeat(stage=f"k-point {ik + 1}/{n_k}")
            kp = _KPoint(
                self, ik, k, potential_ev, flops, degradation, sentinel
            )
            if adaptive_info is not None:
                k_grid, k_stats = self._solve_adaptive(
                    kp, grid, mu_s, mu_d, kT
                )
                for key, val in k_stats.items():
                    if key == "est_error":
                        adaptive_info[key] = max(adaptive_info[key], val)
                    else:
                        adaptive_info[key] += val
            else:
                k_grid = grid
                kp.solve(grid.energies.tolist())
            k_grid, stack = kp.surviving(k_grid)
            current_k, density_k, t_k, channels_k = self._integrate(
                k_grid, stack, mu_s, mu_d, kT
            )
            density += wk * density_k
            current += wk * current_k
            transmission[ik] = np.interp(grid.energies, k_grid.energies, t_k)
            channels[ik] = np.round(np.interp(
                grid.energies, k_grid.energies, channels_k.astype(float)
            )).astype(int)

        elastic1 = self.backend.elastic_stats()
        degradation.stragglers += elastic1["stragglers"] - elastic0["stragglers"]
        degradation.speculative_wins += (
            elastic1["speculative_wins"] - elastic0["speculative_wins"]
        )
        degradation.pool_restarts += (
            elastic1["pool_restarts"] - elastic0["pool_restarts"]
        )
        degradation.set_trips(sentinel.trips_since(marker0))

        return TransportResult(
            energy_grid=grid,
            transmission=transmission,
            current_a=current,
            density_per_atom=density,
            mu_source=mu_s,
            mu_drain=mu_d,
            channels=channels,
            flops=flops,
            degradation=degradation,
            adaptive=adaptive_info,
        )


class _KPoint:
    """Node solver of one (bias, k): where every energy of the sweep lands.

    Holds what the nodes of one k-point share — the solver of each
    degradation-ladder rung (:meth:`_rung`: the one place the
    calculation's fault injector is applied), the device shape the flop
    model charges, the accepted kernel result stacks and ``rows``, the
    ``{energy: row of those stacks | None}`` memo (``None`` =
    quarantined) — and the accounts of the bias solve they report into.
    The uniform grid and every adaptive wave call :meth:`solve`; nothing
    else runs a kernel for the bias loop.
    """

    #: The ladder of :meth:`_heal`: the configured solver (None), the
    #: ``robust`` surface-GF solver, the dense oracle.
    RUNGS = (None, "per-point:robust", "dense-oracle")

    def __init__(self, calc, ik, k, potential_ev, flops, degradation,
                 sentinel):
        self.calc = calc
        self.ik = ik
        self.k = k
        self.potential_ev = potential_ev
        self.flops = flops
        self.degradation = degradation
        self.sentinel = sentinel
        self._rungs: dict = {}
        self.solver = self._rung(None)
        H = self.solver.H
        self.shape = (H.n_blocks, int(H.block_sizes.max()))
        self.rows: dict[float, int | None] = {}
        self._stacks: list = []
        self._n_rows = 0

    def _rung(self, rung):
        """The solver of ladder rung ``rung``, built once per k-point on a
        fresh Hamiltonian (a diagonal add off the read-only skeleton, so
        no rung inherits another's operator).  The calculation's injector
        plants its faults here (:meth:`repro.resilience.FaultInjector.
        plant`), so they reach every rung without rung-specific code."""
        solver = self._rungs.get(rung)
        if solver is None:
            calc = self.calc
            build = {
                None: calc._make_solver,
                "per-point:robust": partial(
                    calc._make_solver, surface_method="robust"
                ),
                "dense-oracle": partial(DenseOracleSolver, eta=calc.eta),
            }[rung]
            H = calc.hamiltonian(self.potential_ev, self.k)
            injector = calc.injector
            solver = self._rungs[rung] = (
                build(H) if injector is None
                else injector.plant(build, H, self.ik)
            )
        return solver

    def solve(self, energies: list, chunks=None) -> None:
        """Solve ``energies`` into :attr:`rows`: dispatch, accept, heal.

        Dispatch through the calculation's backend
        (:meth:`TransportCalculation._run_backend`; ``chunks`` as there)
        and accept the rows of the returned stack its ``finite`` mask
        passes — one memo update and one flop charge for the whole stack.
        Only the rejected rows go one by one down :meth:`_heal` — or
        every energy, when the dispatch raised or tripped a sentinel the
        mask cannot show (an ill-conditioned factor, a residual).
        """
        sentinel, degradation = self.sentinel, self.degradation
        contain = sentinel.enabled and not sentinel.strict
        rejected = energies
        marker = sentinel.marker()
        try:
            stack = self.calc._run_backend(
                self.solver, energies, chunks=chunks
            )
        except DegradationBudgetError:
            raise
        except LADDER_EXCEPTIONS:
            if not contain:
                raise
            degradation.record_ladder("chunk:exception")
        else:
            good = stack.finite
            if contain and sentinel.marker() > marker and any(
                event.kind != "nonfinite"
                for event in sentinel.events_since(marker)
            ):
                # a trip no row's mask shows (ill-conditioning, a
                # residual): every energy is solved again alone, where
                # its own solve decides
                good = np.zeros_like(good)
            if good.all():
                self._store(energies, stack)
                rejected = []
            else:
                nodes = np.array(energies)
                rejected = nodes[~good].tolist()
                if good.any():
                    self._store(nodes[good].tolist(), stack[good])
        if rejected and contain:
            degradation.record_ladder("chunk:per-point")
        for energy in rejected:
            self._store([energy], self._heal(energy))

    def _store(self, energies, stack) -> None:
        """Memo ``stack`` as the rows of ``energies`` (None: quarantined)
        and charge its flops — once per stack, and on WF once per
        distinct open-channel count: every charge is an integer-valued
        float far below 2**53, so the totals equal a per-row charge."""
        if stack is None:
            self.rows.update(dict.fromkeys(energies))
            return
        b = len(stack)
        self.rows.update(zip(energies, range(self._n_rows, self._n_rows + b)))
        self._n_rows += b
        self._stacks.append(stack)
        n, m = self.shape
        self.flops.add("surface_gf", b * 2 * sancho_rubio_flops(m, 25))
        if self.calc.method == "rgf":
            self.flops.add("rgf", b * rgf_solve_flops(n, m))
            return
        channels, counts = np.unique(
            np.maximum(stack.n_channels_left, 1), return_counts=True
        )
        for c, count in zip(channels.tolist(), counts.tolist()):
            self.flops.add("wf", count * wf_solve_flops(n, m, c))

    def stack(self, energies):
        """The accepted rows of ``energies`` (none quarantined) as one
        stack in that order: the k-point's stacks joined once, then one
        gather unless the rows already are in order."""
        if len(self._stacks) > 1:
            # the fields every kernel and the oracle rung share
            self._stacks = [RGFResult.concatenate(self._stacks)]
        joined = self._stacks[0]
        rows = [self.rows[e] for e in energies]
        if rows == list(range(len(joined))):
            return joined
        return joined[np.array(rows)]

    def _heal(self, e):
        """Solve one energy down the graceful-degradation ladder.

        Rungs (:attr:`RUNGS`, solvers of :meth:`_rung`): the configured
        solver -> the ``robust`` surface-GF solver on a fresh Hamiltonian
        -> the dense oracle -> quarantine (returns None).  Every rung
        solves ``e`` as a stack of one through :func:`solve_energies`, so
        a healed point is bit-identical to the same point solved inside a
        clean stack.  A rung's answer stands when its ``finite`` mask
        passes — on the first rung only when its solve also tripped no
        sentinel.  Strict mode and a sentinel that is off take the first
        rung only and let every error propagate.
        """
        sentinel = self.sentinel
        climb = sentinel.enabled and not sentinel.strict
        for rung in self.RUNGS if climb else self.RUNGS[:1]:
            if rung is not None:
                self.degradation.record_ladder(rung)
            try:
                marker = sentinel.marker()
                res = solve_energies(self._rung(rung), [e])
                bad = not res.finite[0] or (
                    rung is None and sentinel.trips_since(marker)
                )
                if not (climb and bad):
                    return res
            except DegradationBudgetError:
                raise
            except LADDER_EXCEPTIONS:
                if not climb:
                    raise
        self.degradation.quarantine(self.ik, e)
        return None

    def surviving(self, grid):
        """``(grid, stack)`` of this k-point without its quarantined nodes.

        Dropped nodes are checked against the calculation's
        :class:`~repro.resilience.DegradationBudget` and the trapezoid
        weights rebuilt on the survivors; ``stack`` holds their rows in
        grid order (:meth:`stack`).
        """
        energies = grid.energies.tolist()
        kept = [e for e in energies if self.rows[e] is not None]
        if len(kept) < len(energies):
            self.calc.degradation_budget.check(
                len(energies) - len(kept), len(energies),
                context=f"k-point {self.ik}",
            )
            pts = np.asarray(kept)
            grid = EnergyGrid(pts, trapezoid_weights(pts))
            self.degradation.reweighted_grids += 1
            self.degradation.record_ladder("quadrature:reweight")
        return grid, self.stack(kept)


#: Byte budget of one stacked kernel stage: the tracemalloc peak of an RGF
#: or WF ``kernel_stage`` at :func:`stack_length` energies.  Long stacks
#: amortise the interpreter, and pool workers keep what a stack frees for
#: the next one (:mod:`repro.parallel.backend`); docs/PARALLELISM.md has
#: the measurements behind the number.
STACK_BUDGET_BYTES = 14 << 20

#: Measured stage peak per energy, in slab-sets (``n_blocks`` complex128
#: ``(m, m)`` blocks): the inverse Schur complements plus one column of G
#: or the factor's input — 2.21 on the wide e2e device (m = 25, 48 slabs),
#: rounded up.
STAGE_SLAB_SETS = 2.25


def stack_length(n_blocks: int, block_size: int) -> int:
    """Energies per stacked kernel call for a device of this shape.

    The longest stack whose measured stage peak, :data:`STAGE_SLAB_SETS`
    slab-sets of ``n_blocks`` complex128 ``(m, m)`` blocks per energy,
    stays within :data:`STACK_BUDGET_BYTES` (at least one).
    """
    per_energy = STAGE_SLAB_SETS * int(n_blocks) * int(block_size) ** 2 * 16
    return max(1, int(STACK_BUDGET_BYTES // per_energy))


def solve_energies(solver, energies):
    """Solve ``energies`` on ``solver``: *the* energy-sweep execution.

    Every dispatch — serial grid, backend chunk, adaptive wave,
    distributed rank, and the single-point rungs of the degradation
    ladder and retry loops as a stack of one — lands here and runs the
    stacked kernel (``solve_batch``) in ``ceil(n / L)`` sub-stacks of at
    most L = :func:`stack_length` energies whose lengths differ by at
    most one (65 energies at L = 13 are 5 x 13, not 4 x 16 + 1), joined
    into the one result stack returned (one ``concatenate`` per field).
    Stacked results are per-slice independent of the stack they ride in,
    so the split changes memory, never a bit of the answer.  In the
    parent the loop heartbeats once per sub-stack so a long serial
    k-point still moves ``repro top``.
    """
    heartbeat = not in_worker()
    H = solver.H
    n = len(energies)
    parts = -(-n // stack_length(H.n_blocks, H.block_sizes.max()))
    bounds = [n * i // parts for i in range(parts + 1)]
    events = get_events()
    stacks = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        stacks.append(solver.solve_batch(energies[lo:hi]))
        if heartbeat:
            events.maybe_heartbeat(stage="energy-stack", solved=hi, of=n)
    return type(stacks[0]).concatenate(stacks)


def _solve_chunk(payload):
    """Worker body for the execution backends: solve one energy chunk.

    Module-level (not a closure) so ProcessPoolExecutor can pickle it;
    the payload ``(solver, energies, capture)`` carries the (picklable)
    solver rather than the full calculation object — a planted solver
    (:class:`repro.resilience.faults.PlantedSolver`) carries its fault
    injector with it — and the telemetry ``capture`` flag.  With
    ``capture`` the chunk runs under
    :func:`~repro.observability.telemetry.capture_telemetry` — the
    instrumented kernels trace into a worker-local tracer/registry and
    the return value becomes a ``(stack, delta)`` envelope the parent
    merges back.  The capture only engages inside a real worker process;
    the parent-side executions of the same payload (single-chunk
    shortcut, straggler recompute after a pool restart) record into the
    live instruments directly and ship ``delta=None``.
    """
    solver, energies, capture = payload
    if not capture:
        return solve_energies(solver, energies)
    with capture_telemetry() as cap:
        if cap.engaged:
            with trace_span(
                "chunk", category="task", n_energies=len(energies),
            ):
                stack = solve_energies(solver, energies)
        else:
            stack = solve_energies(solver, energies)
    return stack, cap.delta
