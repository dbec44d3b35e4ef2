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

import multiprocessing
import pickle
import threading
from dataclasses import dataclass

import numpy as np

from ..errors import DegradationBudgetError
from ..negf.observables import carrier_density, landauer_current, orbital_to_atom
from ..negf.rgf import RGFSolver
from ..observability.metrics import get_metrics
from ..observability.telemetry import (
    capture_telemetry,
    get_events,
    merge_delta,
)
from ..observability.tracer import get_tracer, trace_span
from ..parallel.backend import get_backend
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
    corrupt_hamiltonian,
    dense_oracle_solve,
)
from ..resilience.faults import nan_like, result_non_finite
from ..resilience.health import get_sentinel
from ..tb.bands import lead_conduction_minimum
from ..wf.qtbm import WFSolver
from .device import BuiltDevice

__all__ = [
    "STACK_BUDGET_BYTES",
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
    surface_method : {"sancho", "eigen", "robust"}
        Contact surface-GF algorithm.
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
        Bisection-depth cap of the adaptive mode.  The finest reachable
        interval is the seed spacing divided by ``2**adaptive_max_passes``;
        raise it when chasing resonances much narrower than the seed grid.
    backend : str, ExecutionBackend or None
        Local execution backend for the energy grid of each k-point:
        "serial" (default), "thread" or "process".  None reads
        ``$REPRO_BACKEND`` (default serial).  Every backend runs the
        same stacked kernels (:func:`solve_energies`) and is
        bit-identical to the others.
    workers : int or None
        Worker count for the pooled backends (None: ``$REPRO_WORKERS``).
    injector : repro.resilience.FaultInjector or None
        Numerical-fault injection for chaos campaigns: site ``"hblock"``
        corrupts the per-k Hamiltonian (NaN / ill-conditioning), site
        ``"energy"`` poisons individual energy-point solves, site
        ``"worker"`` fires inside backend workers.
    degradation_budget : DegradationBudget or None
        Bound on quarantined quadrature per k-grid (None = defaults).
    """

    def __init__(
        self,
        built: BuiltDevice,
        method: str = "wf",
        n_energy: int = 81,
        eta: float = 1e-6,
        surface_method: str = "sancho",
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
        self.surface_method = surface_method
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

    def _make_solver(self, H, surface_method: str | None = None):
        method = surface_method or self.surface_method
        solver = RGFSolver if self.method == "rgf" else WFSolver
        return solver(H, eta=self.eta, surface_method=method)

    def _charge_flops(self, counter: FlopCounter, shape, n_channels: int) -> None:
        """Charge one (k, E) solve on a device of ``shape`` = (slabs, widest)."""
        n, m = shape
        counter.add("surface_gf", 2 * sancho_rubio_flops(m, 25))
        if self.method == "rgf":
            counter.add("rgf", rgf_solve_flops(n, m))
        else:
            counter.add("wf", wf_solve_flops(n, m, max(n_channels, 1)))

    def _integrate(self, grid, results, mu_s, mu_d, kT):
        """Reduce stacked kernel results over ``grid``: *the* quadrature.

        One :func:`~repro.negf.carrier_density` and one
        :func:`~repro.negf.landauer_current` over ``results[i]`` at
        ``grid.energies[i]``, for a whole k-grid (the bias loop) or a
        rank's share of one (the weights of the common grid make shares
        additive).  Returns ``(current_a, density_per_atom, transmission,
        channels)`` of this k-point, *before* the momentum weight.
        """
        t = np.array([res.transmission for res in results], dtype=float)
        channels = np.array(
            [res.n_channels_left for res in results], dtype=int
        )
        n_orbital = carrier_density(
            grid,
            np.array([res.spectral_left for res in results]),
            np.array([res.spectral_right for res in results]),
            mu_s, mu_d, kT, spin_degeneracy=self.spin_degeneracy,
        )
        current = landauer_current(
            grid, t, mu_s, mu_d, kT, spin_degeneracy=self.spin_degeneracy
        )
        density = orbital_to_atom(
            n_orbital, self.built.material.orbitals_per_atom
        )
        return current, density, t, channels

    def _effective_backend(self):
        """Backend actually used for chunk dispatch.

        Tracer spans and metrics recorded inside process-pool children
        are captured per chunk and merged back into the parent with
        worker provenance (see :mod:`repro.observability.telemetry`), so
        measuring no longer forfeits the dispatch speedup.  The one
        remaining exception is a live :class:`InvariantMonitor`: its
        violation ledger and strict-raise semantics are parent-side
        object state that cannot be reconstructed from a child's
        snapshot, so monitored runs still solve chunks in-process —
        physics-invariant exactness outranks the speedup.
        """
        backend = self.backend
        if backend.name == "process":
            from ..observability.invariants import get_monitor

            if get_monitor().enabled:
                from ..parallel.backend import SerialBackend

                backend = SerialBackend()
        return backend

    def _run_backend(self, solver, energies: list, chunks=None):
        """Solve ``energies`` through the configured execution backend.

        The grid is split into one contiguous chunk per worker (all in
        one chunk for the serial backend) and each chunk is solved by
        :func:`_solve_chunk` in memory-bounded stacked ``solve_batch``
        calls (:func:`solve_energies`), then reassembled in grid order.
        Stacked results do not depend on how the grid is split, so every
        backend and worker count is bit-identical.

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
        if not energies:
            return []
        backend = self._effective_backend()
        if chunks is None:
            n_chunks = 1 if backend.name == "serial" else backend.workers
            chunks = split_chunks(len(energies), n_chunks)
        metrics = get_metrics()
        pooled = backend.name == "process"
        capture = pooled and (get_tracer().enabled or metrics.enabled)
        payloads = [
            (
                solver,
                [energies[i] for i in chunk],
                self.injector,
                chunk_id,
                capture,
            )
            for chunk_id, chunk in enumerate(chunks)
        ]
        if pooled and metrics.enabled:
            for payload in payloads:
                metrics.observe(
                    "ipc.task_bytes", float(len(pickle.dumps(payload))),
                    path="pickled",
                )
        events = get_events()
        out: list = []
        for chunk_id, chunk_results in enumerate(
            backend.map(_solve_chunk, payloads)
        ):
            if capture:
                chunk_results, delta = chunk_results
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
                    n_points=len(chunk_results), path="pickled",
                )
            out.extend(chunk_results)
        return out

    # -- adaptive energy waves -----------------------------------------

    def _solve_adaptive(self, kp, grid, mu_s, mu_d, kT):
        """Wave-scheduled adaptive energy quadrature for one k-point.

        Refinement is driven parent-side by the
        :class:`~repro.physics.grids.AdaptiveEnergyGrid` wave engine:
        each wave's unsolved nodes go through the k-point's node solver
        ``kp`` (per-point below ``min_chunk * workers`` nodes, contiguous
        chunks above — :func:`repro.parallel.wave_chunks`), the refinement
        indicator ``[T*(fL-fR), log1p(spectral-density / wave-0 max)]`` is
        computed over the wave from the returned float64 results, and the
        next wave of bisection midpoints is emitted until tolerance, the
        node budget or the pass cap.  Every split decision is made in the
        parent from bitwise round-tripped results, so the node set — and
        therefore the whole solve — is bit-identical across
        serial/thread/process.

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
            fresh = [e for e in wave if e not in kp.results]
            if fresh:
                kp.solve(fresh, chunks=wave_chunks(len(fresh), n_workers))
            n_solved += len(fresh)
            solved = [e for e in wave if kp.results[e] is not None]
            sampled = np.array(
                [
                    (r.transmission, r.spectral_left.sum(),
                     r.spectral_right.sum())
                    for r in map(kp.results.get, solved)
                ],
                dtype=float,
            ).reshape(-1, 3)
            fl = fermi_dirac(solved, mu_s, kT)
            fr = fermi_dirac(solved, mu_d, kT)
            t_term = sampled[:, 0] * (fl - fr)
            s_term = sampled[:, 1] * fl + sampled[:, 2] * fr
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
            k_grid, results = kp.surviving(k_grid)
            current_k, density_k, t_k, channels_k = self._integrate(
                k_grid, results, mu_s, mu_d, kT
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

    Holds what the nodes of one k-point share — the Hamiltonian (with the
    one ``"hblock"`` fault-injection site applied), the configured solver,
    the device shape the flop model charges and ``results``, the
    ``{energy: kernel result | None}`` memo (``None`` = quarantined) — and
    the accounts of the bias solve they report into.  The uniform grid
    and every adaptive wave call :meth:`solve`; nothing else runs a kernel
    for the bias loop.
    """

    def __init__(self, calc, ik, k, potential_ev, flops, degradation,
                 sentinel):
        self.calc = calc
        self.ik = ik
        self.k = k
        self.potential_ev = potential_ev
        self.flops = flops
        self.degradation = degradation
        self.sentinel = sentinel
        H = calc.hamiltonian(potential_ev, k)
        injector = calc.injector
        mode = injector.fire("hblock", ik) if injector is not None else None
        if mode in ("nan", "illcond"):
            H = corrupt_hamiltonian(H, mode)
        # a known-corrupted H — or an injector aimed at the energy site,
        # which fires in the parent's ladder and would never be injected
        # into a worker's clean chunk — pins the k-point to the in-process
        # per-point ladder: a process pool's sentinel trips stay in the
        # children, where the parent cannot heal them
        self.pinned = mode in ("nan", "illcond") or (
            injector is not None and injector.targets("energy")
        )
        self.solver = calc._make_solver(H)
        self.shape = (H.n_blocks, int(H.block_sizes.max()))
        self.results: dict[float, object] = {}

    def solve(self, energies: list, chunks=None) -> None:
        """Solve ``energies`` into :attr:`results`: dispatch, accept, heal.

        Dispatch through the calculation's backend
        (:meth:`TransportCalculation._run_backend`; ``chunks`` as there),
        accept every finite result and charge its flops, then take what
        the chunked path could not deliver cleanly — or everything, when
        the k-point is pinned — point by point down :meth:`_heal`.
        """
        sentinel, degradation = self.sentinel, self.degradation
        contain = sentinel.enabled and not sentinel.strict
        delivered = []
        if not self.pinned:
            try:
                delivered = self.calc._run_backend(
                    self.solver, energies, chunks=chunks
                )
            except DegradationBudgetError:
                raise
            except LADDER_EXCEPTIONS:
                if not contain:
                    raise
                degradation.record_ladder("chunk:exception")
        for energy, res in zip(energies, delivered):
            if res is not None and not result_non_finite(res):
                self._accept(energy, res)
        leftover = [e for e in energies if e not in self.results]
        if leftover and contain and not self.pinned:
            degradation.record_ladder("chunk:per-point")
        for energy in leftover:
            self._accept(energy, self._heal(energy))

    def _accept(self, energy, res) -> None:
        self.results[energy] = res
        if res is not None:
            self.calc._charge_flops(
                self.flops, self.shape, res.n_channels_left
            )

    def _heal(self, e):
        """Solve one energy down the graceful-degradation ladder.

        Rungs: the configured solver -> a fresh Hamiltonian (new diagonal
        blocks off the read-only skeleton, which clears transient operator
        corruption) with the ``robust`` surface ladder -> the dense-oracle
        reference solve -> quarantine (returns None).  Strict mode, and a
        run with neither sentinel nor injector, take the first rung only
        and let every error propagate.  Every solver rung is a stack of
        one through :func:`solve_energies`, so a healed point is
        bit-identical to the same point solved inside a clean stack.  The
        ``"energy"`` fault site fires once per rung, so a persistent
        (``once=False``) fault climbs the whole ladder.
        """
        calc, sentinel = self.calc, self.sentinel
        injector = calc.injector
        guarded = sentinel.enabled or injector is not None
        climb = guarded and not sentinel.strict
        rungs = (None, "per-point:robust", "dense-oracle")
        for rung in rungs if climb else rungs[:1]:
            if rung is not None:
                self.degradation.record_ladder(rung)
            try:
                marker = sentinel.marker()
                mode = (
                    injector.fire("energy", (self.ik, e))
                    if injector is not None else None
                )
                if rung is None:
                    res = solve_energies(self.solver, [e])[0]
                else:
                    H = calc.hamiltonian(self.potential_ev, self.k)
                    if mode in ("nan", "illcond"):
                        H = corrupt_hamiltonian(H, mode)
                    if rung == "dense-oracle":
                        res = dense_oracle_solve(H, e, eta=calc.eta)
                    else:
                        robust = calc._make_solver(H, surface_method="robust")
                        res = solve_energies(robust, [e])[0]
                if mode == "nan":
                    res = nan_like(res)
                bad = guarded and result_non_finite(res)
                if rung is None:
                    if bad:
                        sentinel.trip(
                            "energy", "nonfinite",
                            detail=f"E={e:.6g} (ik={self.ik})",
                        )  # strict: raises NumericalBreakdownError
                    # a finite answer still climbs when its solve tripped
                    bad = bad or (climb and sentinel.trips_since(marker))
                if not (bad and climb):
                    return res
            except DegradationBudgetError:
                raise
            except LADDER_EXCEPTIONS:
                if not climb:
                    raise
        self.degradation.quarantine(self.ik, e)
        return None

    def surviving(self, grid):
        """``(grid, results)`` of this k-point without its quarantined nodes.

        Dropped nodes are checked against the calculation's
        :class:`~repro.resilience.DegradationBudget` and the trapezoid
        weights rebuilt on the survivors.
        """
        energies = grid.energies.tolist()
        kept = [e for e in energies if self.results.get(e) is not None]
        if len(kept) < len(energies):
            self.calc.degradation_budget.check(
                len(energies) - len(kept), len(energies),
                context=f"k-point {self.ik}",
            )
            pts = np.asarray(kept)
            grid = EnergyGrid(pts, trapezoid_weights(pts))
            self.degradation.reweighted_grids += 1
            self.degradation.record_ladder("quadrature:reweight")
        return grid, [self.results[e] for e in kept]


def _in_worker() -> bool:
    """True when executing inside a backend worker (thread or process).

    The "worker" fault site must fire only in workers: the parent-side
    speculative re-execution of a straggler runs the same function and
    has to stay clean for the recovery to actually recover.
    """
    if multiprocessing.parent_process() is not None:
        return True
    return threading.current_thread().name.startswith("repro-worker")


#: Byte budget of one stacked ``(E, m, m)``-per-block work array of the
#: block LU.  Long stacks amortise the interpreter at small blocks; at
#: m=25 the kernels are LAPACK-bound after a few slices and a longer stack
#: only inflates the resident set (measured in docs/PARALLELISM.md).
STACK_BUDGET_BYTES = 2 << 20


def stack_length(n_blocks: int, block_size: int) -> int:
    """Energies per stacked kernel call for a device of this shape.

    The longest stack whose ``n_blocks`` complex128 ``(E, m, m)`` block
    arrays stay within :data:`STACK_BUDGET_BYTES` (at least one).
    """
    per_energy = int(n_blocks) * int(block_size) ** 2 * 16
    return max(1, STACK_BUDGET_BYTES // per_energy)


def solve_energies(solver, energies, injector=None, chunk_id=0) -> list:
    """Solve ``energies`` on ``solver``: *the* energy-sweep execution.

    Every dispatch — serial grid, backend chunk, adaptive wave,
    distributed rank, and the single-point rungs of the degradation
    ladder and retry loops as a stack of one — lands here and runs the
    stacked kernel (``solve_batch``) in sub-stacks of :func:`stack_length`
    energies.  Stacked results are per-slice
    independent of the stack they ride in, so the split changes memory,
    never a bit of the answer.

    ``injector``/``chunk_id`` are the chaos-campaign ``"worker"`` fault
    site of the chunk payloads.  In the parent the loop heartbeats once
    per sub-stack so a long serial k-point still moves ``repro top``.
    """
    in_worker = _in_worker()
    mode = None
    if injector is not None and in_worker:
        mode = injector.fire("worker", chunk_id)
    H = solver.H
    step = stack_length(H.n_blocks, H.block_sizes.max())
    events = get_events()
    results: list = []
    for lo in range(0, len(energies), step):
        results.extend(solver.solve_batch(energies[lo:lo + step]))
        if not in_worker:
            events.maybe_heartbeat(
                stage="energy-stack", solved=len(results), of=len(energies)
            )
    if mode == "nan":
        results = [nan_like(r) for r in results]
    return results


def _solve_chunk(payload):
    """Worker body for the execution backends: solve one energy chunk.

    Module-level (not a closure) so ProcessPoolExecutor can pickle it;
    the payload ``(solver, energies, injector, chunk_id, capture)``
    carries the (picklable) solver rather than the full calculation
    object, the :class:`repro.resilience.FaultInjector` whose
    ``"worker"`` site fires here, the chunk id keying it, and the
    telemetry ``capture`` flag.  With ``capture`` the chunk runs under
    :func:`~repro.observability.telemetry.capture_telemetry` — the
    instrumented kernels trace into a worker-local tracer/registry and
    the return value becomes a ``(results, delta)`` envelope the parent
    merges back.  The capture only engages inside a real worker process;
    the parent-side executions of the same payload (single-chunk
    shortcut, speculative straggler recompute, pool-restart salvage)
    record into the live instruments directly and ship ``delta=None``.
    """
    solver, energies, injector, chunk_id, capture = payload
    if not capture:
        return solve_energies(solver, energies, injector, chunk_id)
    with capture_telemetry() as cap:
        if cap.engaged:
            with trace_span(
                "chunk", category="task",
                chunk=chunk_id, n_energies=len(energies),
            ):
                results = solve_energies(
                    solver, energies, injector, chunk_id
                )
        else:
            results = solve_energies(solver, energies, injector, chunk_id)
    return results, cap.delta
