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
from ..parallel.backend import SelfEnergyCache, get_backend
from ..solvers.precision import precision_from_env, resolve_precision
from ..parallel.scheduler import split_chunks, wave_chunks
from ..perf.flops import (
    FlopCounter,
    rgf_solve_flops,
    sancho_rubio_flops,
    wf_solve_flops,
)
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
        :meth:`_solve_bias`).  None reads ``$REPRO_ADAPTIVE`` (default
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
    sigma_cache : SelfEnergyCache, True or None
        Shared contact self-energy cache (True builds a fresh one).
        Hits skip the Sancho-Rubio decimation entirely — and therefore
        its *measured* flops — so the default is off to keep existing
        measured-flop baselines untouched.  The cache is invalidated
        whenever ``solve_bias`` sees a changed potential.
    injector : repro.resilience.FaultInjector or None
        Numerical-fault injection for chaos campaigns: site ``"hblock"``
        corrupts the per-k Hamiltonian (NaN / ill-conditioning), site
        ``"energy"`` poisons individual energy-point solves, site
        ``"worker"`` fires inside backend workers.
    degradation_budget : DegradationBudget or None
        Bound on quarantined quadrature per k-grid (None = defaults).
    precision : {"fp64", "mixed", "fp32"} or None
        Numeric execution mode of the transport kernel (RGF only).
        ``"fp64"`` is the historical bit-identical complex128 path.
        ``"mixed"`` factors in complex64 and certifies every energy with
        double-precision iterative refinement to the backward-error
        target; uncertifiable energies escalate to a full-FP64 re-solve
        (bit-identical to a pure-FP64 run) before the degradation ladder
        is consulted.  ``"fp32"`` is pure complex64 screening at a
        loose tolerance.  None reads ``$REPRO_PRECISION`` (default fp64).
    refine_faults : iterable of float or None
        Chaos-campaign hook: mixed-mode energies in this set are treated
        as deterministic refinement stalls (escalated with
        ``injected=True``), exercising the FP64 escalation path without
        perturbing any operator.
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
        sigma_cache=None,
        injector=None,
        degradation_budget=None,
        precision=None,
        refine_faults=None,
    ):
        if method not in ("wf", "rgf"):
            raise ValueError("method must be 'wf' or 'rgf'")
        if precision is None:
            # $REPRO_PRECISION is a preference, not a command: a WF
            # calculation under a fleet-wide mixed-precision default
            # quietly keeps its FP64 kernels
            self.precision = precision_from_env() if method == "rgf" else "fp64"
        else:
            self.precision = resolve_precision(precision)
            if self.precision != "fp64" and method != "rgf":
                raise ValueError(
                    f"precision={self.precision!r} requires method='rgf' "
                    "(the WF kernel's sparse/banded factorisations gain "
                    "nothing from complex64)"
                )
        self.refine_faults = (
            tuple(sorted(float(e) for e in refine_faults))
            if refine_faults else ()
        )
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
        if sigma_cache is True:
            sigma_cache = SelfEnergyCache()
        self.sigma_cache = sigma_cache
        self.injector = injector
        self.degradation_budget = degradation_budget or DegradationBudget()
        self._potential_fingerprint: bytes | None = None

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

    def _make_solver(self, H, surface_method: str | None = None,
                     precision: str | None = None):
        method = surface_method or self.surface_method
        if self.method == "rgf":
            return RGFSolver(
                H, eta=self.eta, surface_method=method,
                sigma_cache=self.sigma_cache,
                precision=precision or self.precision,
                refine_faults=self.refine_faults or None,
            )
        return WFSolver(
            H, eta=self.eta, surface_method=method,
            sigma_cache=self.sigma_cache,
        )

    def _charge_flops(self, counter: FlopCounter, shape, n_channels: int) -> None:
        """Charge one (k, E) solve on a device of ``shape`` = (slabs, widest)."""
        n, m = shape
        counter.add("surface_gf", 2 * sancho_rubio_flops(m, 25))
        if self.method == "rgf":
            counter.add("rgf", rgf_solve_flops(n, m))
        else:
            counter.add("wf", wf_solve_flops(n, m, max(n_channels, 1)))

    # -- degradation ladder --------------------------------------------

    def _resilient_point(
        self, ik, k, potential_ev, solver, e, degradation, sentinel
    ):
        """Solve one energy point down the graceful-degradation ladder.

        Rungs (contain mode): plain solve -> per-point fresh Hamiltonian
        (:meth:`hamiltonian`: new blocks, shared read-only geometry) with
        the ``robust`` surface ladder -> dense-oracle reference solve ->
        quarantine (returns None).  Strict mode takes the plain solve and
        lets every error propagate.  Every solver rung is a stack of one
        through :func:`solve_energies`, so a healed point is bit-identical
        to the same point solved inside a clean stack.

        Mixed-precision escalation sits *before* the ladder: the solver's
        ``solve_batch_escalating`` re-solves an uncertified energy on its
        FP64 twin (bit-identical to a pure-FP64 run), and only a failure
        of that full-precision solve climbs the rungs.
        """
        injector = self.injector

        def fire():
            # the "energy" site models per-point numerical faults; fired
            # at every rung so persistent (once=False) faults climb the
            # whole ladder and reach quarantine
            if injector is None:
                return None
            return injector.fire("energy", (ik, float(e)))

        def point_solve(e, solver=solver):
            return solve_energies(solver, [e])[0]

        if not sentinel.enabled and injector is None:
            return point_solve(e)

        if sentinel.strict:
            mode = fire()
            res = point_solve(e)
            if mode == "nan":
                res = nan_like(res)
            if result_non_finite(res):
                sentinel.trip(
                    "energy", "nonfinite",
                    detail=f"E={e:.6g} (ik={ik})",
                )  # strict: raises NumericalBreakdownError
            return res

        # rung 1: the configured solver as-is
        try:
            marker = sentinel.marker()
            mode = fire()
            res = point_solve(e)
            if mode == "nan":
                res = nan_like(res)
            bad = result_non_finite(res)
            if not bad and not sentinel.trips_since(marker):
                return res
            if bad:
                sentinel.trip(
                    "energy", "nonfinite", detail=f"E={e:.6g} (ik={ik})"
                )
        except DegradationBudgetError:
            raise
        except LADDER_EXCEPTIONS:
            pass

        # rung 2: a fresh Hamiltonian (new diagonal blocks off the
        # read-only skeleton: clears transient operator corruption; the
        # geometry-only upper blocks are shared and cannot be written) and
        # the robust surface-GF ladder
        degradation.record_ladder("per-point:robust")
        try:
            mode = fire()
            H2 = self.hamiltonian(potential_ev, k)
            if mode in ("nan", "illcond"):
                H2 = corrupt_hamiltonian(H2, mode)
            # keep the calculation's precision: the healed solve must be
            # bit-identical to the clean one, and mixed mode carries its
            # own FP64 condition-gate escalation
            robust = self._make_solver(H2, surface_method="robust")
            res = point_solve(e, robust)
            if mode == "nan":
                res = nan_like(res)
            if not result_non_finite(res):
                return res
        except DegradationBudgetError:
            raise
        except LADDER_EXCEPTIONS:
            pass

        # rung 3: dense oracle — slow, numerically bulletproof
        degradation.record_ladder("dense-oracle")
        try:
            mode = fire()
            H3 = self.hamiltonian(potential_ev, k)
            if mode in ("nan", "illcond"):
                H3 = corrupt_hamiltonian(H3, mode)
            res = dense_oracle_solve(H3, e, eta=self.eta)
            if mode == "nan":
                res = nan_like(res)
            if not result_non_finite(res):
                return res
        except DegradationBudgetError:
            raise
        except LADDER_EXCEPTIONS:
            pass

        # ladder exhausted: quarantine the energy node
        degradation.quarantine(ik, e)
        return None

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

    def _solve_adaptive(self, ik, grid, solve_nodes, cache,
                        mu_s, mu_d, kT, degradation):
        """Wave-scheduled adaptive energy quadrature for one k-point.

        Refinement is driven parent-side by the
        :class:`~repro.physics.grids.AdaptiveEnergyGrid` wave engine:
        each wave's unsolved nodes are dispatched through the configured
        execution backend (per-point below ``min_chunk * workers``
        nodes, contiguous chunks above —
        :func:`repro.parallel.wave_chunks`), the refinement indicator
        ``[T*(fL-fR), log1p(spectral-density / wave-0 max)]`` is computed from
        the returned float64 results, and the next wave of bisection
        midpoints is emitted until tolerance, the node budget or the
        pass cap.  Every split decision is made in the parent from
        bitwise round-tripped results, so the node set — and therefore
        the whole solve — is bit-identical across serial/thread/process.

        Quarantined nodes are recorded as ``None`` — the refiner retires
        their intervals instead of pinning refinement on an unsolvable
        point — and are charged against the degradation budget here,
        since they never appear in the returned grid.

        Progress flows out as one ``wave_done`` event and one
        ``adaptive.*`` metrics update per wave (all parent-side, hence
        exactly equal on every backend).  Returns ``(grid, stats)``
        where ``stats`` feeds :attr:`TransportResult.adaptive`.
        """
        from ..physics.fermi import fermi_dirac

        scale = max(self.built.n_atoms * 0.1, 1.0)
        n_initial = max(self.n_energy // 2, 9)
        refiner = AdaptiveEnergyGrid(
            float(grid.energies.min()),
            float(grid.energies.max()),
            n_initial=n_initial,
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
        spec_scale = None
        wave = refiner.first_wave()
        while wave:
            n_waves += 1
            fresh = [e for e in wave if e not in cache]
            if fresh:
                solve_nodes(
                    fresh, chunks=wave_chunks(len(fresh), n_workers)
                )
            n_solved += len(fresh)
            pairs = []
            for energy in wave:
                res = cache.get(energy)
                if res is None:
                    pairs.append((energy, None, 0.0))
                    continue
                fl = float(fermi_dirac(energy, mu_s, kT))
                fr = float(fermi_dirac(energy, mu_d, kT))
                pairs.append((
                    energy,
                    float(res.transmission) * (fl - fr),
                    float(res.spectral_left.sum()) * fl
                    + float(res.spectral_right.sum()) * fr,
                ))
            if spec_scale is None:
                # normalize the spectral component by its wave-0
                # magnitude so both indicator components are O(1);
                # computed from round-tripped float64 results, hence
                # identical on every backend
                spec_scale = max(
                    [abs(s) for _, t, s in pairs if t is not None],
                    default=0.0,
                )
                spec_scale = max(spec_scale, scale)
            for energy, t_term, s_term in pairs:
                if t_term is None:
                    refiner.record(energy, None)
                else:
                    # log-compress the spectral component: quasi-bound
                    # peaks tower orders of magnitude over the lead
                    # background, and resolving them to *absolute*
                    # tolerance would consume the whole node budget;
                    # log1p bounds their *relative* interpolation error
                    # at the same tol as the current integrand
                    refiner.record(energy, np.array(
                        [t_term, np.log1p(s_term / spec_scale)]
                    ))
            wave = refiner.next_wave()
            if metrics.enabled:
                metrics.inc("adaptive.waves", 1.0)
                if fresh:
                    metrics.inc(
                        "adaptive.nodes_added", float(len(fresh))
                    )
                if np.isfinite(refiner.est_error):
                    metrics.gauge(
                        "adaptive.est_error",
                        float(refiner.est_error),
                    )
            if events.enabled:
                events.emit(
                    "wave_done",
                    k=ik,
                    wave=n_waves - 1,
                    n_new=len(fresh),
                    n_nodes=refiner.n_nodes,
                    est_error=(
                        float(refiner.est_error)
                        if np.isfinite(refiner.est_error) else None
                    ),
                )

        # quarantined nodes already left the refiner's grid; account
        # them against the quadrature budget and the degradation report
        # here (the generic reweighting block never sees them)
        if refiner.n_excluded:
            self.degradation_budget.check(
                refiner.n_excluded,
                refiner.n_excluded + refiner.n_nodes,
                context=f"k-point {ik} adaptive",
            )
            degradation.reweighted_grids += 1
            degradation.record_ladder("quadrature:reweight")
        saved = max(len(grid) - n_solved, 0)
        if metrics.enabled and saved:
            metrics.inc("adaptive.nodes_saved_vs_uniform", float(saved))
        stats = {
            "waves": n_waves,
            "nodes": refiner.n_nodes,
            "solved": n_solved,
            "saved_vs_uniform": saved,
            "excluded": refiner.n_excluded,
            "est_error": (
                float(refiner.est_error)
                if np.isfinite(refiner.est_error) else 0.0
            ),
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
        if self.sigma_cache is not None:
            fp = np.ascontiguousarray(potential_ev).tobytes()
            if (
                self._potential_fingerprint is not None
                and fp != self._potential_fingerprint
            ):
                # entries keyed by the old lead blocks can never be hit
                # again; drop them so the cache only holds live keys
                self.sigma_cache.invalidate("potential-update")
            self._potential_fingerprint = fp
        built = self.built
        kT = built.spec.kT
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", v_drain)
        grid = energy_grid or self.energy_grid(potential_ev, v_drain)
        kgrid = built.momentum_grid
        n_e = len(grid)
        n_k = len(kgrid)

        flops = FlopCounter()
        n_orb = built.material.orbitals_per_atom
        density = np.zeros(built.n_atoms)
        per_k_grids: list[EnergyGrid] = []
        per_k_T: list[np.ndarray] = []
        per_k_channels: list[np.ndarray] = []
        currents = 0.0

        # energy-site faults fire inside _resilient_point, i.e. in the
        # parent's per-point degradation ladder — chunked dispatch would
        # solve those points cleanly in workers and the configured fault
        # would never be injected, so such solves go point by point
        energy_faults = (
            self.injector is not None and self.injector.targets("energy")
        )

        adaptive_info = None
        if self.energy_mode == "adaptive" and energy_grid is None:
            adaptive_info = {
                "waves": 0,
                "nodes": 0,
                "solved": 0,
                "saved_vs_uniform": 0,
                "excluded": 0,
                "est_error": 0.0,
                "budget_hits": 0,
            }

        for ik, (k, wk) in enumerate(zip(kgrid.k_points, kgrid.weights)):
            get_events().maybe_heartbeat(stage=f"k-point {ik + 1}/{n_k}")
            H = self.hamiltonian(potential_ev, k)
            h_suspect = False
            if self.injector is not None:
                mode = self.injector.fire("hblock", ik)
                if mode in ("nan", "illcond"):
                    H = corrupt_hamiltonian(H, mode)
                    h_suspect = True
            solver = self._make_solver(H)
            shape = (H.n_blocks, int(H.block_sizes.max()))
            # a known-corrupted H — or an injector aimed at the energy
            # site — must go through the in-process per-point ladder: a
            # process pool's sentinel trips stay in the children, where
            # the parent cannot heal them
            per_point = h_suspect or energy_faults
            cache: dict[float, object] = {}

            def sample(energy: float):
                e = float(energy)
                if e not in cache:
                    res = self._resilient_point(
                        ik, k, potential_ev, solver, e, degradation, sentinel
                    )
                    cache[e] = res
                    if res is not None:
                        self._charge_flops(flops, shape, res.n_channels_left)
                return cache[e]

            def solve_nodes(fresh, chunks=None):
                # dispatch fresh nodes through the backend; anything the
                # chunked path could not deliver cleanly — or everything,
                # when the k-point is pinned to the in-process ladder —
                # is solved point-by-point down the degradation ladder
                chunk_results = None
                try:
                    if not per_point:
                        chunk_results = self._run_backend(
                            solver, fresh, chunks=chunks
                        )
                except DegradationBudgetError:
                    raise
                except LADDER_EXCEPTIONS:
                    if sentinel.strict or not sentinel.enabled:
                        raise
                    degradation.record_ladder("chunk:exception")
                if chunk_results is not None:
                    for energy, res in zip(fresh, chunk_results):
                        if res is None or result_non_finite(res):
                            continue
                        cache[energy] = res
                        self._charge_flops(flops, shape, res.n_channels_left)
                leftover = [e for e in fresh if e not in cache]
                if (
                    leftover and not per_point
                    and sentinel.enabled and not sentinel.strict
                ):
                    degradation.record_ladder("chunk:per-point")
                for energy in leftover:
                    sample(energy)

            if adaptive_info is not None:
                k_grid_e, k_stats = self._solve_adaptive(
                    ik, grid, solve_nodes, cache, mu_s, mu_d, kT,
                    degradation,
                )
                for key, val in k_stats.items():
                    if key == "est_error":
                        adaptive_info[key] = max(adaptive_info[key], val)
                    else:
                        adaptive_info[key] += val
            else:
                k_grid_e = grid
                solve_nodes([float(e) for e in grid.energies])

            # quarantined nodes are dropped from this k-grid and the
            # trapezoid weights rebuilt on the survivors, within budget
            kept = [
                float(e) for e in k_grid_e.energies
                if cache.get(float(e)) is not None
            ]
            n_q = len(k_grid_e) - len(kept)
            if n_q > 0:
                self.degradation_budget.check(
                    n_q, len(k_grid_e), context=f"k-point {ik}"
                )
                pts = np.asarray(kept)
                k_grid_e = EnergyGrid(pts, trapezoid_weights(pts))
                degradation.reweighted_grids += 1
                degradation.record_ladder("quadrature:reweight")

            n_e_k = len(k_grid_e)
            spectral_l = np.zeros((n_e_k, H.total_size))
            spectral_r = np.zeros((n_e_k, H.total_size))
            t_k = np.zeros(n_e_k)
            ch_k = np.zeros(n_e_k, dtype=int)
            for ie, energy in enumerate(k_grid_e.energies):
                res = sample(energy)
                t_k[ie] = res.transmission
                ch_k[ie] = res.n_channels_left
                spectral_l[ie] = res.spectral_left
                spectral_r[ie] = res.spectral_right
            n_orbital = carrier_density(
                k_grid_e, spectral_l, spectral_r, mu_s, mu_d, kT,
                spin_degeneracy=self.spin_degeneracy,
            )
            density += wk * orbital_to_atom(n_orbital, n_orb)
            currents += wk * landauer_current(
                k_grid_e, t_k, mu_s, mu_d, kT,
                spin_degeneracy=self.spin_degeneracy,
            )
            per_k_grids.append(k_grid_e)
            per_k_T.append(t_k)
            per_k_channels.append(ch_k)

        # report T(E,k) resampled on the common base grid (exact when the
        # per-k grids equal the base grid, interpolated otherwise)
        transmission = np.zeros((n_k, n_e))
        channels = np.zeros((n_k, n_e), dtype=int)
        for ik in range(n_k):
            transmission[ik] = np.interp(
                grid.energies, per_k_grids[ik].energies, per_k_T[ik]
            )
            channels[ik] = np.round(
                np.interp(
                    grid.energies,
                    per_k_grids[ik].energies,
                    per_k_channels[ik].astype(float),
                )
            ).astype(int)

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
            current_a=currents,
            density_per_atom=density,
            mu_source=mu_s,
            mu_drain=mu_d,
            channels=channels,
            flops=flops,
            degradation=degradation,
            adaptive=adaptive_info,
        )


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
    stacked kernels (``solve_batch``, or ``solve_batch_escalating`` where
    the solver certifies in mixed precision) in sub-stacks of
    :func:`stack_length` energies.  Stacked results are per-slice
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
    batch = getattr(solver, "solve_batch_escalating", solver.solve_batch)
    H = solver.H
    step = stack_length(H.n_blocks, H.block_sizes.max())
    events = get_events()
    results: list = []
    for lo in range(0, len(energies), step):
        results.extend(batch(energies[lo:lo + step]))
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
