"""Distributed (k, E)-parallel transport driver.

This is the MPI-facing layer of the simulator: the same loop as
:meth:`repro.core.TransportCalculation.solve_bias`, but expressed over a
:class:`repro.parallel.Decomposition` and a communicator, the way the
production code runs — each rank solves its block-cyclic share of the
(k, E) work list and the observables are reduced with ``allreduce``.

On this single-node reproduction the backends are
:class:`repro.parallel.SerialComm` (really executes everything) and
:class:`repro.parallel.TracedComm` (executes one rank, records the
communication volume for the performance model).  The tests verify the
fundamental SPMD invariant: the sum of all ranks' partial observables is
bit-identical to the serial solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalBreakdownError, RankFailure, TaskFailure
from ..negf.observables import carrier_density, landauer_current, orbital_to_atom
from ..observability.metrics import get_metrics
from ..observability.telemetry import capture_telemetry, merge_delta
from ..observability.tracer import get_tracer
from ..parallel.backend import get_backend
from ..parallel.comm import payload_nbytes
from ..parallel.decomposition import Decomposition, choose_level_sizes
from ..parallel.scheduler import split_chunks
from ..physics.grids import EnergyGrid
from .transport import TransportCalculation, solve_energies

__all__ = ["PartialObservables", "DistributedTransport"]


@dataclass
class PartialObservables:
    """One rank's contribution to the integrated observables.

    Attributes
    ----------
    current_a : float
        This rank's share of the terminal current.
    density_per_atom : ndarray
        This rank's share of the carrier density.
    n_tasks : int
        Number of (k, E) points this rank solved.
    """

    current_a: float
    density_per_atom: np.ndarray
    n_tasks: int


class DistributedTransport:
    """(k, E)-level parallel execution of one bias point.

    Parameters
    ----------
    calculation : TransportCalculation
        The configured transport facade (device, kernel, grids).
    max_spatial : int
        Upper bound on the spatial (SplitSolve) level of the rank grid.
        The default 1 keeps the historical (k, E)-only decomposition;
        the doctor CLI raises it to exercise all four levels of the
        per-level communication accounting.
    backend : str, ExecutionBackend or None
        Local execution backend for the modelled ranks: with "thread"
        or "process" (and no fault injection/retry policy, whose requeue
        semantics need the sequential loop) the representative ranks of
        a serial-communicator solve run concurrently.  None keeps the
        historical sequential loop.
    workers : int or None
        Worker count for the pooled backends.
    """

    def __init__(self, calculation: TransportCalculation,
                 max_spatial: int = 1, backend=None, workers=None):
        if max_spatial < 1:
            raise ValueError("max_spatial must be >= 1")
        self.calc = calculation
        self.max_spatial = max_spatial
        self.backend = (
            None if backend is None and workers is None
            else get_backend(backend, workers)
        )

    # ------------------------------------------------------------------
    def decomposition(self, n_ranks: int, v_drain: float,
                      potential_ev: np.ndarray) -> tuple[Decomposition, EnergyGrid]:
        """Choose the rank grid and the (common) energy grid for a bias."""
        grid = self.calc.energy_grid(potential_ev, v_drain)
        kgrid = self.calc.built.momentum_grid
        groups = choose_level_sizes(
            n_ranks, n_bias=1, n_k=len(kgrid), n_energy=len(grid),
            max_spatial=self.max_spatial,
        )
        decomp = Decomposition(
            n_bias=1, n_k=len(kgrid), n_energy=len(grid), groups=groups
        )
        return decomp, grid

    # ------------------------------------------------------------------
    def _record_level_traffic(
        self, trace, decomp: Decomposition, potential_ev: np.ndarray,
        density: np.ndarray, n_tasks: int,
    ) -> None:
        """Attribute the bias point's modelled traffic to the four levels.

        The production reduction is hierarchical — spatial domains
        exchange interface blocks within each (k, E) solve, energy groups
        reduce their quadrature partials, momentum groups reduce the
        k-sums, and the bias root broadcasts inputs / collects the final
        observables — so each stage is recorded against its own level.
        Events are recorded directly (not via ``TracedComm`` collectives,
        whose modelled ``allreduce`` would scale the actual values).
        """
        g_b, g_k, g_e, g_s = decomp.groups
        obs_bytes = payload_nbytes(density) + 8  # density + current scalar
        # bias root broadcasts the converged potential to every rank
        trace.record(
            "bcast", payload_nbytes(potential_ev), decomp.n_ranks,
            level="bias",
        )
        # energy groups reduce quadrature partials of (current, density)
        if g_e > 1:
            trace.record("allreduce", obs_bytes, g_e, level="energy")
        # momentum groups reduce the k-sums of the same observables
        if g_k > 1:
            trace.record("allreduce", obs_bytes, g_k, level="momentum")
        if g_s > 1:
            # SplitSolve spatial exchange: per (k, E) task each interior
            # domain boundary carries one m x m complex128 coupling block
            built = self.calc.built
            n_orb_total = built.n_atoms * built.material.orbitals_per_atom
            n_slabs = max(int(getattr(built.device, "n_slabs", 1)), 1)
            m = max(n_orb_total // n_slabs, 1)
            boundary_bytes = m * m * 16
            trace.record(
                "sendrecv", n_tasks * (g_s - 1) * boundary_bytes, g_s,
                level="spatial",
            )
        # bias root gathers the reduced observables of this bias point
        trace.record("gather", obs_bytes * max(g_b, 1), max(g_b, 1),
                     level="bias")

    def rank_partial(
        self,
        rank: int,
        decomp: Decomposition,
        grid: EnergyGrid,
        potential_ev: np.ndarray,
        v_drain: float,
        tasks=None,
        injector=None,
        retry=None,
        report=None,
    ) -> PartialObservables:
        """Solve this rank's task share and integrate its partial sums.

        The quadrature weights make per-task contributions additive: each
        (k, E) task contributes ``w_k * w_E * (...)`` to every observable,
        so partial sums reduce with a plain ``sum`` across ranks.

        Parameters
        ----------
        tasks : list of WorkItem or None
            Explicit task list; None means this rank's own block-cyclic
            share.  An explicit list is how a surviving rank reclaims a
            dead rank's work (the requeue path of :meth:`solve_bias`).
        injector : repro.resilience.FaultInjector or None
            Fired at site ``"rank"`` on entry (dead-rank simulation) and
            at site ``"task"`` with key (k_index, energy_index) per solve.
        retry : repro.resilience.RetryPolicy or None
            Per-task retry for faulted/NaN solves.  Exhausted retries
            raise :class:`repro.errors.TaskFailure` — a (k, E) quadrature
            point cannot be silently dropped without corrupting the
            reduced observables.
        report : repro.resilience.ResilienceReport or None
        """
        calc = self.calc
        built = calc.built
        kT = built.spec.kT
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", v_drain)
        kgrid = built.momentum_grid
        n_orb = built.material.orbitals_per_atom

        if injector is not None:
            injector.fire("rank", rank)
        if tasks is None:
            tasks = decomp.tasks_of_rank(rank)
        current = 0.0
        density = np.zeros(built.n_atoms)
        solvers: dict[int, object] = {}
        tracer = get_tracer()

        def get_solver(ik: int):
            if ik not in solvers:
                H = calc.hamiltonian(potential_ev, float(kgrid.k_points[ik]))
                solvers[ik] = calc._make_solver(H)
            return solvers[ik]

        # stack this rank's energy points per k-point up front; fault
        # injection/retry re-solve per attempt, each as a stack of one —
        # bit-identical to the point's slice of the clean stack
        prebatched: dict[tuple[int, int], object] = {}
        if injector is None and retry is None:
            by_k: dict[int, list[int]] = {}
            for task in tasks:
                by_k.setdefault(int(task.k_index), []).append(
                    int(task.energy_index)
                )
            for ik, ies in by_k.items():
                unique = sorted(set(ies))
                batch = solve_energies(
                    get_solver(ik),
                    [float(grid.energies[ie]) for ie in unique],
                )
                for ie, res in zip(unique, batch):
                    prebatched[(ik, ie)] = res

        def solve_task(ik: int, ie: int) -> tuple[float, np.ndarray]:
            """One (k, E) contribution: (w_k-weighted current, density)."""
            res = prebatched.get((ik, ie))
            if res is None:
                res = solve_energies(
                    get_solver(ik), [float(grid.energies[ie])]
                )[0]
            w = float(kgrid.weights[ik] * grid.weights[ie])
            # single-point "grids" let us reuse the scalar observable code
            point = EnergyGrid(
                np.array([grid.energies[ie]]), np.array([1.0])
            )
            n_orbital = carrier_density(
                point,
                res.spectral_left[None, :],
                res.spectral_right[None, :],
                mu_s, mu_d, kT,
                spin_degeneracy=calc.spin_degeneracy,
            )
            dens = w * orbital_to_atom(n_orbital, n_orb)
            curr = float(kgrid.weights[ik]) * landauer_current(
                EnergyGrid(
                    np.array([grid.energies[ie]]),
                    np.array([grid.weights[ie]]),
                ),
                np.array([res.transmission]),
                mu_s, mu_d, kT,
                spin_degeneracy=calc.spin_degeneracy,
            )
            return curr, dens

        with tracer.span(
            "rank_partial", category="rank", rank=rank, n_tasks=len(tasks)
        ):
            for task in tasks:
                ik, ie = task.k_index, task.energy_index
                with tracer.span(
                    "task", category="task", rank=rank, k=int(ik), e=int(ie)
                ):
                    if injector is None and retry is None:
                        curr, dens = solve_task(ik, ie)
                    else:
                        key = (ik, ie)

                        def attempt(
                            attempt_number: int, _ik=ik, _ie=ie, _key=key
                        ):
                            mode = (
                                injector.fire("task", _key)
                                if injector is not None
                                else None
                            )
                            curr, dens = solve_task(_ik, _ie)
                            if mode == "nan":
                                curr, dens = (
                                    float("nan"),
                                    np.full_like(dens, np.nan),
                                )
                            if not np.isfinite(curr) or not np.all(
                                np.isfinite(dens)
                            ):
                                raise NumericalBreakdownError(
                                    "non-finite observables at (k,E) task "
                                    f"{_key}",
                                    injected=(mode == "nan"),
                                )
                            return curr, dens

                        try:
                            if retry is not None:
                                curr, dens = retry.run(attempt, report=report)
                            else:
                                curr, dens = attempt(0)
                        except (TaskFailure, NumericalBreakdownError) as exc:
                            raise TaskFailure(
                                f"(k,E) task {key} failed permanently on "
                                f"rank {rank}: {exc}",
                                key=key,
                                injected=bool(getattr(exc, "injected", False)),
                            ) from exc
                current += curr
                density += dens
        return PartialObservables(
            current_a=current, density_per_atom=density, n_tasks=len(tasks)
        )

    # ------------------------------------------------------------------
    def solve_bias(
        self,
        potential_ev: np.ndarray,
        v_drain: float,
        comm,
        n_ranks: int | None = None,
        injector=None,
        retry=None,
        report=None,
        rank_recovery: str = "requeue",
    ) -> dict:
        """SPMD entry point: every rank calls this with its communicator.

        With a :class:`SerialComm` (size 1) all ranks' work is executed in
        a loop on this process and reduced locally — the functional
        equivalent of the MPI run, used for testing and small problems.
        With a real MPI communicator (same duck type), each rank computes
        only its share and ``allreduce`` combines them.

        Fault tolerance: when a representative rank dies
        (:class:`repro.errors.RankFailure`, organic or injected), recovery
        follows ``rank_recovery``:

        * ``"requeue"`` (default) — one surviving rank reclaims the dead
          rank's *exact* task list via the explicit-``tasks`` path of
          :meth:`rank_partial`.  Because the reclaimed list is solved in
          the same order and reduced at the same position, the summed
          observables are bit-identical to the fault-free run.
        * ``"shrink"`` — the dead rank's tasks are split across *all*
          survivors (elastic rank-shrink: the sweep continues on a
          smaller machine).  Lower recovery latency, but the split
          changes the per-rank summation order, so observables agree
          with the clean run only to floating-point reduction tolerance.

        Returns a dict with ``current_a``, ``density_per_atom`` and
        ``n_tasks_total``.
        """
        if rank_recovery not in ("requeue", "shrink"):
            raise ValueError("rank_recovery must be 'requeue' or 'shrink'")
        size = n_ranks if n_ranks is not None else comm.Get_size()
        decomp, grid = self.decomposition(size, v_drain, potential_ev)
        spatial = decomp.groups[3]
        if comm.Get_size() == 1:
            # serial backend: execute one representative rank per (k, E)
            # group (spatial peers share tasks) and reduce locally
            representatives = list(range(0, decomp.n_ranks, spatial))
            backend = self.backend
            capture = False
            if backend is not None and backend.name == "process":
                # tracer spans and metrics recorded in pool children are
                # captured per rank task and merged back with rank
                # provenance (repro.observability.telemetry) — only a
                # live InvariantMonitor still forces in-process execution
                # (its ledger and strict-raise semantics are parent-side
                # state; same rule as TransportCalculation)
                from ..observability.invariants import get_monitor

                if get_monitor().enabled:
                    backend = None
                else:
                    capture = (
                        get_tracer().enabled or get_metrics().enabled
                    )
            if (
                backend is not None
                and backend.name != "serial"
                and injector is None
                and retry is None
                and len(representatives) > 1
            ):
                # concurrent representatives: results are reduced in the
                # same representative order as the sequential loop
                partials = []
                for partial, delta in backend.map(
                    _rank_partial_worker,
                    [
                        (self, r, decomp, grid, potential_ev, v_drain,
                         capture)
                        for r in representatives
                    ],
                ):
                    merge_delta(delta)
                    partials.append(partial)
                current = sum(p.current_a for p in partials)
                density = np.sum(
                    [p.density_per_atom for p in partials], axis=0
                )
                n_tasks = sum(p.n_tasks for p in partials)
                return self._finish_bias(
                    comm, decomp, grid, potential_ev,
                    current, density, n_tasks,
                )
            partials = []
            for i, r in enumerate(representatives):
                try:
                    p = self.rank_partial(
                        r, decomp, grid, potential_ev, v_drain,
                        injector=injector, retry=retry, report=report,
                    )
                except RankFailure:
                    survivors = [x for x in representatives if x != r]
                    if not survivors:
                        raise  # nothing left to shrink or requeue onto
                    dead_tasks = decomp.tasks_of_rank(r)
                    if report is not None:
                        report.rank_failures += 1
                    if rank_recovery == "shrink" and dead_tasks:
                        # elastic rank-shrink: split the dead rank's list
                        # across every survivor (faster recovery, summed
                        # in a different order than the clean run)
                        if report is not None:
                            report.record_fallback("rank:shrink")
                        n_helpers = min(len(survivors), len(dead_tasks))
                        chunks = split_chunks(len(dead_tasks), n_helpers)
                        current_r = 0.0
                        density_r = np.zeros(
                            self.calc.built.n_atoms
                        )
                        n_tasks_r = 0
                        for helper, chunk in zip(survivors, chunks):
                            sub = self.rank_partial(
                                helper, decomp, grid, potential_ev,
                                v_drain,
                                tasks=[dead_tasks[j] for j in chunk],
                                injector=injector, retry=retry,
                                report=report,
                            )
                            current_r += sub.current_a
                            density_r += sub.density_per_atom
                            n_tasks_r += sub.n_tasks
                        p = PartialObservables(
                            current_a=current_r,
                            density_per_atom=density_r,
                            n_tasks=n_tasks_r,
                        )
                    else:
                        # requeue: one survivor reclaims the dead rank's
                        # tasks, preserving task order (and hence
                        # bit-identical sums)
                        survivor = representatives[
                            (i + 1) % len(representatives)
                        ]
                        if report is not None:
                            report.record_fallback("rank:requeue")
                        p = self.rank_partial(
                            survivor, decomp, grid, potential_ev, v_drain,
                            tasks=dead_tasks,
                            injector=injector, retry=retry, report=report,
                        )
                    if report is not None:
                        report.requeued_tasks += p.n_tasks
                partials.append(p)
            current = sum(p.current_a for p in partials)
            density = np.sum([p.density_per_atom for p in partials], axis=0)
            n_tasks = sum(p.n_tasks for p in partials)
        else:  # pragma: no cover - requires a real multi-rank communicator
            mine = self.rank_partial(
                comm.Get_rank(), decomp, grid, potential_ev, v_drain
            )
            current = comm.allreduce(mine.current_a, op="sum")
            density = comm.allreduce(mine.density_per_atom, op="sum")
            n_tasks = comm.allreduce(mine.n_tasks, op="sum")
        return self._finish_bias(
            comm, decomp, grid, potential_ev, current, density, n_tasks
        )

    def _finish_bias(
        self, comm, decomp, grid, potential_ev, current, density, n_tasks
    ) -> dict:
        """Shared epilogue: traffic model, metrics and the result dict."""
        trace = getattr(comm, "trace", None)
        if trace is not None:
            self._record_level_traffic(
                trace, decomp, potential_ev, density, n_tasks
            )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("transport.bias_solves", 1.0)
            metrics.inc("transport.tasks", float(n_tasks))
            metrics.gauge("transport.energy_points", float(len(grid)))
            for name, g in zip(
                ("bias", "momentum", "energy", "spatial"), decomp.groups
            ):
                metrics.gauge("decomposition.group_size", float(g),
                              level=name)
        return {
            "current_a": float(current),
            "density_per_atom": density,
            "n_tasks_total": int(n_tasks),
            "decomposition": decomp,
            "energy_grid": grid,
        }


def _rank_partial_worker(payload):
    """Worker body for backend-dispatched representative ranks.

    Module-level so ProcessPoolExecutor can pickle it; the payload
    ``(transport, rank, decomp, grid, potential_ev, v_drain, capture)``
    carries the DistributedTransport itself (its calculation and device
    are picklable by construction).  Returns a ``(partial, delta)``
    envelope: with ``capture`` the rank runs under
    :func:`~repro.observability.telemetry.capture_telemetry` (worker
    label ``"rank:<r>"``) and ``delta`` is what it recorded for the
    parent to merge; the capture only engages inside a real worker
    process, so parent-side fallback executions ship ``delta=None``.
    """
    transport, rank, decomp, grid, potential_ev, v_drain, capture = payload
    if not capture:
        return transport.rank_partial(
            rank, decomp, grid, potential_ev, v_drain
        ), None
    with capture_telemetry(worker=f"rank:{rank}") as cap:
        partial = transport.rank_partial(
            rank, decomp, grid, potential_ev, v_drain
        )
    return partial, cap.delta
