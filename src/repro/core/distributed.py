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
the serial solve — bit-identical on one rank, to reduction order on n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalBreakdownError, RankFailure, TaskFailure
from ..negf.rgf import RGFResult
from ..observability.metrics import get_metrics
from ..observability.telemetry import capture_telemetry, merge_delta
from ..observability.tracer import get_tracer
from ..parallel.backend import get_backend
from ..parallel.comm import payload_nbytes
from ..parallel.decomposition import Decomposition, choose_level_sizes
from ..parallel.scheduler import split_chunks
from ..physics.grids import EnergyGrid
from ..resilience.faults import nan_like
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
        Local execution backend for the modelled ranks: with "process"
        (and no fault injection/retry policy, whose requeue
        semantics need the sequential loop) the representative ranks of
        a serial-communicator solve run concurrently.  None keeps the
        historical sequential loop.
    workers : int or None
        Worker count for the process backend.
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

        The rank's tasks are grouped by k-point; each group is one stacked
        solve (:func:`repro.core.transport.solve_energies`) reduced by the
        calculation's one quadrature (``TransportCalculation._integrate``)
        on the group's nodes and weights of the common grid.  The weights
        make contributions additive — each (k, E) task adds
        ``w_k * w_E * (...)`` to every observable — so partial sums reduce
        with a plain ``sum`` across ranks.  Under a tracer the share is one
        ``rank_partial`` span, each k-group one ``task`` span (``n_tasks``).

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
            Per-task retry for faulted/NaN solves.  With an injector or a
            retry policy every task of a group is solved on its own, as a
            stack of one per attempt (:func:`_solve_task`), and the group's
            stacks are joined for the quadrature; exhausted retries raise
            :class:`repro.errors.TaskFailure`.
        report : repro.resilience.ResilienceReport or None
        """
        calc = self.calc
        built = calc.built
        kT = built.spec.kT
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", v_drain)
        kgrid = built.momentum_grid

        if injector is not None:
            injector.fire("rank", rank)
        if tasks is None:
            tasks = decomp.tasks_of_rank(rank)
        by_k: dict[int, list[int]] = {}
        for task in tasks:
            by_k.setdefault(int(task.k_index), []).append(
                int(task.energy_index)
            )
        current = 0.0
        density = np.zeros(built.n_atoms)
        tracer = get_tracer()
        with tracer.span(
            "rank_partial", category="rank", rank=rank, n_tasks=len(tasks)
        ):
            for ik, ies in by_k.items():
                with tracer.span(
                    "task", category="task", rank=rank, k=ik,
                    n_tasks=len(ies),
                ):
                    solver = calc._make_solver(calc.hamiltonian(
                        potential_ev, float(kgrid.k_points[ik])
                    ))
                    share = EnergyGrid(grid.energies[ies], grid.weights[ies])
                    energies = share.energies.tolist()
                    if injector is None and retry is None:
                        stack = solve_energies(solver, energies)
                    else:
                        stack = RGFResult.concatenate([
                            _solve_task(
                                solver, e, (ik, ie), rank,
                                injector, retry, report,
                            )
                            for ie, e in zip(ies, energies)
                        ])
                    current_k, density_k, _, _ = calc._integrate(
                        share, stack, mu_s, mu_d, kT
                    )
                wk = float(kgrid.weights[ik])
                current += wk * current_k
                density += wk * density_k
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
        (:class:`repro.errors.RankFailure`, organic or injected), its task
        list is split over helper ranks through the explicit-``tasks``
        path of :meth:`rank_partial`; ``rank_recovery`` picks the helpers:

        * ``"requeue"`` (default) — one surviving rank reclaims the dead
          rank's *exact* task list.  Because the reclaimed list is solved
          in the same order and reduced at the same position, the summed
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
        if comm.Get_size() > 1:  # pragma: no cover - needs a real communicator
            mine = self.rank_partial(
                comm.Get_rank(), decomp, grid, potential_ev, v_drain
            )
            return self._finish_bias(
                comm, decomp, grid, potential_ev,
                comm.allreduce(mine.current_a, op="sum"),
                comm.allreduce(mine.density_per_atom, op="sum"),
                comm.allreduce(mine.n_tasks, op="sum"),
            )
        # serial communicator: execute one representative rank per (k, E)
        # group (spatial peers share tasks) and reduce locally
        representatives = list(range(0, decomp.n_ranks, decomp.groups[3]))
        backend = self.backend
        capture = False
        if backend is not None and backend.name == "process":
            # tracer spans and metrics recorded in pool children are
            # captured per rank task and merged back with rank provenance
            # (repro.observability.telemetry) — only a live
            # InvariantMonitor still forces in-process execution (its
            # ledger and strict-raise semantics are parent-side state;
            # same rule as TransportCalculation)
            from ..observability.invariants import get_monitor

            if get_monitor().enabled:
                backend = None
            else:
                capture = get_tracer().enabled or get_metrics().enabled
        partials = []
        if (
            backend is not None
            and backend.name != "serial"
            and injector is None
            and retry is None
            and len(representatives) > 1
        ):
            # concurrent representatives, reduced in the same
            # representative order as the sequential loop
            for partial, delta in backend.map(
                _rank_partial_worker,
                [
                    (self, r, decomp, grid, potential_ev, v_drain, capture)
                    for r in representatives
                ],
            ):
                merge_delta(delta)
                partials.append(partial)
        else:
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
                    if rank_recovery == "shrink" and dead_tasks:
                        # elastic rank-shrink: every survivor takes a run
                        # of the list (faster recovery, summed in a
                        # different order than the clean run)
                        fallback, helpers = "rank:shrink", survivors
                    else:
                        # requeue: the next rank reclaims the whole list
                        # in its original order — and adding to zero is
                        # exact — so the sums stay bit-identical
                        fallback = "rank:requeue"
                        helpers = [
                            representatives[(i + 1) % len(representatives)]
                        ]
                    if report is not None:
                        report.rank_failures += 1
                        report.record_fallback(fallback)
                    p = PartialObservables(
                        current_a=0.0,
                        density_per_atom=np.zeros(self.calc.built.n_atoms),
                        n_tasks=0,
                    )
                    for helper, chunk in zip(
                        helpers, split_chunks(len(dead_tasks), len(helpers))
                    ):
                        sub = self.rank_partial(
                            helper, decomp, grid, potential_ev, v_drain,
                            tasks=[dead_tasks[j] for j in chunk],
                            injector=injector, retry=retry, report=report,
                        )
                        p.current_a += sub.current_a
                        p.density_per_atom += sub.density_per_atom
                        p.n_tasks += sub.n_tasks
                    if report is not None:
                        report.requeued_tasks += p.n_tasks
                partials.append(p)
        return self._finish_bias(
            comm, decomp, grid, potential_ev,
            sum(p.current_a for p in partials),
            np.sum([p.density_per_atom for p in partials], axis=0),
            sum(p.n_tasks for p in partials),
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


def _solve_task(solver, energy, key, rank, injector, retry, report):
    """Solve one (k, E) task of a rank under fault injection and/or retry.

    Each attempt fires the injector's ``"task"`` site with ``key`` =
    (k_index, energy_index) and solves the energy as a stack of one —
    bit-identical to its slice of the clean stacked solve.  A faulted
    attempt, or one its ``finite`` mask rejects, is retried under
    ``retry``; exhausted retries raise
    :class:`repro.errors.TaskFailure`, since a (k, E) quadrature point
    cannot be silently dropped without corrupting the reduced observables.
    """

    def attempt(attempt_number: int):
        mode = injector.fire("task", key) if injector is not None else None
        res = solve_energies(solver, [energy])
        if mode == "nan":
            res = nan_like(res)
        if not res.finite[0]:
            raise NumericalBreakdownError(
                f"non-finite observables at (k,E) task {key}",
                injected=(mode == "nan"),
            )
        return res

    try:
        if retry is not None:
            return retry.run(attempt, report=report)
        return attempt(0)
    except (TaskFailure, NumericalBreakdownError) as exc:
        raise TaskFailure(
            f"(k,E) task {key} failed permanently on rank {rank}: {exc}",
            key=key,
            injected=bool(getattr(exc, "injected", False)),
        ) from exc


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
