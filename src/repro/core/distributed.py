"""Distributed (k, E)-parallel transport driver.

This is the MPI-facing layer of the simulator: the same loop as
:meth:`repro.core.TransportCalculation.solve_bias`, but expressed over a
:class:`repro.parallel.Decomposition` and a communicator, the way the
production code runs — each rank solves its block-cyclic share of the
(k, E) work list and the observables are reduced with ``allreduce``.  A
rank solves each k-group of its share through the node solver of the
bias loop (``core.transport._KPoint``) and reduces it with the same
quadrature, so both drivers share one dispatch, one degradation ladder
and one place where fault drills are planted.  Ranks tile wave 0 of the
uniform window — the local solve's quadrature with refinement off —
whatever ``energy_mode`` is: shares of one common grid add up,
adaptively refined grids would not.

On this single-node reproduction the backends are
:class:`repro.parallel.SerialComm` (really executes everything) and
:class:`repro.parallel.TracedComm` (executes one rank, records the
communication volume for the performance model).  The tests verify the
fundamental SPMD invariant: the sum of all ranks' partial observables is
the serial solve — bit-identical on one rank, to reduction order on n.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..errors import RankFailure, TaskFailure
from ..observability.telemetry import get_metrics, get_tracer
from ..parallel.backend import SerialBackend, get_backend
from ..parallel.comm import payload_nbytes
from ..parallel.decomposition import Decomposition, choose_level_sizes
from ..perf.flops import FlopCounter
from ..physics.grids import EnergyGrid
from ..resilience.degrade import DegradationReport
from ..resilience.health import get_sentinel
from .transport import TransportCalculation, _KPoint

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
    degradation : DegradationReport
        Every self-healing action taken while solving them.
    flops : FlopCounter
        The kernel flops charged while solving them.
    """

    current_a: float
    density_per_atom: np.ndarray
    n_tasks: int
    degradation: DegradationReport = field(default_factory=DegradationReport)
    flops: FlopCounter = field(default_factory=FlopCounter)

    def add(self, other: "PartialObservables") -> None:
        """Fold ``other`` into this share: sums add, accounts merge."""
        self.current_a += other.current_a
        self.density_per_atom += other.density_per_atom
        self.n_tasks += other.n_tasks
        self.degradation.merge(other.degradation)
        self.flops.merge(other.flops)


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
        Where the ranks' k-group chunks run
        (``TransportCalculation._run_backend``): "serial" or "process".
        With neither ``backend`` nor ``workers`` given the ranks solve
        serially, whatever ``$REPRO_BACKEND`` says.
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
            SerialBackend() if backend is None and workers is None
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
    ) -> PartialObservables:
        """Solve this rank's task share and integrate its partial sums.

        The rank's tasks are grouped by k-point, and each group is solved
        by the node solver of the bias loop (``core.transport._KPoint``:
        dispatch through this driver's backend, accept rows by their
        ``finite`` mask, heal the rejected ones down the degradation
        ladder) and reduced by the calculation's one quadrature
        (``TransportCalculation._integrate``) on the group's nodes and
        weights of the common grid.  The weights make contributions
        additive — each (k, E) task adds ``w_k * w_E * (...)`` to every
        observable — so partial sums reduce with a plain ``sum`` across
        ranks.  A node the ladder quarantines raises
        :class:`repro.errors.TaskFailure`: a rank's share cannot reweight
        the common grid.  Under a tracer the share is one ``rank_partial``
        span, each k-group one ``task`` span (``n_tasks``).

        Parameters
        ----------
        tasks : list of WorkItem or None
            Explicit task list; None means this rank's own block-cyclic
            share.  An explicit list is how a surviving rank reclaims a
            dead rank's work (the requeue path of :meth:`solve_bias`).
        injector : repro.resilience.FaultInjector or None
            Fired at site ``"rank"`` on entry (dead-rank simulation) and
            planted in the k-groups' solvers (sites ``"hblock"``,
            ``"energy"``, ``"worker"``); None uses the calculation's own.
            The rank holds it as :meth:`~repro.resilience.FaultInjector.
            on_rank` gives it (its own ``once`` bookkeeping).
        """
        calc = self.calc
        built = calc.built
        kT = built.spec.kT
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", v_drain)
        kgrid = built.momentum_grid
        if injector is None:
            injector = calc.injector
        if injector is not None:
            injector = injector.on_rank(rank)
            injector.fire("rank", rank)
        if tasks is None:
            tasks = decomp.tasks_of_rank(rank)
        by_k: dict[int, list[int]] = {}
        for task in tasks:
            by_k.setdefault(int(task.k_index), []).append(
                int(task.energy_index)
            )
        # the k-groups run on the calculation with this driver's backend
        # and the rank's injector in place of its own
        node = copy.copy(calc)
        node.backend, node.injector = self.backend, injector
        sentinel = get_sentinel()
        share = PartialObservables(0.0, np.zeros(built.n_atoms), len(tasks))
        tracer = get_tracer()
        with tracer.span(
            "rank_partial", category="rank", rank=rank, n_tasks=len(tasks)
        ):
            for ik, ies in by_k.items():
                with tracer.span(
                    "task", category="task", rank=rank, k=ik,
                    n_tasks=len(ies),
                ):
                    nodes = EnergyGrid(grid.energies[ies], grid.weights[ies])
                    energies = nodes.energies.tolist()
                    kp = _KPoint(
                        node, ik, kgrid.k_points[ik], potential_ev,
                        share.flops, share.degradation, sentinel,
                    )
                    kept = kp.solve(energies)
                    lost = [e for e, ok in zip(energies, kept) if not ok]
                    if lost:
                        raise TaskFailure(
                            f"(k,E) nodes {lost} of k-point {ik} quarantined "
                            f"on rank {rank}",
                            key=(ik, lost[0]),
                        )
                    current_k, density_k, _, _ = calc._integrate(
                        nodes, kp.rows(energies), mu_s, mu_d, kT
                    )
                wk = float(kgrid.weights[ik])
                share.current_a += wk * current_k
                share.density_per_atom += wk * density_k
        return share

    # ------------------------------------------------------------------
    def solve_bias(
        self,
        potential_ev: np.ndarray,
        v_drain: float,
        comm,
        n_ranks: int | None = None,
        injector=None,
    ) -> dict:
        """SPMD entry point: every rank calls this with its communicator.

        With a :class:`SerialComm` (size 1) all ranks' work is executed in
        a loop on this process and reduced locally — the functional
        equivalent of the MPI run, used for testing and small problems.
        With a real MPI communicator (same duck type), each rank computes
        only its share and ``allreduce`` combines them.

        ``injector`` (None: the calculation's own) reaches every rank
        through :meth:`rank_partial`: site ``"rank"`` at rank entry, the
        (k, E) sites where the k-groups build their solvers — so a faulted
        energy heals down the same ladder as in the bias loop.

        Fault tolerance: when a representative rank dies
        (:class:`repro.errors.RankFailure`, organic or injected), the next
        representative reclaims its *exact* task list through the
        explicit-``tasks`` path of :meth:`rank_partial` (requeue).  The
        reclaimed list is solved in the same order and reduced at the same
        position, so the summed observables are bit-identical to the
        fault-free run.  A dead rank is accounted in the result's
        ``degradation``: one ``rank_failures``, one ``"rank:requeue"``
        ladder step and its reclaimed tasks in ``requeued_tasks``.

        Returns a dict with ``current_a``, ``density_per_atom``,
        ``n_tasks_total``, ``decomposition``, ``energy_grid``,
        ``degradation`` (the ranks' merged
        :class:`~repro.resilience.DegradationReport`) and ``flops`` (their
        summed :class:`~repro.perf.flops.FlopCounter`) — on a real
        communicator this rank's own account and flops.
        """
        size = n_ranks if n_ranks is not None else comm.Get_size()
        decomp, grid = self.decomposition(size, v_drain, potential_ev)
        if comm.Get_size() > 1:  # pragma: no cover - needs a real communicator
            mine = self.rank_partial(
                comm.Get_rank(), decomp, grid, potential_ev, v_drain,
                injector=injector,
            )
            total = PartialObservables(
                comm.allreduce(mine.current_a, op="sum"),
                comm.allreduce(mine.density_per_atom, op="sum"),
                comm.allreduce(mine.n_tasks, op="sum"),
                mine.degradation,
                mine.flops,
            )
            return self._finish_bias(comm, decomp, grid, potential_ev, total)
        # serial communicator: execute one representative rank per (k, E)
        # group (spatial peers share tasks) and reduce locally
        sentinel = get_sentinel()
        marker = sentinel.marker()
        representatives = list(range(0, decomp.n_ranks, decomp.groups[3]))
        n_atoms = self.calc.built.n_atoms
        total = PartialObservables(0.0, np.zeros(n_atoms), 0)
        for i, r in enumerate(representatives):
            try:
                p = self.rank_partial(
                    r, decomp, grid, potential_ev, v_drain, injector=injector
                )
            except RankFailure:
                if len(representatives) == 1:
                    raise  # no surviving rank to requeue onto
                # the next rank reclaims the whole list in its original
                # order — and adding to zero is exact — so the sums stay
                # bit-identical
                dead_tasks = decomp.tasks_of_rank(r)
                p = PartialObservables(0.0, np.zeros(n_atoms), 0)
                if dead_tasks:
                    p.add(self.rank_partial(
                        representatives[(i + 1) % len(representatives)],
                        decomp, grid, potential_ev, v_drain,
                        tasks=dead_tasks, injector=injector,
                    ))
                p.degradation.rank_failures += 1
                p.degradation.record_ladder("rank:requeue")
                p.degradation.requeued_tasks += p.n_tasks
            total.add(p)
        total.degradation.set_trips(sentinel.trips_since(marker))
        return self._finish_bias(comm, decomp, grid, potential_ev, total)

    def _finish_bias(self, comm, decomp, grid, potential_ev, total) -> dict:
        """Shared epilogue: traffic model, metrics and the result dict."""
        density, n_tasks = total.density_per_atom, total.n_tasks
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
            "current_a": float(total.current_a),
            "density_per_atom": density,
            "n_tasks_total": int(n_tasks),
            "decomposition": decomp,
            "energy_grid": grid,
            "degradation": total.degradation,
            "flops": total.flops,
        }

