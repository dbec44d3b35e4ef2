"""Task scheduling and load balancing of the work pool.

Two schedulers are provided (their makespans are an ablation benchmark):

* :func:`static_blocks` — contiguous equal-count chunks, the naive default;
* :func:`greedy_balance` — Longest-Processing-Time (LPT) list scheduling on
  per-task cost estimates.  Energy points near band edges and resonances
  cost more (more surface-GF iterations, more open channels), so static
  chunking leaves ranks idle; LPT with the cost model recovers most of it,
  which is exactly the load-balancing story of the production code.

:func:`run_tasks` runs every task of a batch and reports per-task wall
times, which calibrate the cost model of the performance layer.  Fault
handling is not its business: the transport driver plants faults in its
solvers (:mod:`repro.resilience.faults`) and retries distributed tasks
itself (:class:`repro.core.DistributedTransport`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..observability.telemetry import get_metrics, get_tracer

__all__ = [
    "static_blocks",
    "round_robin",
    "split_chunks",
    "wave_chunks",
    "greedy_balance",
    "run_tasks",
    "ScheduleReport",
]


def static_blocks(costs: Sequence[float], n_workers: int) -> list[list[int]]:
    """Contiguous block assignment (equal task counts, ignoring costs)."""
    if n_workers < 1:
        raise ValueError("need at least one worker")
    n = len(costs)
    bounds = np.linspace(0, n, n_workers + 1).astype(int)
    return [list(range(bounds[w], bounds[w + 1])) for w in range(n_workers)]


def round_robin(n_items: int, n_workers: int) -> list[list[int]]:
    """Round-robin (block-cyclic, block=1) assignment of item indices.

    Worker w gets items w, w + n_workers, w + 2*n_workers, ...  The
    remainder items when ``n_items % n_workers != 0`` land on the first
    ``n_items % n_workers`` workers — every index 0..n_items-1 is
    assigned exactly once regardless of divisibility (the regression
    tests in ``tests/test_backend.py`` pin this, including the uneven
    spatial-split case where the effective worker count is not a divisor
    of the energy-point count).
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    return [
        list(range(w, n_items, n_workers)) for w in range(n_workers)
    ]


def split_chunks(n_items: int, n_chunks: int) -> list[list[int]]:
    """Split ``range(n_items)`` into at most ``n_chunks`` contiguous runs.

    Like :func:`static_blocks` but by item count and with empty chunks
    dropped: the batched execution backends feed each chunk to one
    worker as a single stacked solve, so chunks must be contiguous (the
    energy grid is reassembled by concatenation) and non-empty (an empty
    stacked solve is a pointless dispatch).  Exact coverage for every
    ``(n_items, n_chunks)`` pair is asserted here and pinned by tests.
    """
    if n_chunks < 1:
        raise ValueError("need at least one chunk")
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    bounds = np.linspace(0, n_items, min(n_chunks, n_items) + 1).astype(int)
    chunks = [
        list(range(bounds[c], bounds[c + 1]))
        for c in range(len(bounds) - 1)
        if bounds[c + 1] > bounds[c]
    ]
    assert sum(len(c) for c in chunks) == n_items
    return chunks


def wave_chunks(
    n_items: int, n_workers: int, min_chunk: int = 2
) -> list[list[int]]:
    """Chunking for one adaptive refinement wave.

    Waves shrink as refinement converges: the first wave carries the
    full initial grid, late waves may carry two or three bisection
    midpoints.  Splitting a tiny wave into ``n_workers`` contiguous
    chunks would serialize it behind one worker's batched solve while
    the rest idle, so below ``min_chunk * n_workers`` items the wave
    degrades to per-point dispatch — every node becomes its own chunk
    and the pool balances them dynamically.  Larger waves use the same
    contiguous :func:`split_chunks` layout as uniform grids, keeping
    the batched-kernel fast path.  Coverage is exact either way.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    if min_chunk < 1:
        raise ValueError("min_chunk must be >= 1")
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_items < min_chunk * n_workers:
        return [[i] for i in range(n_items)]
    return split_chunks(n_items, n_workers)


def greedy_balance(costs: Sequence[float], n_workers: int) -> list[list[int]]:
    """LPT list scheduling: heaviest task first onto the lightest worker.

    Guarantees makespan <= (4/3 - 1/(3P)) * optimal (Graham's bound).
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    costs = np.asarray(costs, dtype=float)
    if np.any(costs < 0):
        raise ValueError("costs must be non-negative")
    order = np.argsort(costs)[::-1]
    loads = np.zeros(n_workers)
    assignment: list[list[int]] = [[] for _ in range(n_workers)]
    for t in order:
        w = int(np.argmin(loads))
        assignment[w].append(int(t))
        loads[w] += costs[t]
    return assignment


def makespan(costs: Sequence[float], assignment: list[list[int]]) -> float:
    """Maximum total cost over workers for a given assignment."""
    costs = np.asarray(costs, dtype=float)
    return max((costs[w].sum() if len(w) else 0.0) for w in assignment)


@dataclass
class ScheduleReport:
    """Execution record of a task batch on this rank.

    Attributes
    ----------
    results : list
        Per-task results in task order.
    wall_times : ndarray
        Per-task wall time (s).
    total_time : float
    """

    results: list
    wall_times: np.ndarray
    total_time: float

    @property
    def mean_task_time(self) -> float:
        """Average per-task wall time (s)."""
        return float(self.wall_times.mean()) if self.wall_times.size else 0.0


def run_tasks(
    tasks: Sequence,
    fn: Callable,
    timer: Callable[[], float] = time.perf_counter,
    level: str = "",
) -> ScheduleReport:
    """Execute ``fn(task)`` for every task, recording per-task wall time.

    Fail-fast: the first exception aborts the batch.

    Parameters
    ----------
    tasks, fn, timer
        The batch, the task body and an injectable clock.
    level : str
        Parallelisation level this batch belongs to (labels the
        ``scheduler.*`` metrics; empty for unattributed batches).
    """
    results = []
    times = []
    tracer = get_tracer()
    metrics = get_metrics()
    with tracer.span("run_tasks", category="phase", n_tasks=len(tasks)):
        t_start = timer()
        for index, task in enumerate(tasks):
            with tracer.span("task", category="task", key=str(index)):
                t0 = timer()
                results.append(fn(task))
                times.append(timer() - t0)
                if metrics.enabled:
                    metrics.observe(
                        "scheduler.task_seconds", times[-1], level=level
                    )
        total_time = timer() - t_start
    if metrics.enabled:
        metrics.inc("scheduler.tasks", float(len(tasks)), level=level)
        metrics.observe("scheduler.batch_seconds", total_time, level=level)
    return ScheduleReport(results, np.array(times), total_time)
