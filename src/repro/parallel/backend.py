"""Execution backends: how one rank's chunks of energy points are run.

The transport driver (:mod:`repro.core.transport`) hands whole *chunks*
of independent energy points to an :class:`ExecutionBackend`, which runs
them serially, on threads, or on a ``ProcessPoolExecutor``.  Nothing is
shared between chunks: every (k, E) solve recomputes its own contact
self-energies (PAPER.md §1 step 3; docs/ARCHITECTURE.md "Why contacts
are recomputed"), so a chunk is a pure function of its payload and every
backend returns the same bits.

Backend choice is orthogonal to the 4-level decomposition model in
:mod:`repro.parallel.decomposition`: the decomposition says *which* rank
owns which (bias, k, energy) work items, the backend says how the work
of one rank is executed on the local machine.

* ``serial`` — plain loop, bit-identical to the historical path (default);
* ``thread`` — ``ThreadPoolExecutor``; numpy/LAPACK release the GIL, so
  threads overlap BLAS work without pickling anything;
* ``process`` — ``ProcessPoolExecutor``; full interpreter parallelism,
  requires picklable solvers (all of ours are); child-side tracer and
  metrics activity is captured per task and merged back into the parent
  registries with worker provenance (the telemetry contract of
  :mod:`repro.observability.telemetry`), so counters are exact on every
  backend.

Pools are created lazily and shared per ``(kind, workers)`` so repeated
``solve_bias`` calls (SCF iterations, IV sweeps, tests) do not leak
executors; everything is shut down at interpreter exit.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import (
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from concurrent.futures.process import BrokenProcessPool

from .. import env
from ..observability.metrics import get_metrics
from ..observability.telemetry import get_events

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "get_backend",
]

BACKEND_NAMES = ("serial", "thread", "process")


# ---------------------------------------------------------------------------
# execution backends


class ExecutionBackend:
    """Strategy for executing a list of independent work chunks.

    ``map(fn, items)`` must return results in item order (like the
    built-in ``map``) — the transport layer relies on that to reassemble
    energy grids deterministically.
    """

    name = "abstract"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        # elastic-execution counters (deadline-based straggler handling)
        self.stragglers = 0
        self.speculative_wins = 0
        self.pool_restarts = 0

    def elastic_stats(self) -> dict:
        """Straggler / speculative-execution counter snapshot."""
        return {
            "stragglers": self.stragglers,
            "speculative_wins": self.speculative_wins,
            "pool_restarts": self.pool_restarts,
        }

    def map(self, fn, items) -> list:
        """Run ``fn`` over ``items``, returning results in input order.

        Tasks must be independent: backends may execute them in any
        order, on any worker, and (for the elastic pooled backends)
        re-execute a task after a straggler timeout — ``fn`` therefore
        has to be idempotent and its arguments picklable on the
        process backend.
        """
        raise NotImplementedError

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """Plain in-process loop — the bit-identical reference backend."""

    name = "serial"

    def __init__(self, workers: int = 1):
        super().__init__(1)

    def map(self, fn, items) -> list:
        """Apply ``fn`` to each item in order, in this process."""
        return [fn(item) for item in items]


# shared lazily-created pools, keyed by (kind, workers); shut down at exit
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()


def _shared_pool(kind: str, workers: int):
    key = (kind, workers)
    with _POOLS_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if kind == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-worker"
                )
            else:
                pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every shared executor pool (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_pools)


def _resolve_deadline(deadline_s) -> float | None:
    """Per-chunk deadline in seconds, or None when elasticity is off.

    ``None`` falls back to ``$REPRO_DEADLINE_S`` (empty/unset = off);
    a non-positive value also disables the deadline.
    """
    if deadline_s is None:
        deadline_s = env.read("REPRO_DEADLINE_S")
        if deadline_s is None:
            return None
    deadline_s = float(deadline_s)
    return deadline_s if deadline_s > 0 else None


class ThreadBackend(ExecutionBackend):
    """ThreadPoolExecutor backend (numpy releases the GIL in BLAS).

    With a ``deadline_s``, a chunk that has not returned by its deadline
    is counted a straggler and *speculatively re-executed in the caller*;
    whichever copy finishes is used (the caller's copy wins here — the
    stuck thread keeps running but its result is discarded).  The clean
    path (no deadline, or every chunk on time) is untouched and therefore
    bit-identical to the historical backend.
    """

    name = "thread"

    def __init__(self, workers: int = 2, deadline_s: float | None = None):
        super().__init__(workers)
        self.deadline_s = deadline_s

    def map(self, fn, items) -> list:
        """Fan ``items`` out over the shared thread pool.

        Single-item batches short-circuit to an in-process call.  With
        a deadline configured, a task past it is abandoned (counted as
        a straggler) and re-executed inline so the batch still returns
        complete, in-order results.
        """
        if len(items) <= 1:
            return [fn(item) for item in items]
        deadline = _resolve_deadline(self.deadline_s)
        pool = _shared_pool("thread", self.workers)
        if deadline is None:
            return list(pool.map(fn, items))
        futures = [pool.submit(fn, item) for item in items]
        results = []
        metrics = get_metrics()
        for i, fut in enumerate(futures):
            try:
                results.append(fut.result(timeout=deadline))
            except FuturesTimeoutError:
                # straggler: recompute speculatively in the caller rather
                # than stalling the whole chunk list behind one hung task
                self.stragglers += 1
                if metrics.enabled:
                    metrics.inc("backend.stragglers", 1.0, backend=self.name)
                events = get_events()
                if events.enabled:
                    events.emit(
                        "straggler", backend=self.name, task=i,
                        deadline_s=deadline, action="speculate_inline",
                    )
                fut.cancel()
                results.append(fn(items[i]))
                self.speculative_wins += 1
                if metrics.enabled:
                    metrics.inc(
                        "backend.speculative_wins", 1.0, backend=self.name
                    )
        return results


class ProcessBackend(ExecutionBackend):
    """ProcessPoolExecutor backend.

    ``fn`` and every item must be picklable.  Child-side tracer/metrics
    updates are captured per task (:func:`repro.observability.telemetry.
    capture_telemetry`) and shipped back in the pickled result envelope
    of the task return path, then merged into the parent registries
    (:func:`repro.observability.telemetry.merge_delta`), so ``flops.*``
    and ``surface_gf.*`` totals match the serial backend exactly.

    With a ``deadline_s``, a chunk overdue past its deadline triggers an
    *orderly pool restart*: the shared pool is unregistered, cancelled and
    its worker processes terminated (a hung child cannot be cancelled any
    other way), already-finished results are salvaged, and everything
    outstanding is recomputed in the parent.  Clean path is untouched.
    """

    name = "process"

    def __init__(self, workers: int = 2, deadline_s: float | None = None):
        super().__init__(workers)
        self.deadline_s = deadline_s

    def _restart_pool(self) -> None:
        """Tear down the shared pool, terminating hung children."""
        key = ("process", self.workers)
        with _POOLS_LOCK:
            pool = _POOLS.pop(key, None)
        if pool is None:
            return
        procs = list(getattr(pool, "_processes", {}).values() or [])
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        self.pool_restarts += 1
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("backend.pool_restarts", 1.0, backend=self.name)

    def map(self, fn, items) -> list:
        """Fan ``items`` out over the shared process pool.

        Single-item batches short-circuit to an in-process call.  With
        a deadline configured, a hung or crashed worker is detected at
        the deadline, the pool is restarted (counted in
        ``backend.pool_restarts``), and the unfinished tasks are
        re-executed inline so the batch still returns complete,
        in-order results.
        """
        if len(items) <= 1:
            return [fn(item) for item in items]
        deadline = _resolve_deadline(self.deadline_s)
        pool = _shared_pool("process", self.workers)
        if deadline is None:
            return list(pool.map(fn, items))
        futures = [pool.submit(fn, item) for item in items]
        results: list = [None] * len(items)
        pending = list(range(len(items)))
        metrics = get_metrics()
        restarted = False
        for i in list(pending):
            if restarted:
                break
            try:
                results[i] = futures[i].result(timeout=deadline)
                pending.remove(i)
            except FuturesTimeoutError:
                self.stragglers += 1
                if metrics.enabled:
                    metrics.inc("backend.stragglers", 1.0, backend=self.name)
                events = get_events()
                if events.enabled:
                    events.emit(
                        "straggler", backend=self.name, task=i,
                        deadline_s=deadline, action="pool_restart",
                    )
                self._restart_pool()
                restarted = True
        if restarted:
            # salvage whatever already finished, recompute the rest here
            for i in list(pending):
                fut = futures[i]
                if fut.done() and not fut.cancelled():
                    try:
                        results[i] = fut.result(timeout=0)
                        pending.remove(i)
                        continue
                    except (BrokenProcessPool, CancelledError):
                        pass
                results[i] = fn(items[i])
                pending.remove(i)
                self.speculative_wins += 1
                if metrics.enabled:
                    metrics.inc(
                        "backend.speculative_wins", 1.0, backend=self.name
                    )
        return results


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def get_backend(name=None, workers=None) -> ExecutionBackend:
    """Resolve a backend from a name, an instance, or the environment.

    ``name=None`` falls back to ``$REPRO_BACKEND`` (default ``serial``);
    ``workers=None`` falls back to ``$REPRO_WORKERS`` (default 2 for the
    pooled backends).  Passing an :class:`ExecutionBackend` instance
    returns it unchanged, so APIs can accept either.
    """
    if isinstance(name, ExecutionBackend):
        return name
    if name is None:
        name = env.read("REPRO_BACKEND")
    name = str(name).lower()
    if name not in _BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if workers is None:
        workers = env.read("REPRO_WORKERS")
    if name == "serial":
        return SerialBackend()
    return _BACKENDS[name](workers=workers)
