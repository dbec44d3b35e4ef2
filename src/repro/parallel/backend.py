"""Execution backends: how one rank's chunks of energy points are run.

The transport driver (:mod:`repro.core.transport`) hands whole *chunks*
of independent energy points to an :class:`ExecutionBackend`, which runs
them serially or on a ``ProcessPoolExecutor``.  Nothing is
shared between chunks: every (k, E) solve recomputes its own contact
self-energies (PAPER.md §1 step 3; docs/ARCHITECTURE.md "Why contacts
are recomputed"), so a chunk is a pure function of its payload and every
backend returns the same bits.

Backend choice is orthogonal to the 4-level decomposition model in
:mod:`repro.parallel.decomposition`: the decomposition says *which* rank
owns which (bias, k, energy) work items, the backend says how the work
of one rank is executed on the local machine.

* ``serial`` — plain loop, bit-identical to the historical path (default);
* ``process`` — ``ProcessPoolExecutor``; full interpreter parallelism,
  requires picklable solvers (all of ours are); a transport chunk runs
  in the child under the parent's run recorder and what it records —
  spans, metrics, sentinel trips, monitor violations, fired faults — is
  merged back into the parent with worker provenance (the telemetry
  contract of :mod:`repro.observability.telemetry`), so counters and
  ledgers are exact on every backend.

Pools are created lazily and shared per worker count so repeated
``solve_bias`` calls (SCF iterations, IV sweeps, tests) do not leak
executors; a pool whose child died is dropped, and everything is shut
down at interpreter exit.
"""

from __future__ import annotations

import atexit
import ctypes
import threading

from .. import env
from ..observability.telemetry import get_events, get_metrics, in_worker

__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "get_backend",
    "in_worker",
]

BACKEND_NAMES = ("serial", "process")


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
        order, on any worker, and (the process backend, with a deadline)
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


# shared lazily-created process pools, keyed by worker count; shut down at
# exit
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()
#: ``mallopt`` settings of every process-pool worker, (parameter, value):
#: glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD (its 64-bit maximum), so
#: the block arrays a stacked kernel stage frees stay in the worker's heap
#: for the next stage instead of going back to the OS and faulting in
#: again (docs/PARALLELISM.md "Worker heaps").
WORKER_MALLOPT = ((-1, 256 << 20), (-3, 32 << 20))


def _keep_heap() -> None:
    """Process-pool worker initializer: apply :data:`WORKER_MALLOPT`; a
    no-op where the C library has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in WORKER_MALLOPT:
        mallopt(param, value)


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    from concurrent.futures import ProcessPoolExecutor

    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_keep_heap
            )
            _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every shared executor pool (idempotent)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_pools)


def _resolve_deadline() -> float | None:
    """Per-chunk deadline in seconds, ``$REPRO_DEADLINE_S``, or None when
    elasticity is off (empty/unset or a non-positive value)."""
    deadline_s = env.read("REPRO_DEADLINE_S")
    return deadline_s if deadline_s is not None and deadline_s > 0 else None


class ProcessBackend(ExecutionBackend):
    """ProcessPoolExecutor backend on the pool shared per worker count.

    ``fn`` and every item must be picklable.  A transport chunk records
    under the parent recorder's spec in the child
    (:func:`repro.observability.telemetry.capture_telemetry`) and ships
    what it recorded back in its result envelope, which the parent merges
    (:func:`repro.observability.telemetry.merge_delta`), so ``flops.*``
    totals, sentinel trips and fault accounts match the serial backend
    exactly.

    With a deadline, ``$REPRO_DEADLINE_S`` (read at every :meth:`map`;
    without one a result is awaited for as long as it takes), a chunk
    overdue past it triggers an *orderly pool restart*: the
    shared pool is unregistered, cancelled and its worker processes
    terminated (a hung child cannot be cancelled any other way),
    already-finished results are salvaged, and everything outstanding is
    recomputed in the parent.  A child that dies breaks its pool for
    good: the pool is dropped the same way and ``BrokenProcessPool``
    propagates, so the next call starts a fresh pool.  Clean path is
    untouched.
    """

    name = "process"

    def __init__(self, workers: int = 2):
        super().__init__(workers)

    def map(self, fn, items) -> list:
        """Fan ``items`` out over the shared pool, results in order.

        Single-item batches short-circuit to an in-process call.  Every
        result is awaited up to the deadline (None: for as long as it
        takes); a task past it is a straggler: the pool is restarted
        (counted in ``backend.pool_restarts``), whatever already finished
        is salvaged and the unfinished tasks are re-executed inline, so
        the batch still returns complete, in-order results.
        """
        if len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import CancelledError
        from concurrent.futures import TimeoutError as FuturesTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        deadline = _resolve_deadline()
        pool = _shared_pool(self.workers)
        results: list = [None] * len(items)
        try:
            futures = [pool.submit(fn, item) for item in items]
            for i, fut in enumerate(futures):
                results[i] = fut.result(timeout=deadline)
                # let a read future go at once, as ``Executor.map`` does:
                # kept, it holds its chunk's result past this call
                futures[i] = None
            return results
        except FuturesTimeoutError:
            pass
        except BrokenProcessPool:
            # a dead child breaks its executor for good: drop it so the
            # next call starts a fresh pool instead of failing forever
            self._restart_pool()
            raise
        # straggler: restart the pool, salvage whatever already finished
        # and recompute the rest here
        self._count("stragglers")
        events = get_events()
        if events.enabled:
            events.emit("straggler", backend=self.name, task=i,
                        deadline_s=deadline, action="pool_restart")
        self._restart_pool()
        for j in range(i, len(items)):
            fut = futures[j]
            if fut.done() and not fut.cancelled():
                try:
                    results[j] = fut.result(timeout=0)
                    continue
                except (BrokenProcessPool, CancelledError):
                    pass
            results[j] = fn(items[j])
            self._count("speculative_wins")
        return results

    def _count(self, counter: str) -> None:
        """Bump one elastic counter and its ``backend.<counter>`` metric."""
        setattr(self, counter, getattr(self, counter) + 1)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc(f"backend.{counter}", 1.0, backend=self.name)

    def _restart_pool(self) -> None:
        """Tear down the shared pool, terminating hung children."""
        with _POOLS_LOCK:
            pool = _POOLS.pop(self.workers, None)
        if pool is None:
            return
        procs = list((pool._processes or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        self._count("pool_restarts")


def get_backend(name=None, workers=None) -> ExecutionBackend:
    """Resolve a backend from a name, an instance, or the environment.

    ``name=None`` falls back to ``$REPRO_BACKEND`` (default ``serial``);
    ``workers=None`` falls back to ``$REPRO_WORKERS`` (default 2 for the
    process backend).  Passing an :class:`ExecutionBackend` instance
    returns it unchanged, so APIs can accept either.
    """
    if isinstance(name, ExecutionBackend):
        return name
    if name is None:
        name = env.read("REPRO_BACKEND")
    name = str(name).lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if workers is None:
        workers = env.read("REPRO_WORKERS")
    if name == "serial":
        return SerialBackend()
    return ProcessBackend(workers=workers)
