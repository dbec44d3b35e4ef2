"""Deterministic, seedable fault injection.

Resilience code that is only exercised by real failures is dead code until
the worst possible moment.  :class:`FaultInjector` plants faults at named
*sites*, each owned by the one layer that fires it, so every recovery path
runs in tests and CI without a test hook in production control flow:

============  ==========================================================
site          owner (key)
============  ==========================================================
``hblock``    the solver wrapper, :meth:`FaultInjector.plant`: fires when
              a k-point builds a solver and corrupts its Hamiltonian
              (k index)
``energy``    the solver wrapper, :class:`PlantedSolver`: one row of a
              stacked solve (``(k index, energy)``)
``worker``    the solver wrapper, inside a pool worker only
              (``(k index, first energy of the call)``)
``rank``      :class:`repro.core.DistributedTransport`, rank entry (rank)
``bias``      :class:`repro.core.IVSweep`, one bias point per attempt
``comm``      :class:`repro.parallel.UnreliableComm`, every collective
              (``(op, call number)``)
============  ==========================================================

Both (k, E) drivers — the bias loop of :mod:`repro.core.transport` and
the ranks of :class:`repro.core.DistributedTransport` — solve through one
node solver, which applies the injector in one place — where a k-point
builds the solvers of its ladder rungs — and otherwise runs its one
production path: a planted fault is something a solver does.  On the
process backend the planted solver rides each chunk payload into a pool
worker, carrying a pickled copy of the injector; the faults that copy
fires come back in the chunk's telemetry delta and the parent accounts
them in chunk order (:meth:`FaultInjector.absorb`), so a drill heals and
is accounted as on the serial backend.  The one difference: the chunks
of one dispatch each start from the account as it stood at dispatch, so
together they can fire past ``max_faults``.

Determinism is by construction, not by call order: each (site, key)
decision hashes ``(seed, site, key)`` with BLAKE2 — the same seed always
faults the same tasks, no matter how the work is scheduled or retried.
By default a fired fault is *transient* (``once=True``): the first attempt
at a (site, key) fails and the retry succeeds, which is the common
machine-check / flaky-node mode.  ``once=False`` models hard faults that
persist until the task is quarantined.

Actions
-------
``"raise"``      raise :class:`repro.errors.TaskFailure`;
``"nan"``        tell the caller to corrupt the result with NaN;
``"illcond"``    tell the caller to wreck its operator's conditioning;
``"stall"``      sleep :attr:`FaultInjector.STALL_SECONDS` (straggler), then
                 proceed;
``"hang"``       sleep ``hang_seconds`` (hung worker — long enough to
                 blow any sane backend deadline), then proceed;
``"dead_rank"``  raise :class:`repro.errors.RankFailure`.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from ..errors import RankFailure, TaskFailure
from ..observability.invariants import Ledger
from ..parallel.backend import in_worker

__all__ = [
    "InjectedFault",
    "FaultInjector",
    "PlantedSolver",
    "corrupt_hamiltonian",
    "non_finite",
    "nan_like",
]

_ACTIONS = ("raise", "nan", "illcond", "stall", "hang", "dead_rank")


@dataclass(frozen=True)
class InjectedFault:
    """Record of one fired fault."""

    site: str
    key: object
    action: str


def _u01(seed: int, site: str, key, salt: str = "") -> float:
    """Order-independent uniform deviate in [0, 1) for a (site, key)."""
    import hashlib

    payload = f"{seed}|{site}|{key!r}|{salt}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class FaultInjector:
    """Plant deterministic faults at named execution sites.

    Parameters
    ----------
    seed : int
        Determinism seed; same seed -> same faults.
    rate : float
        Per-(site, key) fault probability for sites in ``sites``.
    actions : tuple of str
        Action pool for rate-based faults (chosen by a second hash).
    sites : tuple of str or None
        Sites subject to rate-based injection (None = all sites).
    plan : dict or None
        Explicit ``{(site, key): action}`` faults, e.g.
        ``{("rank", 2): "dead_rank"}`` — fires regardless of ``rate``.
    once : bool
        Transient faults: each (site, key) fires at most once (default),
        once per rank of a distributed solve (:meth:`on_rank`).
    hang_seconds : float
        Duration of a ``"hang"`` fault (a hung worker; pick it longer
        than the backend deadline under test).
    max_faults : int or None
        Global cap on fired faults (None = unlimited); the pool chunks
        of one dispatch can overshoot it (module docstring).

    Fired faults go into one
    :class:`~repro.observability.invariants.Ledger` keyed by action:
    :attr:`injected` keeps the first ``Ledger.MAX_RECORDS``, while
    :meth:`count`, :attr:`n_injected` and the ``max_faults`` cap read
    exact counts.
    """

    #: Duration (s) of a ``"stall"`` fault.
    STALL_SECONDS = 0.01

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.0,
        actions: tuple = ("raise", "nan"),
        sites: tuple | None = None,
        plan: dict | None = None,
        once: bool = True,
        hang_seconds: float = 30.0,
        max_faults: int | None = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        for action in actions:
            if action not in _ACTIONS:
                raise ValueError(f"unknown fault action {action!r}")
        for action in (plan or {}).values():
            if action not in _ACTIONS:
                raise ValueError(f"unknown fault action {action!r}")
        self.seed = seed
        self.rate = rate
        self.actions = tuple(actions)
        self.sites = tuple(sites) if sites is not None else None
        self.plan = dict(plan or {})
        self.once = once
        self.hang_seconds = hang_seconds
        self.max_faults = max_faults
        self.ledger = Ledger()
        self._fired: set = set()
        #: The rank whose ``once`` bookkeeping this view keeps
        #: (:meth:`on_rank`); None outside a distributed solve.
        self.rank = None

    def on_rank(self, rank: int) -> "FaultInjector":
        """This injector as rank ``rank`` of a distributed solve holds it.

        The view shares the plan, the seed and the account
        (:attr:`ledger`, ``max_faults``) but keeps ``once`` per rank, as
        each rank's own copy of the injector does on a real communicator.
        So a transient ``("hblock", ik)`` fault drills k-point ``ik`` on
        every rank that builds its solver, and a distributed solve heals
        the same nodes as the local one.
        """
        view = copy.copy(self)
        view.rank = rank
        return view

    # ------------------------------------------------------------------
    def decide(self, site: str, key) -> str | None:
        """The action to inject at (site, key), or None for a clean pass."""
        if self.max_faults is not None and self.n_injected >= self.max_faults:
            return None
        if self.once and (site, key, self.rank) in self._fired:
            return None
        action = self.plan.get((site, key))
        if action is None and self.rate > 0.0:
            if self.sites is None or site in self.sites:
                if _u01(self.seed, site, key) < self.rate:
                    pick = _u01(self.seed, site, key, salt="action")
                    action = self.actions[int(pick * len(self.actions))]
        return action

    def fire(self, site: str, key) -> str | None:
        """Inject at (site, key): may raise, stall, or return a marker.

        Returns ``"nan"`` / ``"illcond"`` when the caller should corrupt
        its own result or operator, None for a clean pass.  ``"raise"``
        and ``"dead_rank"`` raise :class:`TaskFailure` /
        :class:`RankFailure` with ``injected=True``; ``"stall"`` and
        ``"hang"`` sleep in place and then pass clean.
        """
        action = self.decide(site, key)
        if action is None:
            return None
        self._fired.add((site, key, self.rank))
        self.ledger.add(action, InjectedFault(site, key, action))
        if action == "raise":
            raise TaskFailure(
                f"injected fault at {site}:{key!r}", key=key, injected=True
            )
        if action == "dead_rank":
            rank = key if isinstance(key, int) else -1
            raise RankFailure(
                f"injected rank failure at {site}:{key!r}",
                rank=rank,
                injected=True,
            )
        if action == "stall":
            time.sleep(self.STALL_SECONDS)
            return None
        if action == "hang":
            time.sleep(self.hang_seconds)
            return None
        return action

    def plant(self, build, H, ik):
        """``build(H)`` with this injector's three (k, E) sites planted.

        The ``"hblock"`` site fires first, keyed by the k index ``ik``: a
        ``"nan"`` / ``"illcond"`` action corrupts ``H``
        (:func:`corrupt_hamiltonian`) before ``build`` sees it.  The
        solver comes back as a :class:`PlantedSolver` carrying the
        ``"energy"`` and ``"worker"`` sites.
        """
        mode = self.fire("hblock", ik)
        if mode is not None:
            H = corrupt_hamiltonian(H, mode)
        return PlantedSolver(build(H), self, ik)

    def absorb(self, faults, counts: dict) -> None:
        """Account faults a pool worker's copy of this injector fired.

        A planted solver rides a chunk payload into the worker with a
        pickled copy of its injector; the chunk's delta brings back what
        that copy fired — the kept ``faults``, in order, and the
        per-action ``counts`` — and this accounts it here as though
        fired here, so ``once`` keeps a healed node clean when the
        parent solves it again, and the ledger is the serial account.
        """
        self._fired.update((f.site, f.key, self.rank) for f in faults)
        self.ledger.absorb(faults, counts)

    # ------------------------------------------------------------------
    @property
    def injected(self) -> list[InjectedFault]:
        """The kept fired faults, the first ones, in order."""
        return self.ledger.records

    @property
    def n_injected(self) -> int:
        """Number of faults fired so far."""
        return self.ledger.total

    def count(self, action: str | None = None) -> int:
        """Fired faults, optionally of one action type."""
        if action is None:
            return self.n_injected
        return self.ledger.counts.get(action, 0)


class PlantedSolver:
    """A transport solver of one k-point with the ``"energy"`` and
    ``"worker"`` sites planted.

    Every solver a k-point builds — both kernels and the dense oracle —
    is its contacts (``contacts.sigma_stacks``) followed by its
    ``kernel_stage``.  :meth:`solve_batch` fires the ``"worker"`` site
    (inside a pool worker only, keyed ``(ik, first energy of the call)``)
    and the ``"energy"`` site of each energy (keyed ``(ik, energy)``):
    ``"raise"`` raises from the call, ``"stall"`` / ``"hang"`` sleep, and
    a marker (``"nan"``, ``"illcond"``) poisons the row — its energy
    enters the kernel stage as NaN after clean contacts, so that row
    alone comes out non-finite and the kernel's own ``finite`` mask and
    sentinel site report it.  A worker marker poisons every row of the
    call.  Picklable: the injector rides the chunk payloads into pool
    workers.
    """

    def __init__(self, solver, injector, ik):
        self.solver = solver
        self.injector = injector
        self.ik = ik

    @property
    def H(self):
        """The wrapped solver's Hamiltonian."""
        return self.solver.H

    def solve_batch(self, energies):
        """The wrapped ``solve_batch`` with this k-point's faults fired."""
        energies = np.asarray(energies, dtype=float).ravel()
        fire, ik = self.injector.fire, self.ik
        every = energies.size > 0 and in_worker() and (
            fire("worker", (ik, float(energies[0]))) is not None
        )
        poisoned = np.array([fire("energy", (ik, e)) is not None or every
                             for e in energies.tolist()], dtype=bool)
        if not poisoned.any():
            return self.solver.solve_batch(energies)
        return self.solver.kernel_stage(
            np.where(poisoned, np.nan, energies),
            *self.solver.contacts.sigma_stacks(energies),
        )


def corrupt_hamiltonian(H, mode: str):
    """Numerical-fault injection: return a corrupted copy of ``H``.

    ``mode="nan"`` poisons the middle diagonal block with NaN (the silent
    breakdown every sentinel must catch); ``mode="illcond"`` adds a huge
    rank-one Hermitian perturbation, driving the block-LU condition
    estimate past any sane threshold while every entry stays finite.
    """
    from ..tb.hamiltonian import BlockTridiagonalHamiltonian

    diag = [np.array(d, dtype=complex) for d in H.diagonal]
    upper = [np.array(u, dtype=complex) for u in H.upper]
    mid = len(diag) // 2
    if mode == "nan":
        diag[mid] = np.full_like(diag[mid], complex(float("nan"), 0.0))
    elif mode == "illcond":
        m = diag[mid].shape[0]
        diag[mid] = diag[mid] + 1e14 * np.ones((m, m), dtype=complex)
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return BlockTridiagonalHamiltonian(diag, upper)


# ----------------------------------------------------------------------
def non_finite(obj) -> bool:
    """True if any float/complex leaf of ``obj`` is NaN or inf.

    Walks ndarrays, dataclasses, dicts, lists and tuples; non-numeric
    leaves are ignored.  This is the breakdown detector guarding every
    resilient execution path.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fc":
            return bool(~np.all(np.isfinite(obj)))
        return False
    if isinstance(obj, (float, complex, np.floating, np.complexfloating)):
        return bool(~np.isfinite(obj))
    if isinstance(obj, dict):
        return any(non_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(non_finite(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return any(
            non_finite(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        )
    return False


def nan_like(obj):
    """A NaN-corrupted copy of ``obj`` (the payload of a ``"nan"`` fault).

    Float and complex leaves become NaN and boolean arrays False — a
    kernel result stack's ``finite`` mask then rejects every row.
    """
    if isinstance(obj, np.ndarray):
        out = np.array(obj)
        if out.dtype.kind in "fc":
            out[...] = np.nan
        elif out.dtype.kind == "b":
            out[...] = False
        return out
    if isinstance(obj, (float, np.floating)):
        return float("nan")
    if isinstance(obj, (complex, np.complexfloating)):
        return complex("nan+nanj")
    if isinstance(obj, dict):
        return {k: nan_like(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [nan_like(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(nan_like(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.replace(
            obj,
            **{
                f.name: nan_like(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if isinstance(
                    getattr(obj, f.name),
                    (float, complex, np.floating, np.complexfloating, np.ndarray),
                )
            },
        )
    return obj
