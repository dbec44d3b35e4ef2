"""Communicator abstraction (mpi4py-subset API) with serial and traced backends.

The production simulator is an MPI code; its four-level parallelisation is
expressed through communicator splits (one sub-communicator per bias point,
split again over momentum, again over energy, again over spatial domains).
This module reproduces that structure with the same calling conventions as
mpi4py (``Get_rank``, ``Get_size``, ``Split``, lower-case object
collectives) so the driver code reads like the MPI original and could be
backed by real mpi4py unchanged.

Two backends are shipped:

* :class:`SerialComm` — a size-1 world; every collective degenerates to a
  copy.  This is what actually executes in this single-node reproduction.
* :class:`TracedComm` — a size-P *model*: rank 0 executes, but every
  collective records (operation, payload bytes, participant count) into a
  :class:`CommTrace`.  The performance model replays the trace against the
  simulated machine to charge communication time (substituting for the real
  221k-core runs, per DESIGN.md).

For resilience testing, :class:`UnreliableComm` wraps any backend and runs
every collective through a :class:`repro.resilience.FaultInjector` at site
``"comm"`` — a planted ``"dead_rank"`` raises
:class:`repro.errors.RankFailure` mid-collective, a ``"stall"`` models a
straggling rank, exactly the failure modes a petascale job must survive.
"""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CommTrace",
    "CommEvent",
    "SerialComm",
    "TracedComm",
    "UnreliableComm",
    "payload_nbytes",
]


@dataclass(frozen=True)
class CommEvent:
    """One recorded communication operation.

    ``level`` names the parallelisation level the operation belongs to
    (``"bias"``, ``"momentum"``, ``"energy"``, ``"spatial"`` — see
    :data:`repro.parallel.LEVEL_NAMES`), or ``""`` for unattributed ops.
    """

    op: str
    payload_bytes: int
    participants: int
    level: str = ""


@dataclass
class CommTrace:
    """Accumulated communication events of a traced run.

    The performance model replays ``events``; the per-(op, level)
    aggregates behind :meth:`total_bytes`, :meth:`count` and
    :meth:`by_level` are kept as events are recorded.
    """

    events: list = field(default_factory=list)

    def __post_init__(self):
        # exact running aggregates, keyed (op, level): [bytes, messages]
        self._totals: dict[tuple, list] = {}
        for e in self.events:
            self._tally(e)

    def _tally(self, event: CommEvent) -> None:
        key = (event.op, event.level)
        agg = self._totals.get(key)
        if agg is None:
            self._totals[key] = [event.payload_bytes, 1]
        else:
            agg[0] += event.payload_bytes
            agg[1] += 1

    def record(
        self, op: str, payload_bytes: int, participants: int,
        level: str = "",
    ) -> None:
        """Append one event and add it to the aggregates."""
        event = CommEvent(op, int(payload_bytes), int(participants), level)
        self._tally(event)
        self.events.append(event)

    def total_bytes(self, level: str | None = None) -> int:
        """Exact payload-byte total (optionally of one level)."""
        return sum(
            agg[0]
            for (op, lv), agg in self._totals.items()
            if level is None or lv == level
        )

    def count(self, op: str | None = None, level: str | None = None) -> int:
        """Exact message count, filtered by operation and/or level."""
        return sum(
            agg[1]
            for (o, lv), agg in self._totals.items()
            if (op is None or o == op) and (level is None or lv == level)
        )

    def by_level(self) -> dict:
        """Per-level totals: ``{level: {"bytes": b, "messages": n}}``."""
        return self._grouped(lambda op, level: level)

    def by_op(self, level: str | None = None) -> dict:
        """Per-operation totals: ``{op: {"bytes": b, "messages": n}}``."""
        return self._grouped(
            lambda op, lv: op if level is None or lv == level else None
        )

    def _grouped(self, group) -> dict:
        out: dict[str, dict] = {}
        for (op, level), (nbytes, n) in self._totals.items():
            key = group(op, level)
            if key is not None:
                row = out.setdefault(key, {"bytes": 0, "messages": 0})
                row["bytes"] += nbytes
                row["messages"] += n
        return out


def payload_nbytes(obj) -> int:
    """Wire size of a payload object, sizing nested containers recursively.

    ndarrays report their exact buffer size; lists/tuples/dicts/sets are
    the sum of their items (plus a small per-container overhead, matching
    what a pickled header costs) — *not* the bare object-header size that
    ``pickle`` of an array-of-objects would undercount.  Scalars and
    other leaves fall back to their pickled size.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(payload_nbytes(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    if isinstance(obj, (bool, int, float, complex, np.generic)):
        return max(sys.getsizeof(obj) - 16, 1)  # payload sans PyObject head
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable payloads are a bug
        return 0


# backwards-compatible internal alias (pre-existing call sites)
_nbytes = payload_nbytes


class SerialComm:
    """A size-1 communicator: all collectives are identity operations."""

    def __init__(self):
        self._rank = 0
        self._size = 1

    def Get_rank(self) -> int:
        """This process's rank (always 0)."""
        return self._rank

    def Get_size(self) -> int:
        """World size (always 1)."""
        return self._size

    def Split(self, color: int, key: int = 0) -> "SerialComm":
        """Sub-communicator (trivially another serial comm)."""
        return SerialComm()

    def barrier(self) -> None:
        """No-op."""

    def bcast(self, obj, root: int = 0):
        """Broadcast (identity)."""
        return obj

    def gather(self, obj, root: int = 0):
        """Gather: the single rank's contribution."""
        return [obj]

    def allgather(self, obj):
        """Allgather: list with one entry."""
        return [obj]

    def allreduce(self, value, op: str = "sum"):
        """Allreduce over one rank = the value itself."""
        return value

    def scatter(self, objs, root: int = 0):
        """Scatter a 1-element list."""
        if objs is None or len(objs) != 1:
            raise ValueError("serial scatter needs a 1-element list")
        return objs[0]


class TracedComm:
    """A modelled size-P communicator executing on one real process.

    Rank identity is fixed at construction; collectives behave as if every
    rank contributed the same payload shape and record their cost into the
    shared :class:`CommTrace`.  Semantically this backend is only exact for
    the map-reduce communication patterns the driver uses (broadcast of
    inputs, gather/allreduce of partial integrals) — point-to-point
    pipelines would need real concurrency and are modelled analytically in
    :mod:`repro.perf` instead.
    """

    def __init__(
        self,
        size: int,
        rank: int = 0,
        trace: CommTrace | None = None,
        level: str = "",
    ):
        if size < 1:
            raise ValueError("communicator size must be >= 1")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} outside [0, {size})")
        self._size = size
        self._rank = rank
        self.trace = trace if trace is not None else CommTrace()
        self.level = level

    def Get_rank(self) -> int:
        """Modelled rank."""
        return self._rank

    def Get_size(self) -> int:
        """Modelled size."""
        return self._size

    def Split(self, color: int, key: int = 0) -> "TracedComm":
        """Split: the sub-communicator shares the trace (and level label).

        The modelled sub-size must be supplied implicitly by the caller's
        decomposition; since only rank 0 executes, the split returns a
        communicator of the same trace with size = number of ranks sharing
        ``color`` — unknown here, so the caller should use
        :meth:`split_sized` when it knows the sub-size.
        """
        return TracedComm(1, 0, self.trace, level=self.level)

    def split_sized(
        self, sub_size: int, sub_rank: int = 0, level: str | None = None
    ) -> "TracedComm":
        """Explicit-size split used by the level decomposition.

        ``level`` labels every collective of the sub-communicator with the
        parallelisation level it serves (``"bias"``/``"momentum"``/
        ``"energy"``/``"spatial"``); None inherits the parent's label.
        """
        sub_level = self.level if level is None else level
        return TracedComm(sub_size, sub_rank, self.trace, level=sub_level)

    def barrier(self) -> None:
        """Record a zero-payload synchronisation."""
        self.trace.record("barrier", 0, self._size, level=self.level)

    def bcast(self, obj, root: int = 0):
        """Broadcast; cost recorded for a binomial tree."""
        self.trace.record("bcast", _nbytes(obj), self._size, level=self.level)
        return obj

    def gather(self, obj, root: int = 0):
        """Gather; every modelled rank is assumed to send an equal payload."""
        self.trace.record(
            "gather", _nbytes(obj) * self._size, self._size, level=self.level
        )
        return [obj] * self._size if self._rank == root else None

    def allgather(self, obj):
        """Allgather with equal payloads."""
        self.trace.record(
            "allgather", _nbytes(obj) * self._size, self._size,
            level=self.level,
        )
        return [obj] * self._size

    def allreduce(self, value, op: str = "sum"):
        """Allreduce; the modelled result multiplies/reduces equal payloads.

        Since only one rank actually executes, the reduction over P equal
        contributions is value * P for "sum" and value for "max"/"min".
        """
        self.trace.record(
            "allreduce", _nbytes(value), self._size, level=self.level
        )
        if op == "sum":
            if isinstance(value, np.ndarray):
                return value * self._size
            return value * self._size
        if op in ("max", "min"):
            return value
        raise ValueError(f"unsupported allreduce op {op!r}")

    def scatter(self, objs, root: int = 0):
        """Scatter a list of length size; this rank receives its element."""
        if objs is None or len(objs) != self._size:
            raise ValueError(f"scatter needs a list of length {self._size}")
        self.trace.record(
            "scatter", sum(_nbytes(o) for o in objs), self._size,
            level=self.level,
        )
        return objs[self._rank]


class UnreliableComm:
    """Fault-injecting decorator around any communicator backend.

    Every collective first fires the injector at site ``"comm"`` with key
    ``(op, call_number)`` — deterministic per seed, independent of payload
    — then delegates to the wrapped comm.  ``"raise"``/``"dead_rank"``
    actions surface as typed exceptions for the driver's requeue logic;
    ``"stall"`` sleeps (straggler); ``"nan"`` is meaningless for control
    messages and passes clean.

    Parameters
    ----------
    comm
        Any object with the mpi4py-subset duck type of this module.
    injector : repro.resilience.FaultInjector
    """

    def __init__(self, comm, injector):
        self._comm = comm
        self._injector = injector
        self._calls = 0

    def _roll(self, op: str) -> None:
        self._calls += 1
        self._injector.fire("comm", (op, self._calls))

    def Get_rank(self) -> int:
        """Rank of the wrapped comm."""
        return self._comm.Get_rank()

    def Get_size(self) -> int:
        """Size of the wrapped comm."""
        return self._comm.Get_size()

    def Split(self, color: int, key: int = 0):
        """Split the wrapped comm; the child shares the injector."""
        return UnreliableComm(self._comm.Split(color, key), self._injector)

    def barrier(self) -> None:
        """Fault-checked barrier."""
        self._roll("barrier")
        self._comm.barrier()

    def bcast(self, obj, root: int = 0):
        """Fault-checked broadcast."""
        self._roll("bcast")
        return self._comm.bcast(obj, root)

    def gather(self, obj, root: int = 0):
        """Fault-checked gather."""
        self._roll("gather")
        return self._comm.gather(obj, root)

    def allgather(self, obj):
        """Fault-checked allgather."""
        self._roll("allgather")
        return self._comm.allgather(obj)

    def allreduce(self, value, op: str = "sum"):
        """Fault-checked allreduce."""
        self._roll("allreduce")
        return self._comm.allreduce(value, op)

    def scatter(self, objs, root: int = 0):
        """Fault-checked scatter."""
        self._roll("scatter")
        return self._comm.scatter(objs, root)
