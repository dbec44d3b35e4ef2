"""Zero-copy execution plans over POSIX shared memory (ISSUE 7).

The process backend used to re-pickle the full solver — every Hamiltonian
block, both lead descriptors, the energy grid — into *each* chunk payload,
so the bytes shipped per energy-point task scaled with the device size
instead of with the work description.  This module inverts that: the
immutable per-bias solve state is published **once** into a
``multiprocessing.shared_memory`` segment as a :class:`DevicePlan`, workers
attach the segment and memory-map the arrays read-only, and a task payload
shrinks to ``(plan_id, slot_indices)``.  Results come back through a
preallocated :class:`ResultArena` — a second shared segment of fixed-width
float64 rows — instead of being pickled through the pool.

Two modes keep every execution path bit-identical:

* ``"shared"`` — real shared-memory segments; used by the process backend.
  Workers rebuild their solver from zero-copy views of the published
  blocks, which hold the same float64/complex128 bytes the parent solver
  was built from.
* ``"local"`` — the identical API over plain in-process references; used
  by the serial and thread backends (and by the parent when it salvages a
  restarted pool's work).  No copy, no hash mismatch, no behaviour change.

Plans can also *grow* without republishing: arrays published with
``reserve`` capacity (the adaptive energy-wave loop reserves room for
bisection nodes up front) keep an owner-side writable view, and
:meth:`DevicePlan.append_slots` writes each refinement wave's new
energies straight into the already-mapped segment — attached workers see
them through the same pages, counted under ``ipc.slot_appends``.

Lifecycle: a published plan starts with refcount 1; :meth:`DevicePlan.release`
drops it and the segment is closed+unlinked at zero.  Everything published
and not yet released is visible through :func:`active_plans`, and an
``atexit`` sweep (:func:`unlink_leaked_plans`) warns about — and reclaims —
segments that would otherwise outlive the interpreter (counted under the
``ipc.plan_leaks`` metric).  A worker killed by the process backend's
hung-pool restart cannot leak a segment: attachments die with the process
and the parent still owns the name.

Observability: publish/attach timings, segment sizes and per-task payload
bytes are recorded under the ``ipc.*`` metric namespace (see
``docs/OBSERVABILITY.md``) whenever a :class:`~repro.observability.metrics.
MetricsRegistry` is active.  When a tracer or registry is live, a
:class:`~repro.observability.telemetry.TelemetrySidecar` — one more
fixed-width shared segment — rides next to the :class:`ResultArena` so
each worker's tracer/metrics delta returns through shared memory and the
parent's merged totals stay exact on the zero-copy path too.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import struct
import threading
import time
import warnings
from collections import OrderedDict
from multiprocessing import shared_memory

import numpy as np

from ..observability.metrics import get_metrics

__all__ = [
    "DevicePlan",
    "PlanCapacityError",
    "PlanLeakWarning",
    "ResultArena",
    "active_plans",
    "attached_plans",
    "detach_all",
    "unlink_leaked_plans",
    "zero_copy_enabled",
]

#: bytes reserved at the start of a segment for (header_len, data_start)
_PRELUDE = struct.Struct("<QQ")
#: alignment of the data block and of every array inside it
_ALIGN = 64

# plans/arenas this process *published* (it owns the segment names)
_PUBLISHED: "OrderedDict[str, DevicePlan]" = OrderedDict()
# plans/arenas this process *attached* (bounded per-process cache)
_ATTACHED: "OrderedDict[str, DevicePlan]" = OrderedDict()
_ATTACH_CACHE_SIZE = 8
_REGISTRY_LOCK = threading.Lock()
_LOCAL_IDS = itertools.count()


class PlanLeakWarning(ResourceWarning):
    """A shared-memory plan survived to interpreter shutdown unreleased."""


class PlanCapacityError(ValueError):
    """An :meth:`DevicePlan.append_slots` call overran reserved capacity.

    Callers that grow a plan incrementally (the adaptive energy-wave
    loop) catch this to fall back to legacy pickled dispatch for the
    overflow instead of republishing the whole segment mid-run.
    """


def zero_copy_enabled(flag=None) -> bool:
    """Resolve a zero-copy request against ``$REPRO_ZERO_COPY``.

    Parameters
    ----------
    flag : bool or None
        An explicit request wins; ``None`` falls back to the environment
        variable (truthy values: ``1/true/yes/on``, case-insensitive).

    Returns
    -------
    bool
        Whether the zero-copy plan path should be used.
    """
    if flag is not None:
        return bool(flag)
    raw = (os.environ.get("REPRO_ZERO_COPY") or "").strip().lower()
    return raw in ("1", "true", "yes", "on")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _attach_untracked(name: str):
    """Open an existing segment without resource-tracker registration.

    CPython < 3.13 registers *attached* segments with the resource
    tracker (bpo-39959): the tracker would unlink a segment the parent
    still owns when any attaching child exits, and — because its cache
    is a set shared by the whole process tree — concurrent attachments
    of one name spam ``KeyError`` in the tracker on cleanup.  Only the
    owner's registration (made at publish) must stand, so registration
    is suppressed for the duration of the open.  3.13+ has
    ``track=False`` for exactly this; the monkeypatch is the documented
    workaround for earlier interpreters.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shm(rname, rtype):
            if rtype != "shared_memory":
                original(rname, rtype)

        resource_tracker.register = _skip_shm
    except Exception:
        resource_tracker = original = None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        if original is not None:
            resource_tracker.register = original


def _fingerprint(arrays: dict, meta: dict, payload: bytes | None) -> str:
    """Content hash of a plan: arrays + metadata + opaque payload."""
    digest = hashlib.sha1()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.dtype.str.encode())
        digest.update(arr.tobytes())
    digest.update(repr(sorted(meta.items())).encode())
    if payload:
        digest.update(payload)
    return digest.hexdigest()


class DevicePlan:
    """Immutable solve state published once, referenced by id everywhere.

    A plan bundles named numpy arrays (Hamiltonian blocks, energy grid),
    a small picklable ``meta`` dict and an optional opaque pickled
    ``payload`` blob under a single ``plan_id``.  Use the classmethods:
    :meth:`publish` on the owning side, :meth:`attach` everywhere else.

    Attributes
    ----------
    plan_id : str
        Shared-memory segment name (``"shared"`` mode) or a process-local
        token (``"local"`` mode); this is the whole task-payload cost.
    mode : {"shared", "local"}
        Real segment vs plain in-process references.
    fingerprint : str
        sha1 over array bytes + meta + payload; stable across processes,
        used to derive self-energy cache tokens without re-hashing the
        lead blocks in every worker.
    meta : dict
        Small picklable metadata published with the arrays.
    nbytes : int
        Segment size (shared) or logical array bytes (local).
    """

    def __init__(self, *_forbidden, **_also):
        raise TypeError(
            "use DevicePlan.publish(...) or DevicePlan.attach(plan_id)"
        )

    @classmethod
    def _blank(cls) -> "DevicePlan":
        self = object.__new__(cls)
        self.plan_id = ""
        self.mode = "local"
        self.meta = {}
        self.fingerprint = ""
        self.nbytes = 0
        self.writable = False
        self._arrays = {}
        self._payload_bytes = None
        self._payload_obj = None
        self._shm = None
        self._owner = False
        self._closed = False
        self._refcount = 0
        self._lock = threading.Lock()
        self._solver = None
        self._local_sigma_cache = None
        self._reserve = {}
        self._cursor = {}
        return self

    # -- publishing ----------------------------------------------------
    @classmethod
    def publish(
        cls,
        arrays: dict,
        meta: dict | None = None,
        payload: bytes | None = None,
        mode: str = "shared",
        writable: bool = False,
        reserve: dict | None = None,
    ) -> "DevicePlan":
        """Publish arrays + metadata, returning the owning plan handle.

        Parameters
        ----------
        arrays : dict of str -> ndarray
            Named arrays to publish.  ``"shared"`` copies each into the
            segment once; ``"local"`` keeps plain references (zero cost).
        meta : dict or None
            Small picklable metadata shipped in the segment header.
        payload : bytes or None
            Opaque pickled blob for non-array state (e.g. the distributed
            driver ships one pickled transport per *plan* instead of one
            per rank task); read back with :meth:`payload_object`.
        mode : {"shared", "local"}
            Segment-backed or reference-backed (see module docstring).
        writable : bool
            Attachers get writable views (only the result arena wants
            this; plans default to read-only mappings).
        reserve : dict of str -> int or None
            Capacities for 1-D arrays that will grow after publication
            (the adaptive energy-wave loop appends bisection nodes with
            :meth:`append_slots`).  Each named array is padded with
            zeros to its capacity inside the segment; the owner keeps a
            writable view of it while attachers stay read-only, so new
            values written before a chunk is dispatched are visible to
            every worker through the one shared mapping — no republish.

        Returns
        -------
        DevicePlan
            Owner handle with refcount 1; pair with :meth:`release`.
        """
        if mode not in ("shared", "local"):
            raise ValueError("mode must be 'shared' or 'local'")
        meta = dict(meta or {})
        reserve = {k: int(v) for k, v in (reserve or {}).items()}
        cursors = {}
        if reserve:
            arrays = dict(arrays)
            for name, cap in reserve.items():
                arr = np.ascontiguousarray(arrays[name])
                if arr.ndim != 1:
                    raise ValueError(
                        f"reserve only supports 1-D arrays; {name!r} has "
                        f"shape {arr.shape}"
                    )
                if arr.size > cap:
                    raise ValueError(
                        f"reserve capacity {cap} < initial size {arr.size} "
                        f"for array {name!r}"
                    )
                padded = np.zeros(cap, dtype=arr.dtype)
                padded[:arr.size] = arr
                arrays[name] = padded
                cursors[name] = int(arr.size)
        t0 = time.perf_counter()
        self = cls._blank()
        self.mode = mode
        self.meta = meta
        self.writable = bool(writable)
        self.fingerprint = _fingerprint(arrays, meta, payload)
        self._payload_bytes = payload
        self._owner = True
        self._refcount = 1
        self._reserve = reserve
        self._cursor = cursors

        if mode == "local":
            self._arrays = dict(arrays)
            self.nbytes = int(
                sum(np.asarray(a).nbytes for a in arrays.values())
            ) + (len(payload) if payload else 0)
            self.plan_id = f"local-{os.getpid()}-{next(_LOCAL_IDS)}"
        else:
            table: dict[str, tuple[int, tuple, str]] = {}
            offset = 0
            normalized = {}
            for name in sorted(arrays):
                arr = np.ascontiguousarray(arrays[name])
                normalized[name] = arr
                offset = _align(offset)
                table[name] = (offset, arr.shape, arr.dtype.str)
                offset += arr.nbytes
            payload_span = None
            if payload:
                offset = _align(offset)
                payload_span = (offset, len(payload))
                offset += len(payload)
            header = {
                "version": 1,
                "meta": meta,
                "fingerprint": self.fingerprint,
                "table": table,
                "payload": payload_span,
                "writable": self.writable,
                "reserve": reserve,
            }
            header_bytes = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
            data_start = _align(_PRELUDE.size + len(header_bytes))
            total = max(data_start + offset, 1)
            shm = shared_memory.SharedMemory(create=True, size=total)
            buf = shm.buf
            _PRELUDE.pack_into(buf, 0, len(header_bytes), data_start)
            buf[_PRELUDE.size:_PRELUDE.size + len(header_bytes)] = header_bytes
            views = {}
            for name, (off, shape, dtype) in table.items():
                view = np.frombuffer(
                    buf, dtype=np.dtype(dtype),
                    count=int(np.prod(shape, dtype=np.int64)),
                    offset=data_start + off,
                ).reshape(shape)
                view[...] = normalized[name]
                if not self.writable and name not in reserve:
                    view.flags.writeable = False
                views[name] = view
            if payload_span is not None:
                off, ln = payload_span
                buf[data_start + off:data_start + off + ln] = payload
            self._arrays = views
            self._shm = shm
            self.nbytes = shm.size
            self.plan_id = shm.name

        with _REGISTRY_LOCK:
            _PUBLISHED[self.plan_id] = self
        metrics = get_metrics()
        if metrics.enabled:
            kind = meta.get("kind", "plan")
            metrics.inc("ipc.plans_published", 1.0, mode=mode, kind=kind)
            metrics.observe("ipc.plan_bytes", float(self.nbytes), kind=kind)
            metrics.observe(
                "ipc.plan_publish_s", time.perf_counter() - t0, kind=kind
            )
        return self

    # -- attaching -----------------------------------------------------
    @classmethod
    def attach(cls, plan_id: str) -> "DevicePlan":
        """Resolve a plan id to a readable plan handle.

        In the publishing process this returns the publisher's own handle
        (the parent-salvage fast path after a pool restart); elsewhere it
        memory-maps the segment — read-only unless published writable —
        and caches the attachment per process, so a worker reuses one
        mapping (and one rebuilt solver) across all its task chunks.
        """
        with _REGISTRY_LOCK:
            plan = _PUBLISHED.get(plan_id)
            if plan is not None:
                return plan
            plan = _ATTACHED.get(plan_id)
            if plan is not None:
                _ATTACHED.move_to_end(plan_id)
                return plan
        t0 = time.perf_counter()
        self = cls._blank()
        shm = _attach_untracked(plan_id)
        buf = shm.buf
        header_len, data_start = _PRELUDE.unpack_from(buf, 0)
        header = pickle.loads(
            bytes(buf[_PRELUDE.size:_PRELUDE.size + header_len])
        )
        self.plan_id = plan_id
        self.mode = "shared"
        self.meta = header["meta"]
        self.fingerprint = header["fingerprint"]
        self.writable = bool(header.get("writable", False))
        self._reserve = dict(header.get("reserve") or {})
        views = {}
        for name, (off, shape, dtype) in header["table"].items():
            view = np.frombuffer(
                buf, dtype=np.dtype(dtype),
                count=int(np.prod(shape, dtype=np.int64)),
                offset=data_start + off,
            ).reshape(shape)
            if not self.writable:
                view.flags.writeable = False
            views[name] = view
        self._arrays = views
        if header.get("payload") is not None:
            off, ln = header["payload"]
            self._payload_bytes = bytes(
                buf[data_start + off:data_start + off + ln]
            )
        self._shm = shm
        self.nbytes = shm.size
        with _REGISTRY_LOCK:
            _ATTACHED[plan_id] = self
            _ATTACHED.move_to_end(plan_id)
            evicted = []
            while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
                _, old = _ATTACHED.popitem(last=False)
                evicted.append(old)
        for old in evicted:
            old._close_views()
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("ipc.plan_attaches", 1.0)
            metrics.observe("ipc.plan_attach_s", time.perf_counter() - t0)
        return self

    # -- data access ---------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """The named published array (zero-copy view or plain reference)."""
        return self._arrays[name]

    def names(self) -> list[str]:
        """Sorted names of the published arrays."""
        return sorted(self._arrays)

    def reserved(self, name: str = "energies") -> tuple[int, int]:
        """``(used, capacity)`` of a reserve-published array (owner side)."""
        cap = self._reserve.get(name)
        if cap is None:
            raise KeyError(
                f"array {name!r} of plan {self.plan_id} was not published "
                f"with reserve capacity"
            )
        return self._cursor.get(name, cap), cap

    def append_slots(self, values, name: str = "energies") -> list[int]:
        """Write new values into reserved capacity; return their slots.

        This is the incremental-growth half of the zero-copy contract:
        the adaptive energy-wave loop appends each wave's bisection
        nodes here, then dispatches chunks referencing the returned slot
        indices.  Attached workers see the new values through the same
        shared mapping (the owner's view aliases the segment bytes), so
        nothing is republished and no worker re-attaches.

        Parameters
        ----------
        values : iterable of float
            New entries, written contiguously at the current cursor.
        name : str
            A 1-D array published with ``reserve`` capacity.

        Returns
        -------
        list of int
            The slot indices the values landed in — valid both as
            indices into :meth:`array` and as :class:`ResultArena` rows
            when the arena was sized to the reserve capacity.

        Raises
        ------
        PlanCapacityError
            If the append would overrun the reserved capacity.  Callers
            fall back to legacy dispatch for the overflow.
        RuntimeError
            If called on an attached (non-owner) handle.
        """
        if not self._owner:
            raise RuntimeError(
                "only the publishing process can append plan slots"
            )
        cap = self._reserve.get(name)
        if cap is None:
            raise KeyError(
                f"array {name!r} of plan {self.plan_id} was not published "
                f"with reserve capacity"
            )
        values = [float(v) for v in values]
        with self._lock:
            if self._closed:
                raise RuntimeError(f"plan {self.plan_id} already unlinked")
            cursor = self._cursor.get(name, cap)
            if cursor + len(values) > cap:
                raise PlanCapacityError(
                    f"append of {len(values)} value(s) overruns reserve "
                    f"capacity {cap} of {name!r} (cursor at {cursor})"
                )
            arr = self._arrays[name]
            slots = list(range(cursor, cursor + len(values)))
            for i, v in zip(slots, values):
                arr[i] = v
            self._cursor[name] = cursor + len(values)
        metrics = get_metrics()
        if metrics.enabled and values:
            metrics.inc("ipc.slot_appends", float(len(values)))
        return slots

    def payload_object(self):
        """Unpickle (once, cached) and return the opaque payload blob."""
        if self._payload_obj is None:
            if self._payload_bytes is None:
                raise KeyError(f"plan {self.plan_id} has no payload")
            self._payload_obj = pickle.loads(self._payload_bytes)
        return self._payload_obj

    def solver(self):
        """Build (once, cached) the transport solver this plan describes.

        Requires the transport-plan metadata written by
        ``TransportCalculation``: ``method``, ``eta``, ``surface_method``,
        ``n_blocks`` and ``use_cache``.  In shared mode the solver is
        reconstructed over the zero-copy block views with a worker-local
        self-energy cache keyed by tokens derived from the plan
        fingerprint (no re-hash of the lead blocks); in local mode the
        arrays *are* the publisher's arrays and the publisher's shared
        cache is used, so the solver is semantically identical to the one
        the legacy path would have shipped.
        """
        if self._solver is not None:
            return self._solver
        from ..tb.hamiltonian import BlockTridiagonalHamiltonian

        meta = self.meta
        n_blocks = int(meta["n_blocks"])
        H = BlockTridiagonalHamiltonian(
            diagonal=[self.array(f"diag{i}") for i in range(n_blocks)],
            upper=[self.array(f"upper{i}") for i in range(n_blocks - 1)],
        )
        lead_tokens = None
        if self.mode == "local":
            cache = self._local_sigma_cache
        elif meta.get("use_cache"):
            from ..negf.self_energy import plan_cache_token
            from .backend import SelfEnergyCache

            cache = SelfEnergyCache()
            lead_tokens = (
                plan_cache_token(self.fingerprint, "left"),
                plan_cache_token(self.fingerprint, "right"),
            )
        else:
            cache = None
        if meta["method"] == "rgf":
            from ..negf.rgf import RGFSolver

            refine_faults = meta.get("refine_faults") or None
            self._solver = RGFSolver(
                H, eta=float(meta["eta"]),
                surface_method=meta["surface_method"],
                sigma_cache=cache, lead_tokens=lead_tokens,
                precision=meta.get("precision", "fp64"),
                refine_faults=refine_faults,
            )
        else:
            from ..wf.qtbm import WFSolver

            self._solver = WFSolver(
                H, eta=float(meta["eta"]),
                surface_method=meta["surface_method"],
                sigma_cache=cache, lead_tokens=lead_tokens,
            )
        return self._solver

    # -- lifecycle -----------------------------------------------------
    def acquire(self) -> "DevicePlan":
        """Take an extra owner reference (pair with :meth:`release`)."""
        if not self._owner:
            raise RuntimeError("only the publishing process holds refcounts")
        with self._lock:
            if self._closed:
                raise RuntimeError(f"plan {self.plan_id} already unlinked")
            self._refcount += 1
        return self

    def release(self) -> int:
        """Drop one owner reference; unlink the segment at zero.

        Returns the remaining refcount.  Releasing an already-unlinked
        plan is an error on the owner side and a no-op on attachments
        (their lifetime is the per-process attach cache).
        """
        if not self._owner:
            self._close_views()
            return 0
        with self._lock:
            if self._closed:
                raise RuntimeError(f"plan {self.plan_id} already unlinked")
            self._refcount -= 1
            remaining = self._refcount
        if remaining <= 0:
            self.unlink()
        return max(remaining, 0)

    @property
    def refcount(self) -> int:
        """Owner-side reference count (0 once unlinked)."""
        return self._refcount

    @property
    def closed(self) -> bool:
        """True once the backing segment has been closed/unlinked."""
        return self._closed

    def _close_views(self) -> None:
        """Drop array views and close this process's mapping (no unlink)."""
        if self._closed:
            return
        self._closed = True
        self._arrays = {}
        self._solver = None
        shm, self._shm = self._shm, None
        if shm is not None:
            try:
                shm.close()
            except BufferError:  # a caller still holds a view: leave the
                pass             # mapping to the garbage collector

    def unlink(self) -> None:
        """Close the mapping and unlink the segment name (owner only)."""
        with _REGISTRY_LOCK:
            _PUBLISHED.pop(self.plan_id, None)
            _ATTACHED.pop(self.plan_id, None)
        shm = self._shm
        self._close_views()
        self._refcount = 0
        if self._owner and shm is not None and self.mode == "shared":
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double unlink
                pass
            metrics = get_metrics()
            if metrics.enabled:
                metrics.inc("ipc.plans_unlinked", 1.0)

    def __enter__(self) -> "DevicePlan":
        return self

    def __exit__(self, *exc) -> None:
        if self._owner and not self._closed:
            self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DevicePlan(id={self.plan_id!r}, mode={self.mode!r}, "
            f"arrays={len(self._arrays)}, nbytes={self.nbytes}, "
            f"refcount={self._refcount})"
        )


class ResultArena:
    """Preallocated shared output buffer for plan-chunk results.

    A float64 matrix of ``(n_slots, slot_width)`` rows living in its own
    segment: workers encode one solved energy point per row (column 0 is
    the written-flag), the parent decodes rows back into result objects —
    no result pickling through the pool.  Built on :class:`DevicePlan`
    with writable attachments.
    """

    def __init__(self, plan: DevicePlan):
        self._plan = plan

    @classmethod
    def allocate(
        cls, n_slots: int, slot_width: int, mode: str = "shared",
        dtype=np.float64,
    ) -> "ResultArena":
        """Owner-side constructor: one zeroed row per expected result.

        ``dtype`` sizes the rows: float64 (default) round-trips every
        result field bitwise; the fp32 screening mode allocates float32
        rows — half the shared memory — at the cost of rounding the
        stored energy tag (all *solved* fields of a complex64 screening
        run are float32-representable already).
        """
        if n_slots < 1 or slot_width < 1:
            raise ValueError("arena needs n_slots >= 1 and slot_width >= 1")
        dtype = np.dtype(dtype)
        if dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("arena dtype must be float64 or float32")
        rows = np.zeros((int(n_slots), int(slot_width)), dtype=dtype)
        plan = DevicePlan.publish(
            {"rows": rows}, meta={"kind": "arena"}, mode=mode, writable=True
        )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.observe("ipc.arena_bytes", float(plan.nbytes))
        return cls(plan)

    @classmethod
    def attach(cls, arena_id: str) -> "ResultArena":
        """Worker-side constructor: writable mapping of an existing arena."""
        return cls(DevicePlan.attach(arena_id))

    @property
    def arena_id(self) -> str:
        """Segment name shipped in task payloads."""
        return self._plan.plan_id

    @property
    def rows(self) -> np.ndarray:
        """The ``(n_slots, slot_width)`` result matrix (writable)."""
        return self._plan.array("rows")

    def occupancy(self) -> float:
        """Fraction of slots whose written-flag is set."""
        rows = self.rows
        return float(np.count_nonzero(rows[:, 0])) / rows.shape[0]

    def release(self) -> None:
        """Owner-side teardown; records final occupancy when measuring."""
        metrics = get_metrics()
        if metrics.enabled and not self._plan.closed:
            metrics.gauge("ipc.arena_occupancy", self.occupancy())
        self._plan.release()


# ---------------------------------------------------------------------------
# result row codec (fixed-width float64 rows; see ResultArena)


def slot_width(n_orb_total: int, n_blocks: int) -> int:
    """Row width holding one solved energy point of either kernel.

    ``[flag, energy, T, R, n_ch_L, n_ch_R] + dos + A_L + A_R +
    interface_currents`` — the WF kernel's extra fields ride along as
    zeros for RGF so both kernels share one arena layout.
    """
    return 6 + 3 * int(n_orb_total) + max(int(n_blocks) - 1, 0)


def encode_result(res, row: np.ndarray, n_orb_total: int) -> None:
    """Serialize one solver result into an arena row (float64, exact)."""
    n = int(n_orb_total)
    row[0] = 1.0
    row[1] = res.energy
    row[2] = res.transmission
    row[3] = getattr(res, "reflection", 0.0)
    row[4] = res.n_channels_left
    row[5] = res.n_channels_right
    row[6:6 + n] = res.dos
    row[6 + n:6 + 2 * n] = res.spectral_left
    row[6 + 2 * n:6 + 3 * n] = res.spectral_right
    tail = row[6 + 3 * n:]
    ic = getattr(res, "interface_currents", None)
    if ic is not None and tail.size:
        tail[:] = ic
    elif tail.size:
        tail[:] = 0.0


def decode_result(row: np.ndarray, meta: dict):
    """Rebuild the solver result object from an arena row (or None).

    Float64 fields round-trip bitwise through the arena; channel counts
    round-trip exactly as small integers.  Returns None for a row whose
    written-flag is unset (the task never delivered — the transport layer
    re-solves it down the degradation ladder).
    """
    if not row[0]:
        return None
    n = int(meta["n_tot"])

    def _int(x: float) -> int:
        return int(round(x)) if np.isfinite(x) else 0

    common = dict(
        energy=float(row[1]),
        transmission=float(row[2]),
        dos=np.array(row[6:6 + n]),
        spectral_left=np.array(row[6 + n:6 + 2 * n]),
        spectral_right=np.array(row[6 + 2 * n:6 + 3 * n]),
        n_channels_left=_int(row[4]),
        n_channels_right=_int(row[5]),
    )
    if meta["method"] == "rgf":
        from ..negf.rgf import RGFResult

        return RGFResult(**common)
    from ..wf.qtbm import WFResult

    return WFResult(
        reflection=float(row[3]),
        interface_currents=np.array(row[6 + 3 * n:]),
        **common,
    )


def _solve_plan_chunk_body(plan_id, arena_id, slots, injector,
                           chunk_id) -> int:
    """Attach, solve and encode one plan chunk (all payload variants)."""
    from ..core.transport import solve_energies

    plan = DevicePlan.attach(plan_id)
    arena = ResultArena.attach(arena_id)
    energies = plan.array("energies")
    # mixed-precision solvers re-solve their escalated energies on the
    # FP64 twin *here*, so the precision.* counters are charged exactly
    # once per energy in the worker that detected the escalation
    results = solve_energies(
        plan.solver(), [float(energies[i]) for i in slots],
        injector, chunk_id,
    )
    n_tot = int(plan.meta["n_tot"])
    for slot, res in zip(slots, results):
        if res is not None:
            encode_result(res, arena.rows[slot], n_tot)
    return len(slots)


def _solve_plan_chunk(payload):
    """Worker body for zero-copy plan chunks.

    Module-level so ProcessPoolExecutor can pickle it.  The payload is
    ``(plan_id, arena_id, slots, injector, chunk_id, sidecar_id)`` — two
    segment names, the energy-slot indices of this chunk, the optional
    chaos-campaign injector whose ``"worker"`` site fires here exactly
    as on the legacy chunk path, and the optional telemetry-sidecar
    segment name.  Results are written into the arena rows; the return
    value is the number of slots written (nothing heavy crosses the
    pool).

    With a ``sidecar_id`` the chunk runs under
    :func:`~repro.observability.telemetry.capture_telemetry`: the
    worker's tracer/metrics delta is written into the sidecar row keyed
    by ``chunk_id``, and the return value becomes ``(n_slots,
    overflow)`` where ``overflow`` is the pickled delta only when it did
    not fit the fixed-width row (the parent merges either).  Outside a
    real worker process the capture stays inert and ``overflow`` is
    None.
    """
    plan_id, arena_id, slots, injector, chunk_id, sidecar_id = payload
    if sidecar_id is None:
        return _solve_plan_chunk_body(
            plan_id, arena_id, slots, injector, chunk_id
        )
    from ..observability.telemetry import TelemetrySidecar, capture_telemetry
    from ..observability.tracer import trace_span

    with capture_telemetry() as cap:
        if cap.engaged:
            with trace_span(
                "chunk", category="task",
                chunk=chunk_id, n_energies=len(slots),
            ):
                n = _solve_plan_chunk_body(
                    plan_id, arena_id, slots, injector, chunk_id
                )
        else:
            n = _solve_plan_chunk_body(
                plan_id, arena_id, slots, injector, chunk_id
            )
    overflow = None
    if cap.delta is not None:
        blob = cap.delta.to_bytes()
        sidecar = TelemetrySidecar.attach(sidecar_id)
        if not sidecar.write(chunk_id, blob):
            overflow = blob
    return n, overflow


# ---------------------------------------------------------------------------
# registry introspection / leak detection


def active_plans() -> list[str]:
    """Ids of plans this process published and has not yet unlinked."""
    with _REGISTRY_LOCK:
        return [p.plan_id for p in _PUBLISHED.values() if not p.closed]


def attached_plans() -> list[str]:
    """Ids currently held in this process's attach cache."""
    with _REGISTRY_LOCK:
        return list(_ATTACHED)


def detach_all() -> None:
    """Close every cached attachment (worker teardown helper)."""
    with _REGISTRY_LOCK:
        plans = list(_ATTACHED.values())
        _ATTACHED.clear()
    for plan in plans:
        plan._close_views()


def unlink_leaked_plans(warn: bool = True) -> list[str]:
    """Unlink every published-but-unreleased plan; return their ids.

    This is the shutdown leak detector: orderly code releases every plan
    it publishes, so anything found here is a bug — it is warned about
    (:class:`PlanLeakWarning`), counted under ``ipc.plan_leaks``, and the
    segment is reclaimed so it cannot outlive the process.
    """
    with _REGISTRY_LOCK:
        leaked = [p for p in _PUBLISHED.values() if not p.closed]
    ids = [p.plan_id for p in leaked]
    if leaked and warn:
        warnings.warn(
            f"{len(leaked)} shared-memory plan(s) leaked at shutdown: "
            f"{ids}", PlanLeakWarning, stacklevel=2,
        )
    metrics = get_metrics()
    if leaked and metrics.enabled:
        metrics.inc("ipc.plan_leaks", float(len(leaked)))
    for plan in leaked:
        plan.unlink()
    return ids


atexit.register(unlink_leaked_plans)
