"""Deterministic, seedable fault injection.

Resilience code that is only exercised by real failures is dead code until
the worst possible moment.  :class:`FaultInjector` plants faults at named
*sites* in the execution layers (``"task"`` in the scheduler and the
distributed driver, ``"rank"`` at rank entry, ``"comm"`` in collectives,
``"bias"`` in the I-V engine) so every recovery path runs in tests and CI.

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
``"stall"``      sleep ``stall_seconds`` (straggler), then proceed;
``"hang"``       sleep ``hang_seconds`` (hung worker — long enough to
                 blow any sane backend deadline), then proceed;
``"dead_rank"``  raise :class:`repro.errors.RankFailure`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import RankFailure, TaskFailure

__all__ = [
    "InjectedFault",
    "FaultInjector",
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
        Transient faults: each (site, key) fires at most once (default).
    stall_seconds : float
        Duration of a ``"stall"`` fault.
    hang_seconds : float
        Duration of a ``"hang"`` fault (a hung worker; pick it longer
        than the backend deadline under test).
    max_faults : int or None
        Global cap on fired faults (None = unlimited).
    """

    def __init__(
        self,
        seed: int = 0,
        rate: float = 0.0,
        actions: tuple = ("raise", "nan"),
        sites: tuple | None = None,
        plan: dict | None = None,
        once: bool = True,
        stall_seconds: float = 0.01,
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
        self.stall_seconds = stall_seconds
        self.hang_seconds = hang_seconds
        self.max_faults = max_faults
        self.injected: list[InjectedFault] = []
        self._fired: set = set()

    # ------------------------------------------------------------------
    def targets(self, site: str) -> bool:
        """Whether any configured fault can ever fire at ``site``.

        Dispatch layers use this to route work to where the fault can
        actually be observed — e.g. energy-site faults must run through
        the parent's per-point degradation ladder, since a process
        pool's children cannot ship ladder accounting back.
        """
        if any(s == site for s, _ in self.plan):
            return True
        return self.rate > 0.0 and (self.sites is None or site in self.sites)

    def decide(self, site: str, key) -> str | None:
        """The action to inject at (site, key), or None for a clean pass."""
        if self.max_faults is not None and len(self.injected) >= self.max_faults:
            return None
        if self.once and (site, key) in self._fired:
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
        self._fired.add((site, key))
        self.injected.append(InjectedFault(site, key, action))
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
            time.sleep(self.stall_seconds)
            return None
        if action == "hang":
            time.sleep(self.hang_seconds)
            return None
        return action

    # ------------------------------------------------------------------
    @property
    def n_injected(self) -> int:
        """Number of faults fired so far."""
        return len(self.injected)

    def count(self, action: str | None = None) -> int:
        """Fired faults, optionally of one action type."""
        if action is None:
            return len(self.injected)
        return sum(1 for f in self.injected if f.action == action)


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
