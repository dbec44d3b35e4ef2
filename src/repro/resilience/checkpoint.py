"""Atomic checkpoint/restart for I-V sweeps.

A production I-V campaign on a petascale machine runs for hours; losing
every converged bias point to one crash is not acceptable.  Checkpoints
here are written *atomically* (serialise to ``<path>.tmp``, then
``os.replace``) so a kill at any instant leaves either the previous or the
new checkpoint on disk, never a torn file.

A :class:`SweepCheckpoint` holds converged :class:`repro.core.IVPoint`
records plus the last converged potential ``phi`` (the warm start for the
next point).  Resuming recomputes only the missing bias points and,
because ``phi`` is stored bit-exactly in the npz, reproduces the
uninterrupted sweep identically.

Points are stored as plain dicts, keeping this module import-light (no
dependency on :mod:`repro.core`, which imports us).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["atomic_write_bytes", "SweepCheckpoint"]


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (tmp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _bias_key(v_gate: float, v_drain: float) -> tuple:
    """Float-robust identity of a bias point (nV resolution)."""
    return (round(float(v_gate), 9), round(float(v_drain), 9))


class SweepCheckpoint:
    """Atomic npz checkpoint of a (partially) completed I-V sweep.

    Parameters
    ----------
    path : str or Path
        Checkpoint file (conventionally ``*.npz``).
    """

    def __init__(self, path):
        self.path = Path(path)

    def exists(self) -> bool:
        """Whether a checkpoint file is on disk."""
        return self.path.exists()

    # ------------------------------------------------------------------
    def save(self, points: list[dict], phi, meta: dict | None = None) -> None:
        """Atomically persist completed points + last potential.

        Parameters
        ----------
        points : list of dict
            Completed points as plain dicts (``v_gate``, ``v_drain``,
            ``current_a``, ``converged``, ``n_iterations``, ``recovery``).
        phi : ndarray or None
            Last converged potential (bit-exact warm start on resume).
        meta : dict or None
            Sweep identity (bias axes, method, ...) validated on resume.
        """
        arrays = {
            "points_json": np.frombuffer(
                json.dumps(points).encode(), dtype=np.uint8
            ),
            "meta_json": np.frombuffer(
                json.dumps(meta or {}).encode(), dtype=np.uint8
            ),
        }
        if phi is not None:
            arrays["phi"] = np.asarray(phi, dtype=float)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        atomic_write_bytes(self.path, buffer.getvalue())

    def load(self) -> dict | None:
        """Read the checkpoint; None when absent.

        Returns ``{"points": [dict...], "phi": ndarray | None,
        "meta": dict}``.
        """
        if not self.path.exists():
            return None
        with np.load(self.path) as data:
            points = json.loads(bytes(data["points_json"]).decode())
            meta = json.loads(bytes(data["meta_json"]).decode())
            phi = np.array(data["phi"]) if "phi" in data else None
        return {"points": points, "phi": phi, "meta": meta}

    def completed_keys(self, state: dict | None = None) -> dict:
        """Map of bias key -> point dict for every checkpointed point."""
        state = state if state is not None else self.load()
        if state is None:
            return {}
        return {
            _bias_key(p["v_gate"], p["v_drain"]): p for p in state["points"]
        }

    def clear(self) -> None:
        """Delete the checkpoint file (start of a fresh, non-resumed run)."""
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.path)
