"""Simulated machine model (Cray XT5 "Jaguar"-class).

The paper's performance results were measured on up to 221,400 cores of the
Cray XT5 at ORNL (2.6 GHz hex-core Opterons, 4 flops/cycle/core = 10.4
GFlop/s peak per core, 2.33 PFlop/s aggregate peak, SeaStar2+ 3-D torus).
Per the substitution table in DESIGN.md, this module models that machine:
compute time from counted flops at a calibrated dense-kernel efficiency,
communication time from a latency/bandwidth model with log-tree
collectives.  The model's constants are ordinary published machine
parameters — nothing is fitted to the paper's curves except the single
dense-kernel efficiency, which is the standard calibration any performance
model needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimulatedMachine", "JAGUAR_XT5", "LOCAL_NODE"]


@dataclass(frozen=True)
class SimulatedMachine:
    """Latency/bandwidth + peak-flops machine model.

    Attributes
    ----------
    name : str
        Human-readable machine name.
    n_cores : int
        Total cores available.
    flops_per_core : float
        Peak real flops per core per second.
    cores_per_node : int
        Cores sharing a NIC (intra-node messages are free in this model).
    link_latency_s : float
        Per-message network latency (s).
    link_bandwidth_Bps : float
        Per-link bandwidth (bytes/s).
    dense_efficiency : float
        Fraction of peak reached by the dense kernels (ZGEMM-dominated
        workloads on the XT5 sustain ~70-85%; the SC'11 full-application
        number of 62% of peak emerges from this plus modelled overheads).
    """

    name: str
    n_cores: int
    flops_per_core: float
    cores_per_node: int
    link_latency_s: float
    link_bandwidth_Bps: float
    dense_efficiency: float = 0.75

    def __post_init__(self):
        if self.n_cores < 1 or self.flops_per_core <= 0:
            raise ValueError("invalid core configuration")
        if not 0 < self.dense_efficiency <= 1:
            raise ValueError("dense_efficiency must be in (0, 1]")

    # ------------------------------------------------------------------
    @property
    def peak_flops(self) -> float:
        """Aggregate peak (flops/s)."""
        return self.n_cores * self.flops_per_core

    def time_compute(self, flops: float, n_cores: int = 1) -> float:
        """Wall time to execute perfectly-parallel flops on n_cores.

        Example
        -------
        >>> from repro.perf.machine import JAGUAR_XT5
        >>> JAGUAR_XT5.time_compute(10.4e9) == 1.0 / JAGUAR_XT5.dense_efficiency
        True
        """
        if n_cores < 1:
            raise ValueError("need at least one core")
        return flops / (n_cores * self.flops_per_core * self.dense_efficiency)

    def time_point_to_point(self, payload_bytes: float) -> float:
        """One message between two nodes.

        Example
        -------
        >>> from repro.perf.machine import JAGUAR_XT5
        >>> JAGUAR_XT5.time_point_to_point(0.0) == JAGUAR_XT5.link_latency_s
        True
        """
        return self.link_latency_s + payload_bytes / self.link_bandwidth_Bps

    def time_collective(self, payload_bytes: float, participants: int) -> float:
        """Tree collective (bcast/reduce/allreduce) over ``participants``.

        Example
        -------
        >>> from repro.perf.machine import JAGUAR_XT5
        >>> JAGUAR_XT5.time_collective(8.0, 1)          # nothing to exchange
        0.0
        >>> t2 = JAGUAR_XT5.time_collective(8.0, 2)     # one tree round
        >>> JAGUAR_XT5.time_collective(8.0, 8) == 3 * t2
        True
        """
        if participants <= 1:
            return 0.0
        rounds = int(np.ceil(np.log2(participants)))
        return rounds * self.time_point_to_point(payload_bytes)

    def time_trace(self, trace) -> float:
        """Total communication time of a recorded :class:`CommTrace`."""
        total = 0.0
        for e in trace.events:
            if e.op in ("bcast", "allreduce", "barrier", "gather", "allgather", "scatter"):
                total += self.time_collective(e.payload_bytes, e.participants)
            else:  # pragma: no cover - unknown ops treated as p2p
                total += self.time_point_to_point(e.payload_bytes)
        return total


#: The SC'11 machine: Jaguar (Cray XT5), 2.33 PF peak over 224,256 cores.
JAGUAR_XT5 = SimulatedMachine(
    name="Cray XT5 (Jaguar)",
    n_cores=224_256,
    flops_per_core=10.4e9,
    cores_per_node=12,
    link_latency_s=5.0e-6,
    link_bandwidth_Bps=3.2e9,
    dense_efficiency=0.75,
)

#: A single contemporary node, for grounding the model against local runs.
LOCAL_NODE = SimulatedMachine(
    name="local node",
    n_cores=1,
    flops_per_core=3.0e9,
    cores_per_node=1,
    link_latency_s=1.0e-7,
    link_bandwidth_Bps=1.0e10,
    dense_efficiency=0.5,
)
