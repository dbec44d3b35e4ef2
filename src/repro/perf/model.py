"""Execution-time model of the parallel transport run.

Combines the analytic flop counts (:mod:`repro.perf.flops`), the machine
model (:mod:`repro.perf.machine`) and the 4-level decomposition
(:mod:`repro.parallel.decomposition`) into wall-time and sustained-Flop/s
predictions.  This is the substitute for the petascale measurements of the
paper (DESIGN.md substitution table): the *shape* of the strong/weak
scaling and the saturation of the sustained performance near ~60% of peak
emerge from counted work, load-balance arithmetic and the communication
model — no curve is fitted to the paper.

Model structure, per bias point and SCF iteration:

1. every (k, E) task costs two contact surface GFs plus one solver pass
   (WF or RGF), optionally split over ``g_s`` spatial ranks with the
   SplitSolve serial-interface penalty;
2. tasks are distributed block-cyclically over the (bias, k, E) rank grid;
   the makespan is ceil-based (load-balance losses appear at high rank
   counts exactly as in the paper);
3. after the task phase, the charge/transmission partial sums are
   allreduced over the (k, E, spatial) sub-grid and the Poisson solve is
   charged as a serial term.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..parallel.decomposition import choose_level_sizes
from .flops import (
    rgf_solve_flops,
    sancho_rubio_flops,
    wf_solve_flops,
)
from .machine import SimulatedMachine

__all__ = ["TransportWorkload", "ModelReport", "predict", "strong_scaling", "weak_scaling"]


@dataclass(frozen=True)
class TransportWorkload:
    """Problem-size description of one transport simulation campaign.

    Attributes
    ----------
    n_slabs, block_size : int
        Device extent N and slab matrix dimension m.
    n_bias, n_k, n_energy : int
        Extents of the three outer work levels.
    n_channels : int
        Average open channels per (k, E) point (WF back-substitution count).
    algorithm : {"wf", "rgf"}
        Transport kernel.
    n_scf_iterations : int
        Poisson-transport iterations per bias point.
    sancho_iterations : int
        Average decimation iterations per contact.
    """

    n_slabs: int
    block_size: int
    n_bias: int = 1
    n_k: int = 1
    n_energy: int = 64
    n_channels: int = 8
    algorithm: str = "wf"
    n_scf_iterations: int = 1
    sancho_iterations: int = 25
    #: makespan multiplier for per-task cost spread: energy points near
    #: band edges need more decimation iterations and carry more open
    #: channels, so identical-task scheduling under-estimates the critical
    #: path.  1.15 corresponds to the ~85% energy-level load balance the
    #: greedy scheduler achieves on measured per-energy costs (bench F6).
    imbalance: float = 1.15

    def __post_init__(self):
        if self.algorithm not in ("wf", "rgf"):
            raise ValueError("algorithm must be 'wf' or 'rgf'")
        if min(self.n_slabs, self.block_size) < 1:
            raise ValueError("device extents must be positive")

    # ------------------------------------------------------------------
    def contact_flops(self) -> float:
        """Surface-GF cost of one (k, E) task (two contacts)."""
        return 2.0 * sancho_rubio_flops(self.block_size, self.sancho_iterations)

    def solver_flops(self) -> float:
        """Single-domain solver cost of one (k, E) task."""
        if self.algorithm == "rgf":
            return rgf_solve_flops(self.n_slabs, self.block_size)
        return wf_solve_flops(self.n_slabs, self.block_size, self.n_channels)

    def task_flops(self) -> float:
        """Total useful flops of one (k, E) task."""
        return self.contact_flops() + self.solver_flops()

    def n_tasks(self) -> int:
        """Total (bias, k, E) tasks of the campaign (one SCF iteration)."""
        return self.n_bias * self.n_k * self.n_energy

    def total_flops(self) -> float:
        """Useful flops of the whole campaign."""
        return self.n_tasks() * self.task_flops() * self.n_scf_iterations


@dataclass
class ModelReport:
    """Prediction for one (workload, machine, rank-count) configuration."""

    n_ranks: int
    groups: tuple
    walltime_s: float
    total_flops: float
    sustained_flops: float
    fraction_of_peak: float
    breakdown: dict = field(default_factory=dict)

    @property
    def sustained_tflops(self) -> float:
        """Sustained performance in TFlop/s."""
        return self.sustained_flops / 1e12


def predict(
    workload: TransportWorkload,
    machine: SimulatedMachine,
    n_ranks: int,
    max_spatial: int = 64,
) -> ModelReport:
    """Predict wall time and sustained Flop/s at a given rank count.

    Example
    -------
    >>> from repro.perf.machine import JAGUAR_XT5
    >>> from repro.perf.model import TransportWorkload, predict
    >>> w = TransportWorkload(n_slabs=130, block_size=4000, n_bias=15,
    ...                       n_k=21, n_energy=702, n_channels=30)
    >>> r = predict(w, JAGUAR_XT5, 221130)
    >>> r.groups
    (15, 21, 702, 1)
    >>> 1.0e15 < r.sustained_flops < 2.0e15   # the PFlop/s headline
    True
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    g_b, g_k, g_e, g_s = choose_level_sizes(
        n_ranks, workload.n_bias, workload.n_k, workload.n_energy, max_spatial
    )
    m = workload.block_size

    # --- per-task time on g_s spatial ranks -----------------------------
    # Amdahl model of SplitSolve: the per-slab solver work w = F/N runs
    # concurrently over g_s domains; the reduced interface system is
    # serial, costing ~3 slab-equivalents per separator; each separator
    # exchanges two m x m corner blocks.
    contact_t = machine.time_compute(workload.contact_flops(), min(g_s, 2))
    F = workload.solver_flops()
    if g_s == 1:
        solver_t = machine.time_compute(F)
        spatial_comm = 0.0
        interface_t = 0.0
    else:
        w_slab = F / workload.n_slabs
        parallel_flops = F * max(workload.n_slabs - (g_s - 1), 1) / workload.n_slabs
        solver_t = machine.time_compute(parallel_flops / g_s)
        interface_t = machine.time_compute(3.0 * (g_s - 1) * w_slab)
        msg_bytes = 16.0 * m * m
        spatial_comm = 2 * (g_s - 1) * machine.time_point_to_point(msg_bytes)

    task_t = contact_t + solver_t + interface_t + spatial_comm

    # --- task phase makespan --------------------------------------------
    tasks_per_group = (
        -(-workload.n_bias // g_b) * -(-workload.n_k // g_k) * -(-workload.n_energy // g_e)
    )
    task_phase = tasks_per_group * task_t * workload.imbalance

    # --- per-iteration reductions and the serial Poisson ------------------
    density_bytes = 16.0 * workload.n_slabs * m
    reduce_t = machine.time_collective(density_bytes, g_k * g_e * g_s)
    poisson_t = machine.time_compute(
        50.0 * (workload.n_slabs * m) ** 1.2  # sparse Newton, sub-cubic
    )

    per_iteration = task_phase + reduce_t + poisson_t
    walltime = per_iteration * workload.n_scf_iterations

    total = workload.total_flops()
    sustained = total / walltime
    used_peak = n_ranks * machine.flops_per_core
    return ModelReport(
        n_ranks=n_ranks,
        groups=(g_b, g_k, g_e, g_s),
        walltime_s=walltime,
        total_flops=total,
        sustained_flops=sustained,
        fraction_of_peak=sustained / used_peak,
        breakdown={
            "task_s": task_t,
            "contact_s": contact_t,
            "solver_s": solver_t,
            "interface_s": interface_t,
            "spatial_comm_s": spatial_comm,
            "reduce_s": reduce_t,
            "poisson_s": poisson_t,
            "tasks_per_group": tasks_per_group,
        },
    )


def strong_scaling(
    workload: TransportWorkload,
    machine: SimulatedMachine,
    rank_counts,
    max_spatial: int = 64,
) -> list[ModelReport]:
    """Fixed problem, growing rank counts.

    Example
    -------
    >>> from repro.perf.machine import JAGUAR_XT5
    >>> from repro.perf.model import TransportWorkload, strong_scaling
    >>> w = TransportWorkload(n_slabs=40, block_size=500, n_energy=128)
    >>> reports = strong_scaling(w, JAGUAR_XT5, [16, 64])
    >>> reports[0].walltime_s > reports[1].walltime_s
    True
    """
    return [predict(workload, machine, int(p), max_spatial) for p in rank_counts]


def weak_scaling(
    base: TransportWorkload,
    machine: SimulatedMachine,
    rank_counts,
    grow: str = "n_energy",
    max_spatial: int = 64,
) -> list[ModelReport]:
    """Problem grown proportionally to the rank count along one axis.

    Example
    -------
    >>> from repro.perf.machine import JAGUAR_XT5
    >>> from repro.perf.model import TransportWorkload, weak_scaling
    >>> base = TransportWorkload(n_slabs=40, block_size=500, n_energy=64)
    >>> a, b = weak_scaling(base, JAGUAR_XT5, [16, 32], grow="n_energy")
    >>> b.total_flops == 2 * a.total_flops   # doubled work on doubled ranks
    True
    """
    if grow not in ("n_energy", "n_k", "n_bias"):
        raise ValueError("grow must be one of n_energy, n_k, n_bias")
    base_ranks = int(rank_counts[0])
    out = []
    for p in rank_counts:
        scale = int(p) // base_ranks
        kwargs = {
            "n_slabs": base.n_slabs,
            "block_size": base.block_size,
            "n_bias": base.n_bias,
            "n_k": base.n_k,
            "n_energy": base.n_energy,
            "n_channels": base.n_channels,
            "algorithm": base.algorithm,
            "n_scf_iterations": base.n_scf_iterations,
            "sancho_iterations": base.sancho_iterations,
        }
        kwargs[grow] = getattr(base, grow) * max(scale, 1)
        out.append(predict(TransportWorkload(**kwargs), machine, int(p), max_spatial))
    return out
