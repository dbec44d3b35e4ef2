"""The four-level parallel decomposition of the transport workload.

The SC'11 simulator distributes work over four nested levels:

    level 1: bias points        (embarrassingly parallel I-V sweep)
    level 2: momentum points    (independent k of the transverse BZ)
    level 3: energy points      (independent E of the quadrature grid)
    level 4: spatial domains    (SplitSolve domains of one (k,E) solve)

Given P ranks, :func:`choose_level_sizes` factorises P into per-level group
sizes bounded by the available work, preferring the outer (perfectly
parallel) levels — the same strategy the paper describes.  A
:class:`Decomposition` then maps every rank to its (bias, k, E-slice,
domain) assignment and enumerates each rank's task list, which both the
real executor (:mod:`repro.parallel.scheduler`) and the performance model
(:mod:`repro.perf.model`) consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LEVEL_NAMES", "WorkItem", "Decomposition", "choose_level_sizes"]

#: Canonical names of the four parallelisation levels, outermost first.
#: Indexes align with ``Decomposition.groups`` and the ``level`` labels of
#: :class:`repro.parallel.CommTrace` events.
LEVEL_NAMES: tuple = ("bias", "momentum", "energy", "spatial")


@dataclass(frozen=True)
class WorkItem:
    """One independent transport solve: a (bias, k, E) sample point."""

    bias_index: int
    k_index: int
    energy_index: int
    cost: float = 1.0


def choose_level_sizes(
    n_ranks: int,
    n_bias: int,
    n_k: int,
    n_energy: int,
    max_spatial: int = 64,
    spatial_efficiency: float = 0.6,
) -> tuple[int, int, int, int]:
    """Choose (bias, k, energy, spatial) group counts for ``n_ranks``.

    The outer three levels are perfectly parallel, so they are filled
    first; the spatial level only absorbs ranks once the outer work is
    saturated, discounted by ``spatial_efficiency`` (the SplitSolve
    interface system makes spatial ranks worth less than outer ranks).
    Group sizes need not divide ``n_ranks`` — leaving ranks idle is often
    faster than a lopsided block-cyclic distribution, and production
    job scripts do exactly that.  The product of the returned sizes is
    therefore <= ``n_ranks``.

    The search enumerates spatial sizes and fills the outer levels
    greedily for each, scoring candidates by the modelled makespan
    (ceil-based task counts / discounted spatial speedup).
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if min(n_bias, n_k, n_energy) < 1:
        raise ValueError("work sizes must be >= 1")

    def outer_fill(r: int) -> tuple[int, int, int]:
        g_b = min(n_bias, r)
        r //= g_b
        g_k = min(n_k, r)
        r //= g_k
        g_e = min(n_energy, r)
        return g_b, g_k, g_e

    best = None
    best_score = np.inf
    g_s = 1
    while g_s <= max_spatial:
        if g_s > n_ranks:
            break
        g_b, g_k, g_e = outer_fill(n_ranks // g_s)
        makespan = (
            -(-n_bias // g_b) * -(-n_k // g_k) * -(-n_energy // g_e)
        )
        speedup = 1.0 + spatial_efficiency * (g_s - 1)
        score = makespan / speedup
        if score < best_score - 1e-12:
            best_score = score
            best = (g_b, g_k, g_e, g_s)
        g_s *= 2
    assert best is not None
    return best


@dataclass
class Decomposition:
    """Assignment of (bias, k, E) work to a 4-level rank grid.

    Attributes
    ----------
    n_bias, n_k, n_energy : int
        Work extents per level.
    groups : tuple of int
        (g_bias, g_k, g_e, g_spatial) rank-grid extents.
    """

    n_bias: int
    n_k: int
    n_energy: int
    groups: tuple

    def __post_init__(self):
        if len(self.groups) != 4 or min(self.groups) < 1:
            raise ValueError("groups must be four positive integers")

    @property
    def n_ranks(self) -> int:
        """Total ranks used by the grid."""
        return int(np.prod(self.groups))

    def rank_coordinates(self, rank: int) -> tuple[int, int, int, int]:
        """(bias group, k group, E group, spatial index) of a rank."""
        if not 0 <= rank < self.n_ranks:
            raise IndexError(f"rank {rank} outside grid of {self.n_ranks}")
        g_b, g_k, g_e, g_s = self.groups
        s = rank % g_s
        rank //= g_s
        e = rank % g_e
        rank //= g_e
        k = rank % g_k
        b = rank // g_k
        return b, k, e, s

    def tasks_of_rank(self, rank: int) -> list[WorkItem]:
        """Block-cyclic task list of one rank (spatial peers share tasks).

        Bias, k and energy indices are distributed round-robin within their
        level group; the spatial coordinate does not change the task list
        (all ``g_s`` spatial ranks cooperate on the same (bias,k,E) solves).
        """
        b, k, e, _ = self.rank_coordinates(rank)
        g_b, g_k, g_e, _ = self.groups
        tasks = []
        for ib in range(b, self.n_bias, g_b):
            for ik in range(k, self.n_k, g_k):
                for ie in range(e, self.n_energy, g_e):
                    tasks.append(WorkItem(ib, ik, ie))
        return tasks

    def max_tasks_per_rank(self) -> int:
        """Makespan in task units under the block-cyclic distribution."""
        g_b, g_k, g_e, _ = self.groups
        return (
            -(-self.n_bias // g_b)
            * -(-self.n_k // g_k)
            * -(-self.n_energy // g_e)
        )

    def efficiency(self) -> float:
        """Load-balance efficiency: total work / (ranks * makespan)."""
        total = self.n_bias * self.n_k * self.n_energy
        denom = (
            int(np.prod(self.groups[:3])) * self.max_tasks_per_rank()
        )
        return total / denom

    def coverage_is_exact(self) -> bool:
        """Every (bias, k, E) point is owned by exactly one (b,k,e) group."""
        seen = np.zeros((self.n_bias, self.n_k, self.n_energy), dtype=int)
        g_s = self.groups[3]
        for rank in range(0, self.n_ranks, g_s):  # one spatial rep per group
            for t in self.tasks_of_rank(rank):
                seen[t.bias_index, t.k_index, t.energy_index] += 1
        return bool(np.all(seen == 1))
