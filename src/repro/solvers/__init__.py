"""Linear algebra kernels: the block-tridiagonal LU of both transport kernels.

The SplitSolve domain decomposition is imported from
:mod:`repro.solvers.splitsolve`; ``import repro`` does not load it.
"""

from .block_tridiagonal import BatchedBlockTridiagLU, BlockTridiagLU

__all__ = [
    "BatchedBlockTridiagLU",
    "BlockTridiagLU",
]
