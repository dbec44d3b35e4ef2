"""Linear algebra kernels: block-tridiagonal LU and domain decomposition."""

from .block_tridiagonal import BatchedBlockTridiagLU, BlockTridiagLU
from .splitsolve import SplitSolve, partition_domains

__all__ = [
    "BatchedBlockTridiagLU",
    "BlockTridiagLU",
    "SplitSolve",
    "partition_domains",
]
