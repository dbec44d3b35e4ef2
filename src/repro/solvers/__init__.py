"""Linear algebra kernels: block-tridiagonal LU and domain decomposition."""

from .block_tridiagonal import (
    BatchedBlockTridiagLU,
    BlockTridiagLU,
    block_tridiag_matvec,
)
from .splitsolve import SplitSolve, partition_domains

__all__ = [
    "BatchedBlockTridiagLU",
    "BlockTridiagLU",
    "block_tridiag_matvec",
    "SplitSolve",
    "partition_domains",
]
