"""Linear algebra kernels: block-tridiagonal LU, domain decomposition, banded."""

from .banded import BandedLU, SparseLU, bandwidth_of_blocks, blocks_to_banded
from .block_tridiagonal import (
    BatchedBlockTridiagLU,
    BlockTridiagLU,
    block_tridiag_matvec,
)
from .splitsolve import SplitSolve, partition_domains

__all__ = [
    "BandedLU",
    "SparseLU",
    "bandwidth_of_blocks",
    "blocks_to_banded",
    "BatchedBlockTridiagLU",
    "BlockTridiagLU",
    "block_tridiag_matvec",
    "SplitSolve",
    "partition_domains",
]
