"""Performance layer: the analytic flop accounting of the kernels.

The machine model and the scaling predictions built on it are imported
from the modules that define them, :mod:`repro.perf.machine`
(:class:`~repro.perf.machine.SimulatedMachine`, ``JAGUAR_XT5``,
``LOCAL_NODE``) and :mod:`repro.perf.model` (``TransportWorkload``,
``predict``, ``strong_scaling``, ``weak_scaling``); ``import repro``
does not load them.
"""

from .flops import (
    FlopCounter,
    block_column_solve_flops,
    block_lu_factor_flops,
    diagonal_inverse_flops,
    rgf_solve_flops,
    sancho_rubio_flops,
    splitsolve_flops,
    wf_backsub_flops,
    wf_factor_flops,
    wf_solve_flops,
    zgemm_flops,
    zinverse_flops,
    zlu_flops,
)

__all__ = [
    "FlopCounter",
    "block_column_solve_flops",
    "block_lu_factor_flops",
    "diagonal_inverse_flops",
    "rgf_solve_flops",
    "sancho_rubio_flops",
    "splitsolve_flops",
    "wf_backsub_flops",
    "wf_factor_flops",
    "wf_solve_flops",
    "zgemm_flops",
    "zinverse_flops",
    "zlu_flops",
]
