"""Resilience layer: fault injection, recovery ladders, checkpoint/restart.

Sustained petascale throughput — the paper's headline — is as much a
fault-tolerance result as a flops result: a full I-V sweep on ~221k cores
only finishes if the run survives non-converging surface-GF/SCF
iterations, poisoned tasks, stragglers and dead ranks.  This package is
the reproduction's equivalent machinery:

* typed errors (:mod:`repro.errors`, re-exported here);
* a deterministic, seedable :class:`FaultInjector` planted in the
  transport solvers, the distributed driver, the comm layer and the I-V
  engine (the site-owner table is in :mod:`repro.resilience.faults`);
* recovery policies — the surface-GF degradation ladder
  (:func:`robust_surface_gf`) and the :class:`SCFRescue` ladder (the
  retry of a bias point that raised is :class:`repro.core.IVSweep`'s
  own loop);
* atomic :class:`~repro.resilience.checkpoint.SweepCheckpoint` for
  kill-and-resume sweeps, imported from :mod:`repro.resilience.checkpoint` (``import
  repro`` does not load it);
* numerical-health sentinels (:mod:`repro.resilience.health`) and the
  graceful-degradation ladder, whose quarantine is bounded by
  :func:`repro.resilience.degrade.check_quarantine`
  (:mod:`repro.resilience.degrade`);
* one :class:`DegradationReport` account attached to every run: sentinel
  trips, ladder steps, quarantined nodes, thrown faults and retries, dead
  ranks and checkpoint resumes.

The fault drills that drive this machinery end to end are tier-1 tests
(``tests/test_resilience.py``, ``tests/test_health.py``), run on both
execution backends; docs/TESTING.md maps each drill to its test.
"""

from ..errors import (
    ConvergenceError,
    DegradationBudgetError,
    NumericalBreakdownError,
    RankFailure,
    ReproError,
    SCFConvergenceError,
    SurfaceGFConvergenceError,
    TaskFailure,
)
from .degrade import DegradationReport, dense_oracle_solve
from .faults import (
    FaultInjector,
    InjectedFault,
    corrupt_hamiltonian,
    nan_like,
    non_finite,
)
from .health import (
    HealthEvent,
    HealthSentinel,
    condition_estimate,
    get_sentinel,
    use_sentinel,
)
from .policies import SCFRescue, robust_surface_gf

__all__ = [
    "ReproError",
    "ConvergenceError",
    "SurfaceGFConvergenceError",
    "SCFConvergenceError",
    "NumericalBreakdownError",
    "DegradationBudgetError",
    "TaskFailure",
    "RankFailure",
    "FaultInjector",
    "InjectedFault",
    "non_finite",
    "nan_like",
    "SCFRescue",
    "robust_surface_gf",
    "HealthEvent",
    "HealthSentinel",
    "condition_estimate",
    "get_sentinel",
    "use_sentinel",
    "DegradationReport",
    "corrupt_hamiltonian",
    "dense_oracle_solve",
]
