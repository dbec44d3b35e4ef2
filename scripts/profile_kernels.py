#!/usr/bin/env python
"""Where kernel time goes: per-call-site self-time of one stacked solve.

Profiles ``solve_batch`` of one 16-energy stack on the 48-block, m=25
wide device through both transport kernels and prints, per kernel, the
wall time spent in every call site — LAPACK ``inv`` / ``solve`` /
``eigh``, the block ``@`` products of the LU, the contacts' surface GF, the
health checks (the sentinel's and the invariant monitor's), the
observable contractions, and interpreter glue — as milliseconds and as a
share of ``solve_batch``.  The table in ``docs/ARCHITECTURE.md`` ("Where
kernel time goes") is this script's output.

A *call site* is a Python function of ``repro`` or one of the
``numpy.linalg`` entry points.  Time spent in C (LAPACK, BLAS ``@``,
ufuncs, reductions) lands in the Python frame that called it, and
numpy's own Python helpers are folded into the site that called them —
which is exactly the attribution ``cProfile`` cannot give, because ``@``
and ufunc calls are invisible to it.  The profiler costs about a
microsecond per Python call, so interpreter-bound sites read slightly
high; shares, not seconds, are what the table is for.

Usage::

    python scripts/profile_kernels.py [--check] [--repeats N]

``--check`` exits non-zero when a non-BLAS contraction site — any
function of the two kernel modules other than the contraction GEMMs and
the system assembly: the elementwise products and row sums of the
observable stage and the glue around them — exceeds ``BAR`` of
``solve_batch`` in either kernel: the CI guard against a scalar-loop
``einsum`` or a per-energy loop coming back.  The verdict is the median
over the profiled repeats (at least ``MIN_REPEATS``) of each repeat's
largest such share, so one repeat slowed by the runner does not fail
it.  BLAS is pinned to one thread (before numpy loads) so the shares
are those of the benchmark configuration and stable on a shared runner.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

#: The profiled stack: the wide e2e device's blocks, one sub-stack of it.
N_X, N_YZ, N_ENERGIES = 48, 5, 16
#: Largest share of ``solve_batch`` a non-BLAS contraction site may take.
BAR = 0.05
#: Fewest profiled repeats ``--check`` judges its median over.
MIN_REPEATS = 7

#: Call-site categories, first match wins: (label, site-name prefixes).
#: The kernel modules themselves hold nothing but the observable stage —
#: LU, surface GF and LAPACK live elsewhere — so whatever of them is not
#: one of the functions whose body is a contraction's GEMM, or the system
#: assembly, is contraction arithmetic outside BLAS (plus the T product
#: of RGF and the glue written next to it), wherever a later change puts
#: it.
OBSERVABLES = "observables (non-BLAS)"
CATEGORIES = [
    ("LAPACK inv", ("numpy.linalg.inv",)),
    ("LAPACK solve", ("numpy.linalg.solve",)),
    ("LAPACK eigh", ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")),
    ("health checks", (
        "resilience.", "solvers.block_tridiagonal:_factor_health_check",
        "negf.surface_gf:_surface_health_check", "observability.invariants:",
    )),
    ("block @ (LU)", ("solvers.block_tridiagonal:",)),
    ("surface GF", ("negf.surface_gf:",)),
    ("system assembly", ("negf.rgf:assemble_system_blocks",)),
    ("contraction GEMM", (
        "negf.rgf:_contact_density", "wf.qtbm:_transmission",
        "wf.qtbm:_interface_currents",
    )),
    (OBSERVABLES, ("negf.rgf:", "wf.qtbm:")),
]
#: Where time outside every site goes (stdlib, numpy called from no site).
REST = "Python (rest)"
_LINALG = ("inv", "solve", "eigh", "eigvalsh")


def site_of(code) -> str | None:
    """Call-site name of a code object; None folds it into its caller."""
    path = code.co_filename.replace(os.sep, "/")
    if "/repro/" in path:
        module = path.rsplit("/repro/", 1)[1][:-3].replace("/", ".")
        return f"{module}:{code.co_qualname}"
    if path.endswith("numpy/linalg/_linalg.py") and code.co_name in _LINALG:
        return f"numpy.linalg.{code.co_name}"
    return None


def category_of(site: str) -> str:
    for label, prefixes in CATEGORIES:
        if site.startswith(prefixes):
            return label
    return REST


class SiteProfiler:
    """Wall time per call site, C time charged to the calling Python frame."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._stack: list[str] = []
        self._mark = 0.0

    def _event(self, frame, event, arg):
        if event not in ("call", "return"):
            return  # c_call / c_return: the time stays with the caller
        now = time.perf_counter()
        if self._stack:
            site = self._stack[-1]
            self.seconds[site] = self.seconds.get(site, 0.0) + now - self._mark
        if event == "call":
            inherited = self._stack[-1] if self._stack else REST
            self._stack.append(site_of(frame.f_code) or inherited)
        elif self._stack:
            self._stack.pop()
        self._mark = time.perf_counter()

    def run(self, fn) -> None:
        self._stack = [REST]
        self._mark = time.perf_counter()
        sys.setprofile(self._event)
        try:
            fn()
        finally:
            sys.setprofile(None)
            self.seconds[REST] = (
                self.seconds.get(REST, 0.0) + time.perf_counter() - self._mark
            )
            self._stack = []


def wide_hamiltonian():
    """The 48-block, m=25 effective-mass wire of ``transport_wide_process``."""
    from repro.lattice import partition_into_slabs, rectangular_grid_device
    from repro.tb import build_device_hamiltonian, single_band_material

    mat = single_band_material(m_rel=0.3, spacing_nm=0.25)
    wire = rectangular_grid_device(0.25, N_X, N_YZ, N_YZ)
    return build_device_hamiltonian(
        partition_into_slabs(wire, 0.25, 0.25), mat
    )


def profile(solver, energies, repeats: int) -> dict[str, float]:
    """Mean seconds per call site over ``repeats`` profiled calls."""
    solver.solve_batch(energies)  # warm-up: lazy imports, BLAS buffers
    profiler = SiteProfiler()
    for _ in range(repeats):
        profiler.run(lambda: solver.solve_batch(energies))
    return {site: s / repeats for site, s in profiler.seconds.items()}


def largest_share(seconds: dict[str, float]) -> float:
    """Share of ``solve_batch`` of the largest non-BLAS contraction site."""
    return max(
        (s for site, s in seconds.items() if category_of(site) == OBSERVABLES),
        default=0.0,
    ) / sum(seconds.values())


def report(kernel: str, runs: list[dict[str, float]]) -> float:
    """Print one kernel's table (mean seconds over the repeats); return
    the median over the repeats of the largest non-BLAS contraction
    share."""
    seconds: dict[str, float] = {}
    for run in runs:
        for site, s in run.items():
            seconds[site] = seconds.get(site, 0.0) + s / len(runs)
    total = sum(seconds.values())
    by_category: dict[str, float] = {}
    for site, s in seconds.items():
        label = category_of(site)
        by_category[label] = by_category.get(label, 0.0) + s
    print(f"\n{kernel}.solve_batch: {N_ENERGIES} energies, "
          f"{N_X} blocks of m={N_YZ * N_YZ}: {total * 1e3:.1f} ms "
          f"({total / N_ENERGIES * 1e3:.2f} ms/pt under the profiler)")
    print(f"  {'call sites':<26} {'ms':>8} {'share':>7}")
    for label, s in sorted(by_category.items(), key=lambda kv: -kv[1]):
        print(f"  {label:<26} {s * 1e3:8.2f} {s / total:7.1%}")
    print("  largest sites:")
    for site, s in sorted(seconds.items(), key=lambda kv: -kv[1])[:8]:
        print(f"    {site:<52} {s * 1e3:8.2f} {s / total:7.1%}")
    return float(np.median([largest_share(run) for run in runs]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 if a non-BLAS contraction exceeds {BAR:.0%} of "
             "solve_batch in either kernel",
    )
    parser.add_argument("--repeats", type=int, default=MIN_REPEATS,
                        help="profiled solve_batch calls per kernel")
    args = parser.parse_args(argv)
    if args.check and args.repeats < MIN_REPEATS:
        parser.error(f"--check judges a median of at least {MIN_REPEATS} "
                     "repeats")

    from repro.negf import RGFSolver
    from repro.wf import WFSolver

    H = wide_hamiltonian()
    # the Fermi-window end of the lowest subbands: open and closed channels
    energies = np.linspace(0.3, 1.2, N_ENERGIES)
    shares = {
        kernel: report(kernel, [profile(solver, energies, 1)
                                for _ in range(args.repeats)])
        for kernel, solver in (("rgf", RGFSolver(H)), ("wf", WFSolver(H)))
    }
    worst = max(shares, key=shares.get)
    print("\nlargest non-BLAS contraction site (median of "
          f"{args.repeats} repeats): "
          + ", ".join(f"{k} {v:.1%}" for k, v in shares.items())
          + f" of solve_batch (bar {BAR:.0%})")
    if args.check and shares[worst] > BAR:
        print(f"FAIL: a non-BLAS contraction takes {shares[worst]:.1%} of "
              f"{worst}.solve_batch", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
