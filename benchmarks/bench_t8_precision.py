"""T8 — mixed-precision transport: speedup vs FP64 at certified accuracy.

The ``precision="mixed"`` execution mode factors and solves the stacked
block-tridiagonal systems in complex64 and then runs FP64 iterative
refinement on the injection slivers until a backward-error target is
met, escalating any uncertifiable energy to the full-FP64 path.  The
contact self-energies are full FP64 in both modes, so the benchmark
evaluates them once (:meth:`repro.negf.Contacts.sigma_stacks`) and
prices what the modes do differently — the post-contact stage — on an
energy stack of a block-size-64 barrier device:

* **speedup** — best-of-N wall time of the post-contact stage of a
  32-energy stack, FP64 (:meth:`RGFSolver.kernel_stage`) vs mixed, same
  Hamiltonian, same self-energy stacks;
* **accuracy** — relative integrated-current error of the mixed stack
  against the FP64 one (Landauer integral over the same window), plus
  the worst per-energy transmission error and the refinement counters
  (iterations, certified points, escalations) for the stack;
* **escalation bit-identity** — on a small device, two energies forced
  to stall via ``refine_faults`` must re-solve bit-identically to a
  pure-FP64 run on every backend (serial, thread, process) with
  exactly one ``precision.fp64_escalations`` and one
  ``precision.injected_stalls`` per forced energy surviving telemetry
  merge-back.

The acceptance bar is a >= 1.1x speedup at <= 1e-8 relative
integrated-current error.  The source paper's own ratio is 1.44 PFlop/s
mixed over 1.28 double = 1.125x; complex64 buys GEMM throughput but not
LAPACK ``inv`` time on this OpenBLAS, so the ratio grows with the block
size (1.0x at m = 25, ~1.3x at m = 64-100).  ``--smoke`` records the
full report, with core count, block size and git sha, as the
``BENCH_precision`` measured baseline.
"""

import os

# one BLAS thread, like benchmarks/e2e and scripts/profile_kernels.py:
# on a small box threaded OpenBLAS stalls on the tall-skinny sliver GEMMs
# and the ratio measures the stall, not the arithmetic
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time  # noqa: E402

import numpy as np  # noqa: E402
from conftest import (  # noqa: E402
    git_sha,
    grid_transport_system,
    print_experiment,
    record_baseline,
)

from repro.core import DeviceSpec, TransportCalculation, build_device  # noqa: E402
from repro.negf import RGFSolver, landauer_current  # noqa: E402
from repro.observability import MetricsRegistry, use_metrics  # noqa: E402
from repro.physics.grids import uniform_grid  # noqa: E402

#: Stack configuration: in-band window of the n_yz=8 grid device (block
#: size 64, where complex64 stacked GEMM outweighs the LAPACK calls it
#: does not speed up), with broadening fine enough that the fp32 factors
#: are genuinely stressed; 32 slabs x 32 energies keeps ``--smoke``
#: under a minute.
N_X = 32
N_YZ = 8
BARRIER = 0.15
ETA = 1e-5
E_MIN, E_MAX = 1.70, 4.40
N_ENERGY = 32
BEST_OF = 7
#: Acceptance bars (ROADMAP item 2: the paper's own ratio is 1.125x).
MIN_SPEEDUP = 1.1
MAX_REL_CURRENT = 1e-8
#: Landauer window parameters for the integrated-current error.
MU_SOURCE = 3.2
MU_DRAIN = 2.9
KT = 0.025


def _stages(H, energies, sigmas):
    """Best-of-N post-contact stage of both precisions on given contacts.

    One untimed pass per precision pages in BLAS and records the
    ``precision.*`` counters; the timed passes then alternate fp64 /
    mixed so machine drift lands on both sides.  Returns
    ``{precision: (transmission, best_s, metrics)}``.
    """
    fp64 = RGFSolver(H, eta=ETA, precision="fp64")
    mixed = RGFSolver(H, eta=ETA, precision="mixed")
    runs = {
        "fp64": lambda: fp64.kernel_stage(energies, *sigmas),
        "mixed": lambda: mixed._mixed_stage(energies, *sigmas)[0],
    }
    transmission, metrics = {}, {}
    for name, run in runs.items():
        registry = MetricsRegistry()
        with use_metrics(registry):
            results = run()
        transmission[name] = np.array([float(r.transmission) for r in results])
        metrics[name] = registry.snapshot().flat()
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(BEST_OF):
        for name, run in runs.items():
            t0 = time.perf_counter()
            run()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {
        name: (transmission[name], best[name], metrics[name]) for name in runs
    }


def _speedup_report():
    H = grid_transport_system(n_x=N_X, n_yz=N_YZ, barrier=BARRIER)
    grid = uniform_grid(E_MIN, E_MAX, N_ENERGY)
    # the contacts, once: both precisions consume the same FP64 stacks
    sigmas = RGFSolver(H, eta=ETA).contacts.sigma_stacks(grid.energies)
    stages = _stages(H, grid.energies, sigmas)
    t64, wall64, _ = stages["fp64"]
    tmx, wallmx, flat = stages["mixed"]
    i64 = landauer_current(grid, t64, MU_SOURCE, MU_DRAIN, KT)
    imx = landauer_current(grid, tmx, MU_SOURCE, MU_DRAIN, KT)
    rel = abs(imx - i64) / abs(i64)
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
        "sweep.n_energy": N_ENERGY,
        "sweep.n_blocks": N_X,
        "sweep.block_size": N_YZ * N_YZ,
        "sweep.rel_current_error": float(rel),
        "sweep.max_t_error": float(np.max(np.abs(tmx - t64))),
        "sweep.points_certified": flat.get(
            "precision.points_certified", 0.0),
        "sweep.fp64_escalations": flat.get(
            "precision.fp64_escalations", 0.0),
        "sweep.refine_iterations_mean": flat.get(
            "precision.refine_iterations.mean", 0.0),
        "sweep.refine_iterations_count": flat.get(
            "precision.refine_iterations.count", 0.0),
        "time.fp64_sweep_s": wall64,
        "time.mixed_sweep_s": wallmx,
        "speedup": wall64 / wallmx,
    }


# ---------------------------------------------------------------------
def _mini_built():
    spec = DeviceSpec(
        name="bench-precision-mini", n_x=10, n_y=2, n_z=2,
        spacing_nm=0.25, source_cells=3, drain_cells=3, gate_cells=(4, 6),
        donor_density_nm3=0.05, material_params={"m_rel": 0.3},
    )
    return build_device(spec)


def _escalation_report():
    """Forced stalls must match FP64 bitwise on every backend."""
    built = _mini_built()
    pot = np.zeros(built.n_atoms)
    ref_calc = TransportCalculation(
        built, method="rgf", n_energy=13, backend="serial",
    )
    grid = ref_calc.energy_grid(pot, 0.1)
    ref = ref_calc.solve_bias(pot, 0.1, energy_grid=grid)
    faults = (float(grid.energies[3]), float(grid.energies[8]))
    backends = [("serial", None), ("thread", 2), ("process", 2)]
    checked = 0
    for label, workers in backends:
        calc = TransportCalculation(
            built, method="rgf", n_energy=13, backend=label,
            workers=workers, precision="mixed", refine_faults=faults,
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            res = calc.solve_bias(pot, 0.1, energy_grid=grid)
        snap = registry.snapshot()
        for i in (3, 8):
            assert np.array_equal(
                ref.transmission[:, i], res.transmission[:, i]
            ), (label, i)
        assert snap.total("precision.fp64_escalations") == len(faults), label
        assert snap.total("precision.injected_stalls") == len(faults), label
        checked += 1
    return {
        "escalation.backends_bit_identical": checked,
        "escalation.injected_per_backend": len(faults),
    }


def _full_report():
    report = _speedup_report()
    report.update(_escalation_report())
    assert report["sweep.rel_current_error"] <= MAX_REL_CURRENT, report
    assert report["speedup"] >= MIN_SPEEDUP, report
    return report


def test_t8_escalation_bit_identity():
    """Forced refinement stalls must equal pure FP64 on every backend."""
    report = _escalation_report()
    assert report["escalation.backends_bit_identical"] == 3


def _smoke():
    report = _full_report()
    path = record_baseline("precision", report)
    print_experiment(
        "T8/precision",
        f"mixed post-contact stage {report['speedup']:.2f}x over FP64 at "
        f"block size {report['sweep.block_size']}, "
        f"{report['sweep.rel_current_error']:.1e} relative current error "
        f"({int(report['sweep.points_certified'])} certified, "
        f"{int(report['sweep.fp64_escalations'])} escalated); "
        f"escalation bit-identical on "
        f"{report['escalation.backends_bit_identical']} backends",
        notes=f"baseline -> {path}",
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="measure the mixed-precision speedup and write "
             "BENCH_precision.json",
    )
    args = parser.parse_args()
    if args.smoke:
        _smoke()
    else:
        parser.error("run under pytest for the assertion-only check, "
                     "or pass --smoke")
