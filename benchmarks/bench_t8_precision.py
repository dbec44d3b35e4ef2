"""T8 — mixed-precision transport: speedup vs FP64 at certified accuracy.

The ``precision="mixed"`` execution mode factors and solves the batched
block-tridiagonal systems in complex64 and then runs FP64 iterative
refinement on the injection slivers until a backward-error target is
met, escalating any uncertifiable energy to the full-FP64 path.  This
benchmark prices the trade on a warm-cache energy sweep of a mid-size
barrier device (the regime the paper's throughput numbers live in,
where contact self-energies are cached and the block factorizations
dominate):

* **speedup** — best-of-N wall time of a 128-energy batched sweep,
  FP64 vs mixed, same solver configuration, warm
  :class:`repro.parallel.SelfEnergyCache` on both sides;
* **accuracy** — relative integrated-current error of the mixed sweep
  against the FP64 one (Landauer integral over the same window), plus
  the worst per-energy transmission error and the refinement counters
  (iterations, certified points, escalations) for the sweep;
* **escalation bit-identity** — on a small device, two energies forced
  to stall via ``refine_faults`` must re-solve bit-identically to a
  pure-FP64 run on every backend (serial, thread, process) with
  exactly one ``precision.fp64_escalations`` and one
  ``precision.injected_stalls`` per forced energy surviving telemetry
  merge-back.

The acceptance bar is a >= 1.5x warm-sweep speedup at <= 1e-8 relative
integrated-current error.  ``--smoke`` records the full report as the
``BENCH_precision`` measured baseline.
"""

import time

import numpy as np
from conftest import grid_transport_system, print_experiment, record_baseline

from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.negf import RGFSolver, landauer_current
from repro.observability import MetricsRegistry, use_metrics
from repro.parallel import SelfEnergyCache
from repro.physics.grids import uniform_grid

#: Sweep configuration: in-band window of the n_yz=5 grid device (block
#: size 25, past the ~24 threshold where complex64 batched GEMM pulls
#: ahead of complex128), with broadening fine enough that the fp32
#: factors are genuinely stressed.
N_X = 96
N_YZ = 5
BARRIER = 0.15
ETA = 1e-5
E_MIN, E_MAX = 1.70, 4.40
N_ENERGY = 128
BEST_OF = 3
#: Acceptance bars (ISSUE 10).
MIN_SPEEDUP = 1.5
MAX_REL_CURRENT = 1e-8
#: Landauer window parameters for the integrated-current error.
MU_SOURCE = 3.2
MU_DRAIN = 2.9
KT = 0.025


def _solver(precision):
    H = grid_transport_system(n_x=N_X, n_yz=N_YZ, barrier=BARRIER)
    return RGFSolver(
        H, eta=ETA, sigma_cache=SelfEnergyCache(maxsize=4096),
        precision=precision,
    )


def _sweep(precision):
    """Warm-cache best-of-N batched sweep at one precision."""
    solver = _solver(precision)
    energies = [float(e) for e in np.linspace(E_MIN, E_MAX, N_ENERGY)]
    registry = MetricsRegistry()
    with use_metrics(registry):
        results = solver.solve_batch(energies)  # warm the sigma cache
        best = float("inf")
        for _ in range(BEST_OF):
            t0 = time.perf_counter()
            results = solver.solve_batch(energies)
            best = min(best, time.perf_counter() - t0)
    t = np.array([float(r.transmission) for r in results])
    return t, best, registry.snapshot().flat()


def _speedup_report():
    t64, wall64, _ = _sweep("fp64")
    tmx, wallmx, flat = _sweep("mixed")
    grid = uniform_grid(E_MIN, E_MAX, N_ENERGY)
    i64 = landauer_current(grid, t64, MU_SOURCE, MU_DRAIN, KT)
    imx = landauer_current(grid, tmx, MU_SOURCE, MU_DRAIN, KT)
    rel = abs(imx - i64) / abs(i64)
    return {
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
        f"mixed sweep {report['speedup']:.2f}x over FP64 at "
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
