"""F7 — self-consistency: Poisson-transport convergence and mixing ablation.

Regenerates the convergence figure: SCF residual vs iteration for the
nanowire FET at several bias points, and the Anderson-vs-linear mixing
ablation (DESIGN.md section 5).  Reproduction targets: geometric residual
decay, convergence within tens of iterations at every bias, and Anderson
needing no more iterations than plain damped mixing.

``--smoke`` (plain-script mode) runs the 3-point transfer sweep of the
end-to-end benchmark's ``scf_sweep_wf`` workload (seed 0) and records
what a sweep does per potential as the ``BENCH_scf_sweep`` measured
baseline: SCF iterations, transport solves run and handed over, Newton
steps and Poisson operator builds are exact counts; the wall time is
stamped with core count, BLAS threads and git sha.  It also times one
semiclassical Poisson solve on the fet and wide meshes with the banded
Cholesky step and with a SuperLU reference step (``poisson.*`` rows).
"""

import os

# one BLAS thread, like benchmarks/e2e: the blocks are 4 x 4
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402
from conftest import git_sha, print_experiment, record_baseline  # noqa: E402

from repro.core import (  # noqa: E402
    DeviceSpec,
    IVSweep,
    SelfConsistentSolver,
    TransportCalculation,
    build_device,
)
from repro.io import format_table  # noqa: E402
from repro.observability import MetricsRegistry, use_metrics  # noqa: E402
from repro.poisson import SemiclassicalCharge, nonlinear  # noqa: E402

#: ``benchmarks/e2e/workloads.py`` ``scf_sweep_wf`` at seed 0.
SWEEP_SPEC = dict(
    name="e2e-fet", n_x=12, n_y=2, n_z=2, spacing_nm=0.25, source_cells=4,
    drain_cells=4, gate_cells=(4, 8), donor_density_nm3=0.05,
    material_params={"m_rel": 0.3},
)
SWEEP_GATES = [-0.4, -0.3, -0.2]
SWEEP_V_DRAIN = 0.05
SWEEP_N_ENERGY = 41
#: Newton steps of one counted sweep (``newton_steps`` in BENCH_scf_sweep).
SWEEP_NEWTON_STEPS = 44
BEST_OF = 5
#: Poisson meshes timed with both linear steps: the sweep's FET and the
#: m = 25 device of ``transport_wide_process`` (its band is 81 wide).
POISSON_MESHES = {
    "fet": SWEEP_SPEC,
    "wide": dict(SWEEP_SPEC, name="e2e-wide", n_x=48, n_y=5, n_z=5,
                 source_cells=8, drain_cells=8, gate_cells=(16, 32)),
}
POISSON_GATE = -0.3


def test_f7_residual_histories(benchmark, fet_small, fet_transport):
    biases = [(-0.4, 0.05), (-0.15, 0.05), (0.0, 0.1)]

    def run_all():
        scf = SelfConsistentSolver(fet_small, fet_transport)
        return [
            (vg, vd, scf.run(vg, vd, continuation_step=0.0))
            for vg, vd in biases
        ]

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for vg, vd, out in outcomes:
        hist = " ".join(f"{r:.0e}" for r in out.residuals[:8])
        rows.append((
            f"({vg:+.2f}, {vd:.2f})",
            "yes" if out.converged else "NO",
            out.n_iterations,
            f"{out.residuals[-1]:.1e}",
            hist,
        ))
    print_experiment(
        "F7a",
        "SCF residual vs iteration at three bias points",
        "max|delta phi| (V) per Gummel iteration; Anderson-accelerated",
    )
    print(format_table(
        ["(V_G, V_D)", "converged", "iters", "final residual",
         "first 8 residuals"],
        rows,
    ))
    for _, _, out in outcomes:
        assert out.converged
        assert out.residuals[-1] < out.residuals[0]


def test_f7_mixing_ablation(benchmark, fet_small, fet_transport):
    def ablate():
        rows = []
        for mixing in ("anderson", "linear"):
            scf = SelfConsistentSolver(
                fet_small, fet_transport, mixing=mixing, max_iterations=60
            )
            out = scf.run(-0.15, 0.05, continuation_step=0.0)
            rows.append((mixing, "yes" if out.converged else "NO",
                         out.n_iterations, f"{out.residuals[-1]:.1e}"))
        return rows

    rows = benchmark.pedantic(ablate, rounds=1, iterations=1)
    print_experiment(
        "F7b",
        "mixing ablation: Anderson vs plain damped (same bias point)",
    )
    print(format_table(["mixer", "converged", "iterations", "final"], rows))
    anderson_iters = rows[0][2]
    linear_iters = rows[1][2]
    assert rows[0][1] == "yes"
    assert anderson_iters <= linear_iters


def test_f7_warm_start(benchmark, fet_small, fet_transport):
    def warm():
        scf = SelfConsistentSolver(fet_small, fet_transport)
        cold = scf.run(-0.2, 0.05)
        warm = scf.run(-0.18, 0.05, phi0=cold.phi)
        return cold, warm

    cold, warm = benchmark.pedantic(warm, rounds=1, iterations=1)
    print_experiment(
        "F7c",
        "warm-start acceleration (bias-sweep continuation)",
        f"cold start: {cold.n_iterations} iterations; warm start from the "
        f"neighbouring bias: {warm.n_iterations}",
    )
    assert warm.n_iterations <= cold.n_iterations


# ---------------------------------------------------------------------
def _sweep(built):
    """One execution as the workload runs it: fresh calculation + solver."""
    calc = TransportCalculation(built, method="wf", n_energy=SWEEP_N_ENERGY)
    return IVSweep(SelfConsistentSolver(built, calc)).transfer_curve(
        SWEEP_GATES, v_drain=SWEEP_V_DRAIN
    )


def _sweep_report():
    built = build_device(DeviceSpec(**SWEEP_SPEC))
    # counted pass: the run's own counters plus call counts of the two
    # Poisson costs (operator elimination, banded solve per Newton step)
    with use_metrics(MetricsRegistry()) as registry, mock.patch.object(
        nonlinear, "apply_dirichlet", wraps=nonlinear.apply_dirichlet
    ) as eliminations, mock.patch.object(
        nonlinear, "_band_solve", wraps=nonlinear._band_solve
    ) as band_solves:
        curve = _sweep(built)
    snap = registry.snapshot()
    best = float("inf")
    for _ in range(BEST_OF):
        t0 = time.perf_counter()
        _sweep(built)
        best = min(best, time.perf_counter() - t0)
    report = {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
        "sweep.n_points": len(curve.points),
        "sweep.n_energy": SWEEP_N_ENERGY,
        "sweep.converged_points": sum(p.converged for p in curve.points),
        "scf_iterations": int(snap.counter("scf.iterations")),
        "transport_solves": int(snap.counter("scf.transport_solves")),
        "transport_reused": int(snap.counter("scf.transport_reused")),
        "newton_steps": band_solves.call_count,
        "poisson_operator_builds": eliminations.call_count,
        "flops": float(curve.flops.total),
        "time.sweep_s": best,
    }
    n_points = report["sweep.n_points"]
    assert report["sweep.converged_points"] == n_points, report
    assert report["transport_reused"] == n_points - 1, report
    # iterations + one report per point - the hand-overs
    assert report["transport_solves"] == report["scf_iterations"] + 1, report
    assert report["poisson_operator_builds"] == 1, report
    assert report["newton_steps"] == SWEEP_NEWTON_STEPS, report
    return report


def _superlu_step(solver):
    """A ``_band_solve`` stand-in taking the step as SuperLU did: the
    band's diagonal row written into the diagonal slots of one CSC copy of
    ``S J``, then ``spsolve`` (the same system, the same residuals)."""
    kd, n = solver._band.shape[0] - 1, solver._band.shape[1]
    pattern = solver._band.copy()
    pattern[-1] = 1.0  # a full diagonal, whatever the last step wrote
    upper = sp.dia_matrix((pattern, np.arange(kd, -1, -1)), shape=(n, n))
    matrix = sp.csc_matrix(upper + sp.triu(upper, k=1).T)
    matrix.sort_indices()
    columns = np.repeat(np.arange(n), np.diff(matrix.indptr))
    slots = np.flatnonzero(matrix.indices == columns)

    def step(ab, b):
        matrix.data[slots] = ab[-1]
        return None, spla.spsolve(matrix, b), 0

    return step


def _poisson_report():
    """Median ms of one semiclassical Poisson solve (tol 1e-8, the SCF's
    initial guess) per mesh, banded Cholesky vs the SuperLU reference."""
    report = {}
    for name, spec in POISSON_MESHES.items():
        built = build_device(DeviceSpec(**spec))
        solver = SelfConsistentSolver(
            built, TransportCalculation(built, method="wf", n_energy=5)
        ).poisson
        model = SemiclassicalCharge(
            mu=built.contact_mu("source"), band_edge=built.band_edge,
            m_rel=built.m_dos, kT=built.spec.kT,
            semiconductor_mask=built.semiconductor_mask,
        )
        banded, superlu = f"poisson.{name}.", f"poisson.{name}.spsolve."
        for prefix, step in ((banded, nonlinear._band_solve),
                             (superlu, _superlu_step(solver))):
            times = []
            with mock.patch.object(nonlinear, "_band_solve", step):
                for _ in range(2 * BEST_OF + 1):
                    t0 = time.perf_counter()
                    result = solver.solve(model, tol=1e-8, max_iter=60,
                                          dirichlet_values=POISSON_GATE)
                    times.append(time.perf_counter() - t0)
            assert result.converged, prefix
            report[prefix + "solve_ms"] = 1e3 * float(np.median(times))
            report[prefix + "newton_steps"] = result.n_iterations
        assert (report[banded + "newton_steps"]
                == report[superlu + "newton_steps"]), report
        report[banded + "speedup"] = (
            report[superlu + "solve_ms"] / report[banded + "solve_ms"])
    return report


def _smoke():
    report = {**_sweep_report(), **_poisson_report()}
    path = record_baseline("scf_sweep", report)
    print_experiment(
        "F7/sweep",
        f"{report['sweep.n_points']}-point transfer sweep: "
        f"{report['scf_iterations']} SCF iterations, "
        f"{report['transport_solves']} transport solves "
        f"(+{report['transport_reused']} handed over), "
        f"{report['newton_steps']} Newton steps on "
        f"{report['poisson_operator_builds']} Poisson operator, "
        f"{report['time.sweep_s'] * 1e3:.0f} ms",
        notes=f"baseline -> {path}",
    )
    print(format_table(
        ["mesh", "Newton steps", "banded Cholesky (ms)", "SuperLU (ms)",
         "speedup"],
        [(name, report[f"poisson.{name}.newton_steps"],
          f"{report[f'poisson.{name}.solve_ms']:.2f}",
          f"{report[f'poisson.{name}.spsolve.solve_ms']:.2f}",
          f"{report[f'poisson.{name}.speedup']:.1f}x")
         for name in POISSON_MESHES],
    ))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="count and time the scf_sweep_wf transfer sweep and write "
             "BENCH_scf_sweep.json",
    )
    args = parser.parse_args()
    if args.smoke:
        _smoke()
    else:
        parser.error("run under pytest for the F7 figures, or pass --smoke")
