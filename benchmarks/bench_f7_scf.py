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
stamped with core count, BLAS threads and git sha.
"""

import os

# one BLAS thread, like benchmarks/e2e: the blocks are 4 x 4
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time  # noqa: E402
from unittest import mock  # noqa: E402

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
from repro.poisson import nonlinear  # noqa: E402

#: ``benchmarks/e2e/workloads.py`` ``scf_sweep_wf`` at seed 0.
SWEEP_SPEC = dict(
    name="e2e-fet", n_x=12, n_y=2, n_z=2, spacing_nm=0.25, source_cells=4,
    drain_cells=4, gate_cells=(4, 8), donor_density_nm3=0.05,
    material_params={"m_rel": 0.3},
)
SWEEP_GATES = [-0.4, -0.3, -0.2]
SWEEP_V_DRAIN = 0.05
SWEEP_N_ENERGY = 41
BEST_OF = 5


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
    # Poisson costs (operator elimination, Jacobian per Newton step)
    with use_metrics(MetricsRegistry()) as registry, mock.patch.object(
        nonlinear, "apply_dirichlet", wraps=nonlinear.apply_dirichlet
    ) as eliminations, mock.patch.object(
        nonlinear.NonlinearPoisson, "jacobian", autospec=True,
        side_effect=nonlinear.NonlinearPoisson.jacobian,
    ) as jacobians:
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
        "newton_steps": jacobians.call_count,
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
    return report


def _smoke():
    report = _sweep_report()
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
