"""F4 — weak scaling: problem grown with the machine.

The paper's weak-scaling story: growing the energy grid (or the bias sweep)
proportionally to the core count keeps the walltime flat, because the outer
levels of the decomposition are embarrassingly parallel.  Regenerated with
the performance model along two growth axes.
"""

from conftest import print_experiment

from repro.io import format_si, format_table
from repro.perf.machine import JAGUAR_XT5
from repro.perf.model import TransportWorkload, weak_scaling


def base_workload():
    return TransportWorkload(
        n_slabs=130, block_size=4000, n_bias=1, n_k=21, n_energy=64,
        n_channels=30, algorithm="wf", n_scf_iterations=1,
    )


def test_f4_weak_scaling_energy(benchmark):
    ranks = [1344, 2688, 5376, 10752, 21504]
    reports = benchmark.pedantic(
        lambda: weak_scaling(base_workload(), JAGUAR_XT5, ranks,
                             grow="n_energy"),
        rounds=1, iterations=1,
    )
    t0 = reports[0].walltime_s
    rows = [
        (
            r.n_ranks, "x".join(map(str, r.groups)),
            f"{r.walltime_s:.0f}", f"{t0 / r.walltime_s * 100:.0f}%",
            format_si(r.sustained_flops, "Flop/s"),
        )
        for r in reports
    ]
    print_experiment(
        "F4",
        "modelled weak scaling (energy grid grown with cores)",
        "paper shape: flat walltime, sustained Flop/s grows linearly",
    )
    print(format_table(
        ["cores", "groups", "walltime (s)", "weak efficiency", "sustained"],
        rows,
    ))
    for r in reports[1:]:
        assert r.walltime_s < 1.3 * t0  # flat to within 30%
    assert (
        reports[-1].sustained_flops
        > 0.6 * reports[0].sustained_flops * ranks[-1] / ranks[0]
    )


def test_f4_weak_scaling_bias(benchmark):
    ranks = [1344, 2688, 5376, 10752]
    base = TransportWorkload(
        n_slabs=130, block_size=4000, n_bias=1, n_k=21, n_energy=64,
        n_channels=30, algorithm="wf",
    )
    reports = benchmark.pedantic(
        lambda: weak_scaling(base, JAGUAR_XT5, ranks, grow="n_bias"),
        rounds=1, iterations=1,
    )
    t0 = reports[0].walltime_s
    rows = [
        (r.n_ranks, "x".join(map(str, r.groups)), f"{r.walltime_s:.0f}",
         f"{t0 / r.walltime_s * 100:.0f}%")
        for r in reports
    ]
    print_experiment(
        "F4b",
        "modelled weak scaling (bias sweep grown with cores)",
        "the bias level is perfectly parallel: efficiency ~100%",
    )
    print(format_table(["cores", "groups", "walltime (s)", "efficiency"], rows))
    for r in reports[1:]:
        assert r.walltime_s < 1.15 * t0
