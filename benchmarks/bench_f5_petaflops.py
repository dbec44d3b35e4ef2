"""F5 — the headline: sustained performance up to ~1.44 PFlop/s.

The paper's Gordon Bell number is (counted flops)/(wall time) at 221,400
Cray XT5 cores: 1.44 PFlop/s, 62% of the machine's 2.33 PFlop/s peak.
Regenerated from the model (counted kernel flops + decomposition + machine
model — NOT fitted to the paper's curve; see DESIGN.md), plus the measured
local sustained rate under the identical accounting convention.
"""

import time

import numpy as np
from conftest import print_experiment, record_baseline

from repro.core import TransportCalculation
from repro.io import format_si, format_table
from repro.observability import Tracer, use_tracer
from repro.observability.export import flat_metrics
from repro.perf.machine import JAGUAR_XT5
from repro.perf.model import TransportWorkload, predict

PAPER_SUSTAINED = 1.44e15
PAPER_FRACTION = 0.62


def test_f5_sustained_petaflops(benchmark):
    workload = TransportWorkload(
        n_slabs=130, block_size=4000, n_bias=15, n_k=21, n_energy=702,
        n_channels=30, algorithm="wf", n_scf_iterations=3,
    )
    ranks = [8192, 32768, 65536, 131072, 221130]
    reports = benchmark.pedantic(
        lambda: [predict(workload, JAGUAR_XT5, p) for p in ranks],
        rounds=1, iterations=1,
    )
    rows = [
        (
            r.n_ranks,
            format_si(r.sustained_flops, "Flop/s"),
            f"{r.fraction_of_peak * 100:.1f}%",
            format_si(r.n_ranks * JAGUAR_XT5.flops_per_core, "Flop/s"),
        )
        for r in reports
    ]
    headline = reports[-1]
    print_experiment(
        "F5",
        "sustained Flop/s vs core count (the 1.44 PFlop/s headline)",
        f"paper: {format_si(PAPER_SUSTAINED, 'Flop/s')} at 221,400 cores "
        f"({PAPER_FRACTION:.0%} of peak)  |  model: "
        f"{format_si(headline.sustained_flops, 'Flop/s')} "
        f"({headline.fraction_of_peak:.0%} of used peak)",
    )
    print(format_table(
        ["cores", "sustained", "fraction of used peak", "used peak"], rows,
    ))
    # reproduction target: the petaflop saturation point within ~15%
    assert abs(headline.sustained_flops - PAPER_SUSTAINED) < 0.15 * PAPER_SUSTAINED
    assert abs(headline.fraction_of_peak - PAPER_FRACTION) < 0.08
    # monotone growth of sustained performance with machine size
    sustained = [r.sustained_flops for r in reports]
    assert all(b > a for a, b in zip(sustained[:-1], sustained[1:]))


def test_f5_measured_local_grounding(benchmark, fet_small):
    """The same counted-flops convention measured on this machine.

    Runs the solve under a live tracer so the *instrumented* kernel counts
    (actual Sancho-Rubio iterations, actual injected channels) sit next to
    the analytic ledger the flop model charges; the traced metrics become
    the ``BENCH_f5_local`` measured baseline.
    """
    tc = TransportCalculation(fet_small, method="wf", n_energy=41)
    pot = np.zeros(fet_small.n_atoms)

    def run():
        tracer = Tracer()
        t0 = time.perf_counter()
        with use_tracer(tracer):
            res = tc.solve_bias(pot, v_drain=0.1)
        return res.flops.total, tracer, time.perf_counter() - t0

    analytic, tracer, dt = benchmark.pedantic(run, rounds=1, iterations=1)
    measured = tracer.total_flops
    sustained = measured / dt
    path = record_baseline("f5_local", flat_metrics(tracer))
    print_experiment(
        "F5b",
        "measured local sustained rate (grounding)",
        f"{format_si(measured, 'Flop')} measured "
        f"({format_si(analytic, 'Flop')} analytic) in {dt:.2f} s -> "
        f"{format_si(sustained, 'Flop/s')} on one Python process; "
        f"baseline -> {path.name}",
    )
    # numpy/BLAS on one core: somewhere between 10 MFlop/s and 100 GFlop/s
    assert 1e7 < sustained < 1e11
    # the analytic ledger (which assumes a fixed surface-GF iteration
    # count) and the instrumented counts must agree to within a factor ~2
    assert 0.5 < measured / analytic < 2.0
