"""F3 — strong scaling: fixed problem, growing core counts.

Regenerated at two scales (DESIGN.md substitution):

* modelled: the paper-scale UTB campaign on the simulated Cray XT5, 1k to
  221k cores — walltime, speedup and parallel efficiency from counted
  flops + the real decomposition arithmetic + the communication model;
* measured: the energy level of the decomposition executed for real — the
  per-energy tasks of a transport sweep are timed individually, then the
  decomposition's block-cyclic makespan gives the measured speedup curve a
  real MPI run would see (perfect-network limit).
"""

import numpy as np
from conftest import print_experiment, record_baseline

from repro.io import format_si, format_table
from repro.observability import Tracer, use_tracer
from repro.observability.export import flat_metrics
from repro.parallel import Decomposition, run_tasks
from repro.perf.machine import JAGUAR_XT5
from repro.perf.model import TransportWorkload, strong_scaling
from repro.wf import WFSolver


def paper_workload():
    return TransportWorkload(
        n_slabs=130, block_size=4000, n_bias=15, n_k=21, n_energy=702,
        n_channels=30, algorithm="wf", n_scf_iterations=3,
    )


def test_f3_modelled_strong_scaling(benchmark):
    ranks = [1024, 4096, 16384, 65536, 131072, 221130]
    reports = benchmark.pedantic(
        lambda: strong_scaling(paper_workload(), JAGUAR_XT5, ranks),
        rounds=1, iterations=1,
    )
    base = reports[0]
    rows = []
    for r in reports:
        speedup = base.walltime_s / r.walltime_s
        ideal = r.n_ranks / base.n_ranks
        rows.append((
            r.n_ranks, "x".join(map(str, r.groups)),
            f"{r.walltime_s / 3600:.2f}",
            f"{speedup:.0f}", f"{speedup / ideal * 100:.0f}%",
            format_si(r.sustained_flops, "Flop/s"),
        ))
    print_experiment(
        "F3a",
        "modelled strong scaling, paper-scale UTB on Cray XT5",
        "paper shape: near-ideal scaling through the outer levels, "
        "saturating at full machine",
    )
    print(format_table(
        ["cores", "groups", "walltime (h)", "speedup vs 1k",
         "efficiency", "sustained"],
        rows,
    ))
    times = [r.walltime_s for r in reports]
    assert all(t1 > t2 for t1, t2 in zip(times[:-1], times[1:]))
    # >= 50% parallel efficiency at full machine (paper: ~60%)
    full = reports[-1]
    eff = (base.walltime_s / full.walltime_s) / (full.n_ranks / base.n_ranks)
    assert eff > 0.5


def test_f3_measured_energy_level(benchmark, fet_small, fet_transport):
    """Time real per-energy tasks; replay the decomposition's makespan."""
    H = fet_transport.hamiltonian(np.zeros(fet_small.n_atoms))
    solver = WFSolver(H)
    grid = fet_transport.energy_grid(np.zeros(fet_small.n_atoms), 0.1)
    energies = grid.energies[:48]

    def run():
        with use_tracer(Tracer()) as tracer:
            rep = run_tasks(list(energies), lambda e: solver.solve(float(e)))
        return rep, tracer

    report, tracer = benchmark.pedantic(run, rounds=1, iterations=1)
    total = report.wall_times.sum()
    rows = []
    for p in (1, 2, 4, 8, 16):
        d = Decomposition(
            n_bias=1, n_k=1, n_energy=len(energies), groups=(1, 1, p, 1)
        )
        # block-cyclic assignment replay with the measured task times
        makespans = []
        for rank in range(p):
            tasks = d.tasks_of_rank(rank)
            makespans.append(
                sum(report.wall_times[t.energy_index] for t in tasks)
            )
        t_par = max(makespans)
        rows.append((
            p, f"{total / t_par:.2f}", f"{total / (p * t_par) * 100:.0f}%"
        ))
    print_experiment(
        "F3b",
        "measured energy-level strong scaling (replayed decomposition)",
        f"{len(energies)} real WF solves, mean "
        f"{report.mean_task_time * 1e3:.1f} ms/task",
    )
    print(format_table(["ranks", "speedup", "efficiency"], rows))
    metrics = flat_metrics(tracer)
    metrics["speedup_8_ranks"] = float(rows[3][1])
    path = record_baseline("f3_energy_level", metrics)
    print(f"baseline -> {path.name}")
    # energy level must scale near-ideally to 8 ranks for 48 tasks
    eff8 = float(rows[3][2][:-1])
    assert eff8 > 75.0
