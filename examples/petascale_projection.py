"""Reproducing the 1.44 PFlop/s headline with the performance model.

The paper's performance contribution — sustained petascale throughput from
the four-level parallel decomposition — cannot be *measured* from Python on
one node, so (per DESIGN.md) it is *modelled*: the analytic per-kernel flop
counts drive a Cray-XT5 machine model, and the level decomposition and
load-balance arithmetic are the real scheduler's.  This example prints:

1. the modelled strong scaling of a paper-scale ultra-thin-body device up
   to 221,130 cores, with the sustained Flop/s saturating near 1.4-1.5
   PFlop/s (paper: 1.44 PFlop/s = 62% of peak);
2. the measured local run: an actual transport solve, its counted flops and
   sustained MFlop/s on this machine, grounding the accounting convention.

Run:  python examples/petascale_projection.py
"""

import time

import numpy as np

from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.io import format_si, format_table
from repro.perf.machine import JAGUAR_XT5
from repro.perf.model import TransportWorkload, strong_scaling


def main():
    # --- paper-scale workload: ~100k-atom UTB, sp3d5s*, full bias sweep ---
    workload = TransportWorkload(
        n_slabs=130,
        block_size=4000,
        n_bias=15,
        n_k=21,
        n_energy=702,
        n_channels=30,
        algorithm="wf",
        n_scf_iterations=3,
    )
    print(f"modelled workload: {workload.n_slabs} slabs x {workload.block_size} "
          f"orbitals, {workload.n_bias} bias x {workload.n_k} k x "
          f"{workload.n_energy} E points, "
          f"{format_si(workload.total_flops(), 'Flop')} total")
    print(f"machine: {JAGUAR_XT5.name}, "
          f"{format_si(JAGUAR_XT5.peak_flops, 'Flop/s')} peak\n")

    ranks = [1024, 4096, 16384, 65536, 131072, 221130]
    rows = []
    base = None
    for r in strong_scaling(workload, JAGUAR_XT5, ranks):
        if base is None:
            base = r
        speedup = base.walltime_s / r.walltime_s * base.n_ranks
        rows.append((
            f"{r.n_ranks:>7d}",
            "x".join(str(g) for g in r.groups),
            f"{r.walltime_s / 3600:.1f}",
            f"{speedup / r.n_ranks * 100:.0f}%",
            format_si(r.sustained_flops, "Flop/s"),
            f"{r.fraction_of_peak * 100:.1f}%",
        ))
    print(format_table(
        ["cores", "groups (bias x k x E x spatial)", "walltime (h)",
         "parallel eff", "sustained", "of used peak"],
        rows,
        title="modelled strong scaling (paper: 1.44 PFlop/s sustained at "
              "221,400 cores, 62% of peak)",
    ))

    # --- grounding: measured local run ------------------------------------
    spec = DeviceSpec(
        n_x=12, n_y=3, n_z=3, spacing_nm=0.25, source_cells=4,
        drain_cells=4, gate_cells=(4, 7), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    built = build_device(spec)
    tc = TransportCalculation(built, method="wf", n_energy=41)
    t0 = time.perf_counter()
    res = tc.solve_bias(np.zeros(built.n_atoms), v_drain=0.1)
    dt = time.perf_counter() - t0
    print(f"\nmeasured local grounding run: {built.n_atoms}-atom device, "
          f"41 energy points")
    print(f"  counted {format_si(res.flops.total, 'Flop')} in {dt:.2f} s -> "
          f"sustained {format_si(res.flops.total / dt, 'Flop/s')} "
          "(1 Python process; same accounting convention as the model)")


if __name__ == "__main__":
    main()
