"""F8 — spatial domain decomposition: the SplitSolve solver.

Regenerates the figure class of the authors' 2008 precursor paper (and the
level-4 parallelism of SC'11): the Schur-complement domain-decomposition
solver against the monolithic block LU.

* measured: serial execution time vs number of domains (the decomposition
  does the same arithmetic reorganised, so serial time mildly increases
  with P — the win is that the domain work is concurrent);
* modelled: the parallel speedup implied by the measured domain/interface
  split, showing the Amdahl saturation that caps the spatial level.
"""

import time

import numpy as np
from conftest import print_experiment

from repro.io import format_table
from repro.perf import splitsolve_flops
from repro.solvers import BlockTridiagLU
from repro.solvers.splitsolve import SplitSolve


def make_system(n_blocks=33, m=48, seed=0):
    rng = np.random.default_rng(seed)

    def rand():
        return rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))

    diag = [rand() + 4 * m * np.eye(m) for _ in range(n_blocks)]
    upper = [rand() for _ in range(n_blocks - 1)]
    lower = [rand() for _ in range(n_blocks - 1)]
    rhs = [
        rng.normal(size=(m, 4)) + 1j * rng.normal(size=(m, 4))
        for _ in range(n_blocks)
    ]
    return diag, upper, lower, rhs


def test_f8_splitsolve(benchmark):
    def measure():
        diag, upper, lower, rhs = make_system()
        n_blocks = len(diag)
        m = diag[0].shape[0]
        # monolithic reference
        t0 = time.perf_counter()
        lu = BlockTridiagLU(diag, upper, lower)
        x_ref = np.vstack(lu.solve(rhs))
        t_mono = time.perf_counter() - t0
        rows = []
        for p in (1, 2, 4, 8):
            t0 = time.perf_counter()
            ss = SplitSolve(diag, upper, lower, n_domains=p)
            x = np.vstack(ss.solve(rhs))
            t_serial = time.perf_counter() - t0
            err = np.abs(x - x_ref).max()
            # modelled parallel time: domain phase concurrent over p ranks
            split = splitsolve_flops(n_blocks, m, p)
            serial_frac = split["interface"] / (
                split["domain"] * p + split["interface"]
            )
            t_parallel = t_serial * (
                (1 - serial_frac) / p + serial_frac
            )
            rows.append((
                p, f"{t_serial * 1e3:.1f}", f"{t_parallel * 1e3:.1f}",
                f"{t_mono / t_parallel:.2f}", f"{err:.1e}",
            ))
        return t_mono, rows

    t_mono, rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_experiment(
        "F8",
        "SplitSolve domain decomposition (33 blocks x 48, 4 RHS)",
        f"monolithic block LU: {t_mono * 1e3:.1f} ms; parallel time = "
        "measured serial work redistributed over P ranks + serial interface",
    )
    print(format_table(
        ["domains P", "serial total (ms)", "parallel time (ms)",
         "speedup vs mono", "max |x - x_ref|"],
        rows,
    ))
    # exactness at every P
    assert all(float(r[4]) < 1e-7 for r in rows)
    # parallel speedup grows with P ...
    speedups = [float(r[3]) for r in rows]
    assert speedups[-1] > speedups[0]
    assert speedups[-1] > 1.5
    # ... but sub-linearly (Amdahl interface)
    assert speedups[-1] < 8.0


def test_f8_interface_fraction_model(benchmark):
    def fractions():
        rows = []
        for p in (2, 4, 8, 16, 32):
            split = splitsolve_flops(130, 4000, p)
            frac = split["interface"] / (split["domain"] * p + split["interface"])
            max_speedup = 1.0 / (frac + (1 - frac) / p)
            rows.append((p, f"{frac * 100:.1f}%", f"{max_speedup:.1f}"))
        return rows

    rows = benchmark.pedantic(fractions, rounds=1, iterations=1)
    print_experiment(
        "F8b",
        "modelled interface (serial) fraction at paper scale (130 x 4000)",
        "the serial interface work caps the spatial-level speedup (Amdahl)",
    )
    print(format_table(
        ["domains P", "serial fraction", "Amdahl speedup cap"], rows,
    ))
    fracs = [float(r[1][:-1]) for r in rows]
    assert all(b > a for a, b in zip(fracs[:-1], fracs[1:]))
