"""T7 — adaptive energy waves: node count vs uniform at matched accuracy.

A double-barrier resonant device funnels essentially all of its current
through one transmission resonance a few 1e-4 eV wide, sitting in a
~0.5 eV Fermi window.  A uniform trapezoid grid must drop its *global*
spacing below the resonance width before the integrated current
converges; the wave-scheduled adaptive mode
(:class:`repro.physics.grids.AdaptiveEnergyGrid` driven by
``TransportCalculation(energy_mode="adaptive")``) bisects toward the
resonance and pays the fine spacing only there.

The benchmark measures both sides against a dense-grid oracle:

* **uniform** — the smallest power-of-two-plus-one uniform grid whose
  integrated current lands within 1e-8 relative of the oracle;
* **adaptive** — energy solves spent by the wave engine to reach the
  same (<= 1e-8 relative) accuracy, plus the wave/node statistics from
  :attr:`TransportResult.adaptive`.

The acceptance bar is a >= 3x node-count reduction at matched accuracy,
with the adaptive result bit-identical across the serial and process
backends and the parent-side
``adaptive.*`` counters exactly equal on all of them.  Both sides are
also timed through the same default ``solve_bias`` path
(``time.adaptive_serial_s`` vs ``time.uniform_matched_s``, with
``nproc`` recorded next to them): fewer solves must also mean less
wall-clock, which ``--smoke`` asserts on the medians of
``TIMING_PAIRS`` interleaved (uniform, adaptive) pairs of solves — one
pair on a shared runner can read either way by noise alone.

``--smoke`` records the full report as the ``BENCH_adaptive`` measured
baseline.
"""

import os
import time

import numpy as np
from conftest import print_experiment, record_baseline

from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.negf import landauer_current
from repro.observability import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.physics.grids import uniform_grid

#: Broadening small enough that the resonance width is set by tunneling.
ETA = 5e-5
BIAS_V = 0.05
#: Adaptive configuration: seed = N_ENERGY // 2 nodes and a cap of 14
#: waves; even at one halving a wave that reaches intervals of ~2e-7 eV,
#: well below the resonance width.
N_ENERGY = 1024
TOL = 1e-5
MAX_PASSES = 14
#: Matched-accuracy bar: both quadratures must land within this
#: relative distance of the dense oracle.
REL_TOL = 1e-8
#: Dense oracle size (power of two + 1 so every uniform trial grid is a
#: strict subset of the oracle nodes).
N_ORACLE = 65537
N_UNIFORM_MIN = 2049
#: Interleaved (uniform, adaptive) serial solve pairs whose median wall
#: times are compared.
TIMING_PAIRS = 5


def _built():
    spec = DeviceSpec(
        name="bench-adaptive",
        n_x=40,
        n_y=1,
        n_z=1,
        spacing_nm=0.25,
        source_cells=4,
        drain_cells=4,
        gate_cells=(12, 28),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    return build_device(spec)


def _potential(built):
    """Two 6-site, 0.7 eV barriers around a 10-site well."""
    pot = np.zeros(built.n_atoms)
    pot[9:15] = 0.7
    pot[25:31] = 0.7
    return pot


def _transport(built, energy_mode="uniform", **kwargs):
    return TransportCalculation(
        built, method="rgf", n_energy=N_ENERGY, eta=ETA,
        energy_mode=energy_mode, adaptive_tol=TOL,
        max_energy_points=16384, adaptive_max_passes=MAX_PASSES,
        **kwargs,
    )


def _uniform_report(built, pot):
    """Dense oracle + the smallest uniform grid within ``REL_TOL`` of it.

    All uniform trials are node subsets of the oracle grid, so one
    batched dense solve prices every candidate: a uniform solve of
    ``n`` nodes integrates the cached transmission on every
    ``(N_ORACLE - 1) / (n - 1)``-th node.
    """
    tc = _transport(built)
    grid = tc.energy_grid(pot, BIAS_V)
    emin = float(grid.energies.min())
    emax = float(grid.energies.max())
    mu_s = built.contact_mu("source")
    mu_d = built.contact_mu("drain", BIAS_V)
    kT = built.spec.kT

    dense = uniform_grid(emin, emax, N_ORACLE)
    solver = tc._make_solver(tc.hamiltonian(pot))
    t0 = time.perf_counter()
    batch = solver.solve_batch([float(e) for e in dense.energies])
    oracle_s = time.perf_counter() - t0
    t_dense = batch.transmission
    current = {}
    n = N_ORACLE
    while n >= N_UNIFORM_MIN:
        step = (N_ORACLE - 1) // (n - 1)
        current[n] = landauer_current(
            uniform_grid(emin, emax, n), t_dense[::step],
            mu_s, mu_d, kT, spin_degeneracy=tc.spin_degeneracy,
        )
        n = (n - 1) // 2 + 1
    i_ref = current[N_ORACLE]
    matched, matched_rel = None, None
    for n in sorted(current):
        rel = abs(current[n] - i_ref) / abs(i_ref)
        if rel <= REL_TOL and n < N_ORACLE:
            matched, matched_rel = n, rel
            break
    assert matched is not None, (
        f"no uniform grid below the oracle reached {REL_TOL:g} relative"
    )
    return {
        "current_ref_a": float(i_ref),
        "uniform.matched_n": int(matched),
        "uniform.rel_error": float(matched_rel),
        "time.dense_oracle_s": oracle_s,
        "nproc": os.cpu_count(),
    }


def _timing_report(built, pot, matched_n, pairs=TIMING_PAIRS):
    """Median wall times of the matched uniform grid and the adaptive
    solve through the same serial ``solve_bias``, over ``pairs``
    interleaved pairs, each pair in the other order than the last."""
    window = _transport(built).energy_grid(pot, BIAS_V).energies
    grid = uniform_grid(float(window.min()), float(window.max()), matched_n)
    runs = {
        "time.uniform_matched_s": lambda: _transport(
            built, backend="serial"
        ).solve_bias(pot, BIAS_V, energy_grid=grid),
        "time.adaptive_serial_s": lambda: _transport(
            built, energy_mode="adaptive", backend="serial"
        ).solve_bias(pot, BIAS_V),
    }
    times = {key: [] for key in runs}
    for i in range(pairs):
        for key in list(runs)[:: -1 if i % 2 else 1]:
            t0 = time.perf_counter()
            runs[key]()
            times[key].append(time.perf_counter() - t0)
    return {key: float(np.median(t)) for key, t in times.items()}


def _adaptive_run(built, pot, backend="serial", workers=None):
    tc = _transport(
        built, energy_mode="adaptive", backend=backend, workers=workers,
    )
    tracer, registry = Tracer(), MetricsRegistry()
    t0 = time.perf_counter()
    with use_tracer(tracer), use_metrics(registry):
        res = tc.solve_bias(pot, BIAS_V)
    wall = time.perf_counter() - t0
    snap = registry.snapshot()
    counters = {
        k: v for k, v in snap.counters.items() if k.startswith("adaptive.")
    }
    return res, counters, wall


def _adaptive_report(built, pot, i_ref, backends=None):
    """Adaptive solve on every backend: matched accuracy + bit-identity."""
    if backends is None:
        backends = [("serial", None), ("process", 2)]
    runs = {}
    for backend, workers in backends:
        runs[backend] = _adaptive_run(
            built, pot, backend=backend, workers=workers,
        )
    ref_label = next(iter(runs))
    ref, ref_counters, _ = runs[ref_label]
    for label, (res, counters, _) in runs.items():
        np.testing.assert_array_equal(
            res.energy_grid.energies, ref.energy_grid.energies,
            err_msg=f"{label} vs {ref_label}",
        )
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        assert res.current_a == ref.current_a, (label, ref_label)
        assert res.adaptive == ref.adaptive, (label, ref_label)
        assert counters == ref_counters, (label, ref_label)
    stats = ref.adaptive
    rel = abs(ref.current_a - i_ref) / abs(i_ref)
    report = {
        "adaptive.solved": int(stats["solved"]),
        "adaptive.nodes": int(stats["nodes"]),
        "adaptive.waves": int(stats["waves"]),
        "adaptive.est_error": float(stats["est_error"]),
        "adaptive.rel_error": float(rel),
        "adaptive.current_a": float(ref.current_a),
        "adaptive.backends_bit_identical": len(runs),
    }
    for label, (_, _, wall) in runs.items():
        report[f"time.adaptive_{label}_s"] = wall
    return report


def _full_report(built, pot, backends=None):
    report = _uniform_report(built, pot)
    report.update(
        _adaptive_report(
            built, pot, report["current_ref_a"], backends=backends,
        )
    )
    report.update(_timing_report(built, pot, report["uniform.matched_n"]))
    report["reduction"] = (
        report["uniform.matched_n"] / report["adaptive.solved"]
    )
    assert report["adaptive.rel_error"] <= REL_TOL, report
    assert report["reduction"] >= 3.0, report
    assert (
        report["time.adaptive_serial_s"] < report["time.uniform_matched_s"]
    ), report
    return report


def test_t7_adaptive_node_reduction():
    """Adaptive must undercut matched-accuracy uniform by >= 3x solves."""
    built = _built()
    pot = _potential(built)
    report = _full_report(built, pot, backends=[("serial", None)])
    assert report["adaptive.backends_bit_identical"] == 1


def _smoke():
    built = _built()
    pot = _potential(built)
    report = _full_report(built, pot)
    path = record_baseline("adaptive", report)
    print_experiment(
        "T7/adaptive",
        f"uniform needs {report['uniform.matched_n']} solves for "
        f"{report['uniform.rel_error']:.1e} relative; adaptive reaches "
        f"{report['adaptive.rel_error']:.1e} with "
        f"{report['adaptive.solved']} solves in "
        f"{report['adaptive.waves']} waves "
        f"({report['reduction']:.1f}x fewer), bit-identical on "
        f"{report['adaptive.backends_bit_identical']} backends",
        notes=f"baseline -> {path}",
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="measure the node-count reduction at matched accuracy and "
             "write BENCH_adaptive.json",
    )
    args = parser.parse_args()
    if args.smoke:
        _smoke()
    else:
        parser.error("run under pytest for the assertion-only check, "
                     "or pass --smoke")
