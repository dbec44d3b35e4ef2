"""T3 — kernel cost breakdown: measured time + counted flops per kernel.

Regenerates the per-kernel cost table: every computational kernel of the
transport pipeline timed by pytest-benchmark on a fixed mid-size system,
with its analytic flop count and the implied per-kernel MFlop/s.  This is
the table that grounds the performance model's constants.
"""

import os

# one BLAS thread, like benchmarks/e2e (before numpy loads)
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import time  # noqa: E402
import tracemalloc  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from conftest import (  # noqa: E402
    git_sha,
    grid_transport_system,
    print_experiment,
    record_baseline,
)

from repro.core import DeviceSpec, TransportCalculation, build_device  # noqa: E402
from repro.negf import Contacts, RGFSolver, contact_self_energy, sancho_rubio  # noqa: E402
from repro.negf.rgf import assemble_system_blocks  # noqa: E402
from repro.negf.surface_gf import (  # noqa: E402
    _mode_basis,
    _mode_health_check,
    _scalar_coupled,
    _surface_gfs,
    _surface_health_check,
    sancho_rubio_batch,
)
from repro.observability import (  # noqa: E402
    MetricsRegistry,
    Tracer,
    use_metrics,
    use_tracer,
)
from repro.observability.export import flat_metrics  # noqa: E402
from repro.perf import (  # noqa: E402
    block_lu_factor_flops,
    rgf_solve_flops,
    sancho_rubio_flops,
    wf_solve_flops,
)
from repro.solvers import BlockTridiagLU  # noqa: E402
from repro.solvers.splitsolve import SplitSolve  # noqa: E402
from repro.solvers import block_tridiagonal  # noqa: E402
from repro.tb import HamiltonianSkeleton  # noqa: E402
from repro.wf import WFSolver  # noqa: E402

ENERGY = 0.6


@pytest.fixture(scope="module")
def system():
    H = grid_transport_system(n_x=16, n_yz=8)
    sig_l = contact_self_energy(ENERGY, H.diagonal[0], H.upper[0], side="left")
    sig_r = contact_self_energy(
        ENERGY, H.diagonal[-1], H.upper[-1], side="right"
    )
    blocks = assemble_system_blocks(H, ENERGY, sig_l.sigma, sig_r.sigma)
    return H, sig_l, sig_r, blocks


def test_t3_surface_gf(benchmark, system):
    H, _, _, _ = system
    h00, h01 = H.diagonal[0], H.upper[0]
    g, iters = benchmark(lambda: sancho_rubio(ENERGY, h00, h01))
    m = h00.shape[0]
    flops = sancho_rubio_flops(m, iters)
    print_experiment(
        "T3/surface_gf",
        f"Sancho-Rubio m={m}: {iters} iterations, "
        f"{flops / 1e6:.1f} MFlop counted",
    )
    assert iters < 60


def test_t3_block_lu_factor(benchmark, system):
    _, _, _, blocks = system
    diag, upper, lower = blocks
    lu = benchmark(lambda: BlockTridiagLU(diag, upper, lower))
    m = diag[0].shape[0]
    flops = block_lu_factor_flops(len(diag), m)
    print_experiment(
        "T3/block_lu",
        f"block LU factor N={len(diag)}, m={m}: {flops / 1e6:.1f} MFlop",
    )
    assert lu.n_blocks == len(diag)


def _sigma_stacks(sig_l, sig_r):
    """The fixture's self-energies as the stacks of one ``kernel_stage``
    takes."""
    return sig_l.sigma[None], sig_r.sigma[None]


def test_t3_rgf_full_solve(benchmark, system):
    H, sig_l, sig_r, _ = system
    rgf = RGFSolver(H)
    energies = np.array([ENERGY])
    sigmas = _sigma_stacks(sig_l, sig_r)
    # the shipped kernel stage (contacts excluded): factor, both block
    # columns and the observable contractions
    (res,) = benchmark(lambda: rgf.kernel_stage(energies, *sigmas))
    flops = rgf_solve_flops(H.n_blocks, int(H.block_sizes.max()))
    print_experiment(
        "T3/rgf", f"full RGF pass: {flops / 1e6:.1f} MFlop counted"
    )
    assert res.n_channels_left > 0


def test_t3_wf_solve(benchmark, system):
    H, sig_l, sig_r, _ = system
    wf = WFSolver(H, injection_tol_ev=1e-4)
    energies = np.array([ENERGY])
    sigmas = _sigma_stacks(sig_l, sig_r)
    (res,) = benchmark(lambda: wf.kernel_stage(energies, *sigmas))
    n_rhs = res.n_channels_left
    flops = wf_solve_flops(H.n_blocks, int(H.block_sizes.max()), n_rhs)
    print_experiment(
        "T3/wf",
        f"WF factor + {n_rhs} channel solves per contact: "
        f"{flops / 1e6:.1f} MFlop",
    )
    assert 0 < n_rhs < H.block_sizes.max()


def test_t3_measured_flop_crosscheck(system):
    """Instrumented counts equal the analytic T3 formulas, exactly.

    The block-LU calls of the RGF kernel stage, executed under a live
    tracer: the flops the instrumented block-LU actually reports must
    match :func:`repro.perf.rgf_solve_flops` to the last flop.  The traced
    metrics are recorded as the ``BENCH_t3_rgf`` measured baseline.
    """
    _, _, _, blocks = system
    diag, upper, lower = blocks
    tracer = Tracer()
    with use_tracer(tracer):
        lu = BlockTridiagLU(diag, upper, lower)
        lu.solve_block_column(0)
        lu.solve_block_column(len(diag) - 1)
        lu.diagonal_of_inverse()
    measured = tracer.total_flops
    analytic = rgf_solve_flops(len(diag), diag[0].shape[0])
    assert measured == analytic
    path = record_baseline("t3_rgf", flat_metrics(tracer))
    print_experiment(
        "T3/crosscheck",
        f"measured {measured / 1e6:.1f} MFlop == analytic "
        f"{analytic / 1e6:.1f} MFlop; baseline -> {path.name}",
    )


def test_t3_splitsolve(benchmark, system):
    _, _, _, blocks = system
    diag, upper, lower = blocks
    rhs = [np.ones((d.shape[0], 4), dtype=complex) for d in diag]

    def split():
        return SplitSolve(diag, upper, lower, n_domains=4).solve(rhs)

    x = benchmark(split)
    assert len(x) == len(diag)


# ---------------------------------------------------------------------------
# batched energy-point execution: stacked numpy.linalg vs per-point loops
# ---------------------------------------------------------------------------
#
# The batched path wins when blocks are small enough that the per-point
# Python/LAPACK dispatch overhead dominates — exactly the regime of the
# energy loop in a bias sweep (many energies, modest block size).

def _batched_system(n_x=24, n_yz=2, n_energies=64):
    H = grid_transport_system(n_x=n_x, n_yz=n_yz)
    ev = np.linalg.eigvalsh(H.diagonal[0])
    width = 2.0 * np.linalg.norm(H.upper[0], 2)
    lo, hi = ev.min() - width, ev.max() + width
    w = hi - lo
    energies = np.linspace(lo + 0.137 * w, hi - 0.171 * w, n_energies)
    return H, energies


def _best_of(fn, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_t3_batched_rgf(benchmark):
    H, energies = _batched_system()
    solver = RGFSolver(H)
    results = benchmark(lambda: solver.solve_batch(energies))
    m = int(H.block_sizes.max())
    flops = len(energies) * rgf_solve_flops(H.n_blocks, m)
    print_experiment(
        "T3/rgf_batched",
        f"batched RGF: {len(energies)} energies, N={H.n_blocks}, m={m}: "
        f"{flops / 1e6:.1f} MFlop counted",
    )
    assert len(results) == len(energies)


def test_t3_batched_wf(benchmark):
    H, energies = _batched_system()
    solver = WFSolver(H)
    results = benchmark(lambda: solver.solve_batch(energies))
    print_experiment(
        "T3/wf_batched",
        f"batched WF: {len(energies)} energies, N={H.n_blocks}",
    )
    assert len(results) == len(energies)


def test_t3_batched_surface_gf(benchmark):
    H, energies = _batched_system()
    h00, h01 = H.diagonal[0], H.upper[0]
    g, iters = benchmark(lambda: sancho_rubio_batch(energies, h00, h01))
    assert g.shape == (len(energies), h00.shape[0], h00.shape[0])
    print_experiment(
        "T3/surface_gf_batched",
        f"batched Sancho-Rubio: {len(energies)} energies, "
        f"{int(iters.max())} max iterations",
    )


def _measure_batched_speedups(n_energies=64, repeats=3):
    """Wall-time comparison, per-point loop vs batched, for each kernel."""
    H, energies = _batched_system(n_energies=n_energies)
    h00, h01 = H.diagonal[0], H.upper[0]
    m = int(H.block_sizes.max())
    report = {
        "n_blocks": int(H.n_blocks),
        "block_size": m,
        "n_energies": int(len(energies)),
    }

    kernels = {
        "surface_gf": (
            lambda: [sancho_rubio(float(e), h00, h01) for e in energies],
            lambda: sancho_rubio_batch(energies, h00, h01),
        ),
        "rgf": (
            lambda: [RGFSolver(H).solve(float(e)) for e in energies],
            lambda: RGFSolver(H).solve_batch(energies),
        ),
        "wf": (
            lambda: [WFSolver(H).solve(float(e)) for e in energies],
            lambda: WFSolver(H).solve_batch(energies),
        ),
    }
    for name, (per_point, batched) in kernels.items():
        t_pp = _best_of(per_point, repeats)
        t_b = _best_of(batched, repeats)
        report[f"{name}.per_point_s"] = t_pp
        report[f"{name}.batched_s"] = t_b
        report[f"{name}.speedup"] = t_pp / t_b
    return report


def test_t3_batched_speedup_sane():
    """Batching a small-block workload must never be slower than the loop."""
    report = _measure_batched_speedups(n_energies=32, repeats=2)
    for name in ("surface_gf", "rgf", "wf"):
        assert report[f"{name}.speedup"] > 1.0, report


_GRID = dict(spacing_nm=0.25, donor_density_nm3=0.05,
             material_params={"m_rel": 0.3})
#: Contact-stage leads: ``name -> (device, energies per stack, timed repeats)``
#: — the FET of ``scf_sweep_wf`` (m = 4), one sub-stack of
#: ``transport_wide_process`` (m = 25, its stack length of 13 energies) and
#: the ROADMAP's Si-sp3s* wire (m = 150, the "before" of the rank-reduced
#: contact block).
CONTACT_LEADS = {
    "fet": (DeviceSpec(n_x=12, n_y=2, n_z=2, source_cells=4, drain_cells=4,
                       gate_cells=(4, 8), **_GRID), 41, 5),
    "wide": (DeviceSpec(n_x=48, n_y=5, n_z=5, source_cells=8, drain_cells=8,
                        gate_cells=(16, 32), **_GRID), 13, 5),
    "si_wire": (DeviceSpec(geometry="nanowire-zb", material="Si-sp3s*",
                           n_x=8, n_y=2, n_z=2, source_cells=2, drain_cells=2,
                           gate_cells=(3, 5)), 9, 2),
}


def _measure_hamiltonian_update(n_updates=21):
    """Cold assembly vs potential update on the 48-slab, m=25 device.

    ``assemble_s`` is one cold :class:`HamiltonianSkeleton` (what every
    Hamiltonian cost before the skeleton was kept); ``update_s`` is the
    median ``built.hamiltonian(U)`` on the cached one — what an SCF
    iteration or a bias point pays now.
    """
    built = build_device(CONTACT_LEADS["wide"][0])
    t0 = time.perf_counter()
    HamiltonianSkeleton(built.device, built.material)
    assemble = time.perf_counter() - t0
    rng = np.random.default_rng(3)
    updates = []
    for _ in range(n_updates):
        potential = rng.uniform(-0.3, 0.3, built.n_atoms)
        t0 = time.perf_counter()
        built.hamiltonian(potential)
        updates.append(time.perf_counter() - t0)
    update = float(np.median(updates))
    return {
        "hamiltonian.assemble_s": assemble,
        "hamiltonian.update_s": update,
        "hamiltonian.update_speedup": assemble / update,
        "nproc": os.cpu_count(),
    }


def test_t3_hamiltonian_update_sane():
    """A potential update must be far cheaper than a cold assembly."""
    report = _measure_hamiltonian_update(n_updates=5)
    assert report["hamiltonian.update_speedup"] > 5.0, report


def _measure_block_lu(name, H, energies, sigmas, repeats):
    """Both kernel stages behind one contact evaluation.

    Seconds per energy (best of the repeats) and two numbers that repeat
    exactly.  The block products ``BlockTridiagLU`` issues for one RGF
    ``kernel_stage`` — factor and both block columns; the LDOS is read off
    them, not a selected inversion.  Each multiplier formed once makes it
    ``7 (n_blocks - 1) + 2`` on matrix couplings (``si_wire``) and
    ``3 (n_blocks - 1) + 2`` on the ``c·I`` couplings of the grid devices,
    which the LU multiplies by; the reference sweep the flop model charges
    issues ``12 (n_blocks - 1) + 2``.
    And the stage's tracemalloc peak per energy in slab-sets (``n_blocks``
    complex128 ``(m, m)`` blocks): the inverse Schur complements plus one
    column of G on a grid device, where the multipliers are not kept.
    """
    rgf, wf = RGFSolver(H), WFSolver(H)
    products = []

    def counted(*args, **kwargs):  # a Mock would keep every operand alive
        products.append(None)
        return np.matmul(*args, **kwargs)

    with mock.patch.object(block_tridiagonal, "_matmul", counted):
        rgf.kernel_stage(energies, *sigmas)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rgf.kernel_stage(energies, *sigmas)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    slab_set = H.n_blocks * int(H.block_sizes.max()) ** 2 * 16
    row = {
        "block_size": int(H.block_sizes.max()),
        "n_blocks": int(H.n_blocks),
        "lu_matmuls_rgf": len(products),
        "stage_peak_slab_sets": peak / (energies.size * slab_set),
    }
    for method, solver in (("rgf", rgf), ("wf", wf)):
        seconds = _best_of(
            lambda: solver.kernel_stage(energies, *sigmas), repeats
        )
        row[f"kernel_stage_{method}_s_per_pt"] = seconds / energies.size
    return {f"block_lu.{name}.{key}": value for key, value in row.items()}


def _measure_contacts(leads=CONTACT_LEADS):
    """Both leads of a bias solve through ``Contacts.sigma_stacks``, then
    the kernel stages on those stacks (:func:`_measure_block_lu`).

    Per lead: how its surface GF is solved (``basis``: ``"modes"`` — the
    closed form of the mode basis — for a lead coupled by ``c I``,
    ``"dense"`` — the decimation at m — otherwise), seconds per energy
    (best of the repeats) of the whole call and of the fixed-point health
    check it runs — on the ``(B, m)`` modes before their rotation for a
    ``"modes"`` lead, on the ``(B, m, m)`` blocks otherwise — and three
    counts that repeat exactly — the stacked
    ``numpy.linalg`` inversions and ``eigh`` calls one call issues and the
    largest decimation step count of its 2B slices.  One loop over both
    leads makes them ``max_iterations + 1`` inversions at m; the mode basis
    takes no inversion and no step, and one ``eigh`` per lead on the first
    call of a ``Contacts`` (later calls, and the health check, reuse it).
    """
    report = {}
    for name, (spec, n_energy, repeats) in leads.items():
        built = build_device(spec)
        calc = TransportCalculation(built, method="wf", n_energy=n_energy)
        potential = np.zeros(built.n_atoms)
        energies = calc.energy_grid(potential, 0.05).energies
        H = calc.hamiltonian(potential)
        contacts = Contacts(H, eta=calc.eta)
        sides = ((*contacts.left, "left"), (*contacts.right, "right"))
        with use_metrics(MetricsRegistry()) as registry, mock.patch.object(
            np.linalg, "inv", wraps=np.linalg.inv
        ) as inversions, mock.patch.object(
            np.linalg, "solve", wraps=np.linalg.solve
        ) as solves, mock.patch.object(
            np.linalg, "eigh", wraps=np.linalg.eigh
        ) as eighs:
            sigmas = contacts.sigma_stacks(energies)
        histograms = registry.snapshot().with_prefix(
            "histograms", "surface_gf.iterations"
        )
        seconds = _best_of(lambda: contacts.sigma_stacks(energies), repeats)
        g_stacks = [g for g, _ in _surface_gfs(energies, sides, calc.eta)]
        in_modes = {_scalar_coupled(h00, h01) for h00, h01, _ in sides}
        if in_modes == {True}:
            # what production checks: every lead's modes before the
            # rotation, in one pass
            basis = _mode_basis(sides)
            d, u, _ = basis
            g_modes = np.diagonal(
                u[:, None].conj().swapaxes(-1, -2) @ np.array(g_stacks)
                @ u[:, None], axis1=2, axis2=3,
            )
            w = (energies + 1j * calc.eta)[:, None] - d[:, None, :]

            def run_check():
                _mode_health_check(g_modes, energies, w, sides, basis)
        else:
            def run_check():
                for g, lead in zip(g_stacks, sides):
                    _surface_health_check(g, energies, calc.eta, *lead)
        check = _best_of(run_check, repeats)
        report.update({
            f"contacts.{name}.block_size": int(contacts.left[0].shape[0]),
            f"contacts.{name}.n_energies": int(energies.size),
            f"contacts.{name}.basis": "modes" if in_modes == {True} else "dense",
            f"contacts.{name}.sigma_stacks_s_per_pt": seconds / energies.size,
            f"contacts.{name}.health_check_s_per_pt": check / energies.size,
            f"contacts.{name}.stacked_inversions":
                inversions.call_count + solves.call_count,
            f"contacts.{name}.eigh_calls": eighs.call_count,
            f"contacts.{name}.max_iterations":
                int(max(h.max for h in histograms.values())),
        })
        report.update(_measure_block_lu(name, H, energies, sigmas, repeats))
    return report


def test_t3_contacts_one_inversion_per_step():
    """The count identities CI asserts, on the two cheap leads: both are
    effective-mass grids, so both take the closed form of the mode basis:
    no inversion, no step, one ``eigh`` per lead."""
    report = _measure_contacts(
        {k: (*v[:2], 1) for k, v in CONTACT_LEADS.items() if k != "si_wire"}
    )
    for name in ("fet", "wide"):
        assert report[f"contacts.{name}.basis"] == "modes", report
        assert report[f"contacts.{name}.stacked_inversions"] == 0, report
        assert report[f"contacts.{name}.eigh_calls"] == 2, report
        assert report[f"contacts.{name}.max_iterations"] == 0, report
        assert report[f"block_lu.{name}.lu_matmuls_rgf"] == (
            3 * (report[f"block_lu.{name}.n_blocks"] - 1) + 2
        ), report
    assert report["block_lu.wide.stage_peak_slab_sets"] <= 2.5, report


def _smoke():
    report = _measure_batched_speedups()
    report.update(_measure_hamiltonian_update())
    report.update(_measure_contacts())
    report.update({
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "git_sha": git_sha(),
    })
    path = record_baseline("kernels", report)
    rows = "\n".join(
        f"  {name:<12} per-point {report[f'{name}.per_point_s'] * 1e3:8.1f} ms"
        f"  batched {report[f'{name}.batched_s'] * 1e3:8.1f} ms"
        f"  speedup {report[f'{name}.speedup']:5.2f}x"
        for name in ("surface_gf", "rgf", "wf")
    )
    print_experiment(
        "T3/batched",
        f"batched vs per-point, {report['n_energies']} energies, "
        f"N={report['n_blocks']}, m={report['block_size']}:\n{rows}",
        notes=f"baseline -> {path}",
    )
    print_experiment(
        "T3/contacts",
        "Contacts.sigma_stacks, both leads as one stack:\n"
        + "\n".join(
            f"  {name:<8} m={report[f'contacts.{name}.block_size']:<4}"
            f"B={report[f'contacts.{name}.n_energies']:<3}"
            f"{report[f'contacts.{name}.basis']:<6}"
            f"{report[f'contacts.{name}.sigma_stacks_s_per_pt'] * 1e3:9.3f}"
            f" ms/pt (health check"
            f" {report[f'contacts.{name}.health_check_s_per_pt'] * 1e3:.3f})"
            f"  {report[f'contacts.{name}.stacked_inversions']} stacked"
            f" inversions, {report[f'contacts.{name}.eigh_calls']} eigh for"
            f" {report[f'contacts.{name}.max_iterations']} steps"
            for name in CONTACT_LEADS
        ),
    )
    print_experiment(
        "T3/block_lu",
        "kernel stages on those stacks (contacts excluded):\n"
        + "\n".join(
            f"  {name:<8} m={report[f'block_lu.{name}.block_size']:<4}"
            f"N={report[f'block_lu.{name}.n_blocks']:<3}"
            f" RGF {report[f'block_lu.{name}.kernel_stage_rgf_s_per_pt'] * 1e3:8.3f}"
            f" ms/pt  WF {report[f'block_lu.{name}.kernel_stage_wf_s_per_pt'] * 1e3:8.3f}"
            f" ms/pt  {report[f'block_lu.{name}.lu_matmuls_rgf']} LU products"
            " an RGF stage"
            for name in CONTACT_LEADS
        ),
    )
    print_experiment(
        "T3/hamiltonian",
        f"48 slabs x m=25: cold assembly "
        f"{report['hamiltonian.assemble_s'] * 1e3:.1f} ms, potential update "
        f"{report['hamiltonian.update_s'] * 1e3:.2f} ms "
        f"({report['hamiltonian.update_speedup']:.0f}x)",
    )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="measure batched-vs-per-point speedups and the Hamiltonian "
             "assembly-vs-update cost, and write BENCH_kernels.json",
    )
    args = parser.parse_args()
    if args.smoke:
        _smoke()
    else:
        parser.error("run under pytest for the full benchmark suite, "
                     "or pass --smoke")
