"""Randomized differential suite: every transport path vs the dense oracle.

For a population of generated small devices (1-D chains, 3-D effective-mass
grids, and random Hermitian block-tridiagonal systems) this suite checks
that the RGF kernel, the WF/QTBM kernel, and both batched execution paths
agree with the dense-inversion reference (``repro.negf.dense_ref``) on

* transmission T(E) over an energy grid straddling the lead band,
* carrier density integrated from the spectral functions, and
* terminal current from the Landauer integral,

to an absolute tolerance of 1e-10.  A single energy is a stack of one, so
the per-point and batched paths agree bit for bit, and WF and RGF to a
few ulp; 1e-10 against dense inversion is the contract this suite locks
down.
"""

import numpy as np
import pytest

from repro.negf import (
    RGFSolver,
    carrier_density,
    dense_observables,
    landauer_current,
)
from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.physics.grids import AdaptiveEnergyGrid, uniform_grid
from repro.wf import WFSolver
from tests.conftest import (
    band_energy_grid,
    chain_device as _chain_device,
    grid_device as _grid_device,
    random_device as _random_device,
)

ETA = 1e-5
TOL = 1e-10
N_ENERGY = 7
KT_EV = 0.025


# ---------------------------------------------------------------------------
# device generators (shared population in tests/conftest.py)
# ---------------------------------------------------------------------------

def _energy_grid(H):
    return band_energy_grid(H, n_energy=N_ENERGY)


CASES = (
    [("chain", s) for s in range(8)]
    + [("grid", s) for s in range(6)]
    + [("random", s) for s in range(8)]
)
_BUILDERS = {
    "chain": _chain_device,
    "grid": _grid_device,
    "random": _random_device,
}


def _build(kind, seed):
    H = _BUILDERS[kind](seed)
    return H, _energy_grid(H)


# ---------------------------------------------------------------------------
# execution paths
# ---------------------------------------------------------------------------

def _collect(results):
    """(T array, spectral_left stack, spectral_right stack) per path."""
    t = np.array([r.transmission for r in results])
    sl = np.stack([r.spectral_left for r in results])
    sr = np.stack([r.spectral_right for r in results])
    return t, sl, sr


def _all_paths(H, energies):
    rgf = RGFSolver(H, eta=ETA)
    wf = WFSolver(H, eta=ETA)
    return {
        "rgf": _collect([rgf.solve(float(e)) for e in energies]),
        "rgf_batch": _collect(rgf.solve_batch(energies)),
        "wf": _collect([wf.solve(float(e)) for e in energies]),
        "wf_batch": _collect(wf.solve_batch(energies)),
    }


def _dense_reference(H, energies):
    lead_l = (H.diagonal[0], H.upper[0])
    lead_r = (H.diagonal[-1], H.upper[-1])
    t, sl, sr = [], [], []
    for e in energies:
        ref = dense_observables(H, float(e), lead_l, lead_r, eta=ETA)
        t.append(ref["transmission"])
        sl.append(ref["spectral_left"])
        sr.append(ref["spectral_right"])
    return np.array(t), np.stack(sl), np.stack(sr)


def _observables(energies, t, sl, sr):
    """Scalar current plus per-orbital density for one path."""
    grid = uniform_grid(float(energies[0]), float(energies[-1]), len(energies))
    mid = 0.5 * (energies[0] + energies[-1])
    mu_l, mu_r = mid + 0.05, mid - 0.05
    current = landauer_current(grid, t, mu_l, mu_r, KT_EV)
    density = carrier_density(grid, sl, sr, mu_l, mu_r, KT_EV)
    return current, density


# ---------------------------------------------------------------------------
# the differential contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kind,seed", CASES, ids=[f"{k}-{s}" for k, s in CASES]
)
def test_all_paths_match_dense(kind, seed):
    H, energies = _build(kind, seed)
    ref_t, ref_sl, ref_sr = _dense_reference(H, energies)
    ref_i, ref_n = _observables(energies, ref_t, ref_sl, ref_sr)

    # the window must exercise real transport for engineered devices
    if kind in ("chain", "grid"):
        assert ref_t.max() > 1e-3, "energy window missed the band"

    for name, (t, sl, sr) in _all_paths(H, energies).items():
        np.testing.assert_allclose(
            t, ref_t, atol=TOL, rtol=0.0,
            err_msg=f"{kind}-{seed}: {name} transmission",
        )
        cur, den = _observables(energies, t, sl, sr)
        assert abs(cur - ref_i) <= TOL, f"{kind}-{seed}: {name} current"
        np.testing.assert_allclose(
            den, ref_n, atol=TOL, rtol=0.0,
            err_msg=f"{kind}-{seed}: {name} density",
        )


@pytest.mark.parametrize("kind,seed", [("chain", 0), ("grid", 1), ("random", 2)])
def test_batched_matches_per_point_tightly(kind, seed):
    """Both kernels' ``solve`` is bit-identical to their stack; the two
    kernels — two observables formulas on one block LU — agree to a few
    ulp."""
    H, energies = _build(kind, seed)
    rgf = RGFSolver(H, eta=ETA)
    per = [rgf.solve(float(e)) for e in energies]
    bat = rgf.solve_batch(energies)
    for p, b in zip(per, bat):
        assert p.transmission == b.transmission
        np.testing.assert_array_equal(p.dos, b.dos)
        np.testing.assert_array_equal(p.spectral_left, b.spectral_left)
        np.testing.assert_array_equal(p.spectral_right, b.spectral_right)

    wf = WFSolver(H, eta=ETA)
    per_w = [wf.solve(float(e)) for e in energies]
    bat_w = wf.solve_batch(energies)
    for p, b, r in zip(per_w, bat_w, bat):
        assert p.transmission == b.transmission
        np.testing.assert_array_equal(p.dos, b.dos)
        np.testing.assert_array_equal(
            p.interface_currents, b.interface_currents
        )
        assert abs(b.transmission - r.transmission) < 1e-12
        np.testing.assert_allclose(
            b.spectral_left, r.spectral_left, atol=1e-12, rtol=0.0
        )
        np.testing.assert_allclose(
            b.spectral_right, r.spectral_right, atol=1e-12, rtol=0.0
        )


def test_batched_channel_counts_match_per_point():
    H, energies = _build("grid", 0)
    rgf = RGFSolver(H, eta=ETA)
    for p, b in zip(
        [rgf.solve(float(e)) for e in energies], rgf.solve_batch(energies)
    ):
        assert p.n_channels_left == b.n_channels_left
        assert p.n_channels_right == b.n_channels_right


# ---------------------------------------------------------------------------
# adaptive refinement vs the dense oracle
# ---------------------------------------------------------------------------

ADAPTIVE_CASES = [("chain", 1), ("grid", 2), ("random", 3), ("chain", 5)]


@pytest.mark.parametrize(
    "kind,seed", ADAPTIVE_CASES, ids=[f"{k}-{s}" for k, s in ADAPTIVE_CASES]
)
def test_adaptive_nodes_match_dense(kind, seed):
    """Every energy the wave engine solves agrees with dense inversion.

    Refinement places its own nodes, so the oracle is evaluated at the
    refined node set rather than a fixed grid — the contract is that the
    adaptive path introduces no error of its own: transmission at every
    accepted node matches ``dense_observables`` to 1e-10, hence the
    adaptive quadrature equals the dense quadrature over the same nodes
    bit-for-bit.
    """
    H, energies = _build(kind, seed)
    rgf = RGFSolver(H, eta=ETA)
    refiner = AdaptiveEnergyGrid(
        float(energies[0]), float(energies[-1]),
        n_initial=7, tol=5e-3, max_points=256,
    )
    grid = refiner.refine(lambda e: float(rgf.solve(float(e)).transmission))
    t_adaptive = refiner.sampled_values(grid)

    lead_l = (H.diagonal[0], H.upper[0])
    lead_r = (H.diagonal[-1], H.upper[-1])
    t_dense = np.array([
        dense_observables(H, float(e), lead_l, lead_r, eta=ETA)["transmission"]
        for e in grid.energies
    ])
    np.testing.assert_allclose(
        t_adaptive, t_dense, atol=TOL, rtol=0.0,
        err_msg=f"{kind}-{seed}: adaptive node transmission",
    )
    assert grid.integrate(t_adaptive) == grid.integrate(t_dense) or (
        abs(grid.integrate(t_adaptive) - grid.integrate(t_dense))
        <= TOL * grid.weights.sum()
    )


ADAPTIVE_DEVICES = [
    DeviceSpec(n_x=6, n_y=2, n_z=1, spacing_nm=0.25, source_cells=2,
               drain_cells=2, gate_cells=(2, 4), donor_density_nm3=0.05,
               material_params={"m_rel": 0.3}),
    DeviceSpec(n_x=8, n_y=2, n_z=1, spacing_nm=0.25, source_cells=2,
               drain_cells=2, gate_cells=(3, 5), donor_density_nm3=0.05,
               material_params={"m_rel": 0.2}),
    DeviceSpec(n_x=6, n_y=1, n_z=2, spacing_nm=0.3, source_cells=2,
               drain_cells=2, gate_cells=(2, 4), donor_density_nm3=0.08,
               material_params={"m_rel": 0.5}),
    DeviceSpec(n_x=7, n_y=2, n_z=2, spacing_nm=0.25, source_cells=2,
               drain_cells=2, gate_cells=(3, 5), donor_density_nm3=0.05,
               material_params={"m_rel": 0.3}),
]


@pytest.mark.parametrize("idx", range(len(ADAPTIVE_DEVICES)))
def test_adaptive_bit_identical_across_backends(idx):
    """Adaptive transport is bit-identical on every execution backend.

    Refinement decisions are made in the parent from round-tripped
    float64 results, so serial / thread / process
    must produce the same node set, the same transmission and the same
    current down to the last bit — not merely within tolerance.
    """
    built = build_device(ADAPTIVE_DEVICES[idx])
    pot = np.zeros(built.n_atoms)

    def run(backend, workers=None):
        tc = TransportCalculation(
            built, method="rgf", n_energy=11, backend=backend,
            workers=workers,
            energy_mode="adaptive", adaptive_tol=0.05,
        )
        return tc.solve_bias(pot, 0.05)

    ref = run("serial")
    assert ref.adaptive is not None and ref.adaptive["nodes"] >= 2
    for backend in ("thread", "process"):
        res = run(backend, workers=2)
        np.testing.assert_array_equal(
            res.energy_grid.energies, ref.energy_grid.energies,
            err_msg=f"device {idx}: {backend} grid",
        )
        np.testing.assert_array_equal(
            res.transmission, ref.transmission,
            err_msg=f"device {idx}: {backend} transmission",
        )
        np.testing.assert_array_equal(
            res.density_per_atom, ref.density_per_atom,
            err_msg=f"device {idx}: {backend} density",
        )
        assert res.current_a == ref.current_a
        assert res.adaptive == ref.adaptive
