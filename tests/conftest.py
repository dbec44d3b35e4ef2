"""Shared fixtures and device generators for the test suite.

Consolidates the device-setup helpers that grew independently inside
``test_backend.py`` and ``test_differential.py``:

* the **mini FET** (10x2x2 effective-mass grid) every backend-conformance
  and resilience test drills against, with its serial ground-truth solve;
* the **generated device population** of the randomized differential
  suite (1-D chains, effective-mass grids, random Hermitian
  block-tridiagonal systems) and the band-straddling energy grid that
  exercises both open and closed lead channels.

Test modules import the plain generators (``from tests.conftest import
chain_device``) and receive the fixtures by name.
"""

import numpy as np
import pytest

from repro.core import DeviceSpec, TransportCalculation, build_device
from repro.lattice import partition_into_slabs, rectangular_grid_device
from repro.tb import (
    BlockTridiagonalHamiltonian,
    build_device_hamiltonian,
    single_band_material,
)
from repro.tb.chain import chain_blocks

__all__ = [
    "band_energy_grid",
    "chain_device",
    "grid_device",
    "make_transport",
    "mini_device",
    "random_device",
]


# ---------------------------------------------------------------------------
# the mini FET of the backend / resilience conformance tests
# ---------------------------------------------------------------------------

def mini_device():
    """The 10x2x2 effective-mass FET used by every conformance suite."""
    return build_device(DeviceSpec(
        n_x=10,
        n_y=2,
        n_z=2,
        spacing_nm=0.25,
        source_cells=3,
        drain_cells=3,
        gate_cells=(4, 6),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    ))


def make_transport(built, **kwargs):
    """RGF transport calculation with the conformance-suite defaults."""
    kwargs.setdefault("method", "rgf")
    kwargs.setdefault("n_energy", 21)
    return TransportCalculation(built, **kwargs)


@pytest.fixture(scope="session")
def built():
    return mini_device()


@pytest.fixture
def set_constant(monkeypatch):
    """Callable ``set_constant(owner, name, value)`` setting a module or
    class constant for one test.

    The thresholds, tolerances and bounds of the safety nets are
    constants, not options; the drills that need another value set it
    here.  Pools are recycled around the change so forked process-backend
    workers inherit it — and lose it afterwards.
    """
    from repro.parallel.backend import shutdown_pools

    def pin(owner, name, value) -> None:
        monkeypatch.setattr(owner, name, value)
        shutdown_pools()

    yield pin
    shutdown_pools()  # the next pool forks after monkeypatch has restored


@pytest.fixture
def force_stack(set_constant):
    """Callable pinning the sub-stack length of every energy sweep.

    Production derives the length from the device
    (:func:`repro.core.transport.stack_length`); the split-invariance
    tests override it.
    """
    from repro.core import transport

    def pin(length: int) -> None:
        set_constant(transport, "stack_length",
                     lambda n_blocks, m: int(length))

    return pin


@pytest.fixture(scope="session")
def reference(built):
    """Serial, uncached bias solve — the ground truth."""
    tc = make_transport(built, backend="serial")
    pot = np.zeros(built.n_atoms)
    grid = tc.energy_grid(pot, 0.05)
    return pot, grid, tc.solve_bias(pot, 0.05, energy_grid=grid)


# ---------------------------------------------------------------------------
# generated device population of the differential / property suites
# ---------------------------------------------------------------------------

def chain_device(seed):
    """1-D chain (one orbital per slab) with a random smooth barrier."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(6, 15))
    e0 = float(rng.uniform(-0.3, 0.3))
    t = float(rng.uniform(0.8, 1.2))
    pot = np.zeros(n)
    lo = int(rng.integers(2, max(3, n - 4)))
    hi = min(n - 2, lo + int(rng.integers(1, 4)))
    pot[lo:hi] = float(rng.uniform(0.1, 0.6))
    diag, up = chain_blocks(n, e0, t, pot)
    return BlockTridiagonalHamiltonian(diag, up)


def grid_device(seed):
    """Effective-mass grid device with varying material and orbital count."""
    rng = np.random.default_rng(2000 + seed)
    m_rel = (0.2, 0.3, 0.5)[seed % 3]
    n_y, n_z = ((2, 1), (2, 2), (3, 1))[seed % 3]
    n_x = int(rng.integers(5, 8))
    spacing = 0.3
    mat = single_band_material(m_rel=m_rel, spacing_nm=spacing)
    s = rectangular_grid_device(spacing, n_x, n_y, n_z)
    dev = partition_into_slabs(s, spacing, spacing)
    pot = np.zeros(s.n_atoms)
    slab = dev.slab_of_atom()
    pot[(slab >= 2) & (slab <= 3)] = float(rng.uniform(0.05, 0.3))
    return build_device_hamiltonian(dev, mat, potential=pot)


def random_device(seed):
    """Random Hermitian block-tridiagonal system, 2-4 orbitals per slab."""
    rng = np.random.default_rng(3000 + seed)
    m = int(rng.integers(2, 5))
    n_blocks = int(rng.integers(4, 7))

    def herm():
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        return 0.5 * (a + a.conj().T)

    h00 = herm()
    h01 = 0.6 * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    diag = [h00.copy() for _ in range(n_blocks)]
    # perturb the interior so the device is not a perfect lead
    for i in range(1, n_blocks - 1):
        diag[i] = diag[i] + 0.2 * herm()
    upper = [h01.copy() for _ in range(n_blocks - 1)]
    return BlockTridiagonalHamiltonian(diag, upper)


def band_energy_grid(H, n_energy=7):
    """Energies straddling the lead band (open and closed channels)."""
    ev = np.linalg.eigvalsh(H.diagonal[0])
    width = 2.0 * np.linalg.norm(H.upper[0], 2)
    lo, hi = ev.min() - width, ev.max() + width
    # asymmetric, irrational-ish pads so no grid point lands exactly on a
    # lead band edge (where Sancho-Rubio decimation converges slowly)
    w = hi - lo
    return np.linspace(lo + 0.137 * w, hi - 0.171 * w, n_energy)
