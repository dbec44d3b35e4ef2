"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the reconstructed SC'11
evaluation (see DESIGN.md section 4) and prints it in a uniform format so
EXPERIMENTS.md can quote the output directly.  All benchmarks use the
pytest-benchmark fixture so ``pytest benchmarks/ --benchmark-only`` runs
the complete harness.
"""

import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.core import DeviceSpec, TransportCalculation, build_device


def print_experiment(experiment_id: str, table: str, notes: str = "") -> None:
    """Uniform banner + table output for EXPERIMENTS.md."""
    line = "=" * 72
    print(f"\n{line}\n[{experiment_id}] {table}")
    if notes:
        print(notes)
    print(line)


def record_baseline(name: str, metrics: dict) -> Path:
    """Persist measured metrics of a benchmark as ``BENCH_<name>.json``.

    Baselines land in ``benchmarks/baselines/`` (override with the
    ``REPRO_BENCH_DIR`` environment variable) so an optimisation PR can
    diff its measured sustained-Flop/s and per-kernel counts against the
    committed run.  ``metrics`` is typically the
    :func:`repro.observability.export.flat_metrics` dict of a traced run, plus
    any benchmark-specific figures.
    """
    directory = Path(
        os.environ.get("REPRO_BENCH_DIR", Path(__file__).parent / "baselines")
    )
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def git_sha() -> str:
    """``git describe`` of the benchmarked tree, for baseline stamps."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"], capture_output=True,
            text=True, check=True, cwd=Path(__file__).parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


@pytest.fixture(scope="session")
def fet_small():
    """The ~50-atom grid-material FET used by the measured benches."""
    spec = DeviceSpec(
        name="bench-nwfet",
        n_x=12,
        n_y=2,
        n_z=2,
        spacing_nm=0.25,
        source_cells=4,
        drain_cells=4,
        gate_cells=(4, 7),
        donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    return build_device(spec)


@pytest.fixture(scope="session")
def fet_transport(fet_small):
    """Standard WF transport calculation for the small FET."""
    return TransportCalculation(fet_small, method="wf", n_energy=81)


def grid_transport_system(n_x=8, n_yz=3, barrier=0.1, m_rel=0.3, spacing=0.25):
    """A single-band barrier device Hamiltonian for kernel benchmarks."""
    from repro.lattice import partition_into_slabs, rectangular_grid_device
    from repro.tb import build_device_hamiltonian, single_band_material

    mat = single_band_material(m_rel=m_rel, spacing_nm=spacing)
    s = rectangular_grid_device(spacing, n_x, n_yz, n_yz)
    dev = partition_into_slabs(s, spacing, spacing)
    pot = np.zeros(s.n_atoms)
    slab = dev.slab_of_atom()
    mid = dev.n_slabs // 2
    pot[(slab >= mid - 1) & (slab <= mid + 1)] = barrier
    return build_device_hamiltonian(dev, mat, potential=pot)
