"""T1 — device benchmark table: structures, atom counts, Hamiltonian sizes.

Regenerates the paper's device-inventory table: for each benchmark
structure, the geometry family, atom count, orbitals per atom, Hamiltonian
dimension, slab block size and the seconds its construction took.  The
small devices and the paper's 5 nm gate-all-around wire (65 x 9 x 9 cells,
42k atoms) are *built*: atoms cut from the crystal, pruned, bonded and
partitioned into slabs (no Hamiltonian).  The 100k-atom UTB is constructed
analytically from per-cell counts and marked "projected".
"""

import time

from conftest import print_experiment

from repro.io import format_table
from repro.lattice import (
    ZincblendeCell,
    partition_into_slabs,
    zincblende_nanowire,
    zincblende_ultra_thin_body,
)
from repro.tb import silicon_sp3d5s, silicon_sp3s

SI = ZincblendeCell(0.5431, "Si", "Si")


def build_rows():
    rows = []
    # --- built devices ------------------------------------------------------
    cases = [
        ("Si NW 1.1nm, sp3s*", "nanowire", 8, 2, 2, silicon_sp3s()),
        ("Si NW 1.6nm, sp3s*", "nanowire", 8, 3, 3, silicon_sp3s()),
        ("Si NW 1.1nm, sp3d5s*+SO", "nanowire", 6, 2, 2,
         silicon_sp3d5s().with_spin()),
        ("Si UTB 1.1nm, sp3s*", "utb", 8, None, 2, silicon_sp3s()),
        ("Si NW 5nm GAA (paper scale)", "nanowire", 65, 9, 9,
         silicon_sp3d5s().with_spin()),
    ]
    for name, family, nx, ny, nz, mat in cases:
        start = time.perf_counter()
        if family == "nanowire":
            s = zincblende_nanowire(SI, nx, ny, nz)
        else:
            s = zincblende_ultra_thin_body(SI, nx, nz)
        dev = partition_into_slabs(s, mat.slab_length_nm, mat.bond_cutoff_nm)
        seconds = time.perf_counter() - start
        m = dev.uniform_slab_size() * mat.orbitals_per_atom
        rows.append(
            (name, s.n_atoms, mat.orbitals_per_atom,
             s.n_atoms * mat.orbitals_per_atom, dev.n_slabs, m,
             f"{seconds:.3f}", "built")
        )
    # --- projected paper-scale device ----------------------------------------
    mat = silicon_sp3d5s().with_spin()
    atoms_per_slab, n_slabs = 770, 130
    n_atoms = atoms_per_slab * n_slabs
    rows.append(
        ("Si UTB 100k atoms (paper scale)", n_atoms, mat.orbitals_per_atom,
         n_atoms * mat.orbitals_per_atom, n_slabs,
         atoms_per_slab * mat.orbitals_per_atom, "-", "projected")
    )
    return rows


def test_t1_device_table(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    print_experiment(
        "T1",
        "device benchmark structures",
        "paper class: table of simulated devices (atoms, Hamiltonian size);"
        "\nthe wires and the small UTB are constructed for real (build s:"
        " atoms + bonds + slabs), the 100k-atom UTB projected from per-cell"
        " counts",
    )
    print(format_table(
        ["device", "atoms", "orb/atom", "H dim", "slabs N",
         "block m", "build s", "status"],
        rows,
    ))
    assert all(r[3] == r[1] * r[2] for r in rows)
    paper_wire = rows[-2]
    assert paper_wire[-1] == "built" and paper_wire[4] == 65
    assert paper_wire[1] > 40_000
    # the projected UTB matches the paper's ~100k-atom, multi-million-dof scale
    assert rows[-1][1] * rows[-1][2] > 1_000_000
