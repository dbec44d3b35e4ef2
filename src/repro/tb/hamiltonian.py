"""Tight-binding Hamiltonian assembly.

Two products are built here:

* :class:`BlockTridiagonalHamiltonian` — the device Hamiltonian in slab
  (principal-layer) block form, the input of every transport kernel;
* small dense Bloch Hamiltonians for periodic systems (bulk primitive cell,
  periodic wire cell) used by the band-structure utilities.

The assembler is deliberately a thin loop over the bond table: the physics
(Slater-Koster blocks, spin-orbit, passivation projectors, strain scaling)
lives in the dedicated modules, and everything here is bookkeeping that maps
atoms to matrix rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..lattice.passivation import (
    DEFAULT_PASSIVATION_SHIFT_EV,
    find_dangling_bonds,
)
from ..lattice.slabs import SlabbedDevice
from .orbitals import Orbital
from .parameters import TBMaterial
from .slater_koster import sk_hopping_block
from .strain import scale_sk_params

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "BlockTridiagonalHamiltonian",
    "HamiltonianSkeleton",
    "build_device_hamiltonian",
    "bulk_hamiltonian",
    "identity_scalars",
    "wire_bloch_hamiltonian",
]


def identity_scalars(blocks) -> list:
    """``c`` (complex) for each block that is exactly ``c·I`` with ``c``
    finite, None for any other block.

    The one test of "this coupling is a scalar": the block LU multiplies
    by such a coupling instead of issuing a GEMM, and the surface GF of a
    lead coupled by one is the closed form of its mode basis.  It runs
    once per set of couplings — a :class:`HamiltonianSkeleton`, a
    :class:`BlockTridiagonalHamiltonian` built elsewhere, an explicit
    lead — not per kernel stage.
    """

    def scalar(block):
        b = np.asarray(block, dtype=complex)
        square = b.ndim == 2 and b.shape[0] == b.shape[1] and b.size
        c = b[0, 0] if square else np.nan
        is_scalar = np.isfinite(c) and np.array_equal(b, c * np.eye(len(b)))
        return c if is_scalar else None

    return [scalar(b) for b in blocks]


def lu_couplings(couplings) -> tuple:
    """``(upper, lower)`` couplings of ``A = E - H - Sigma`` in the block
    LU's form (:class:`repro.solvers.block_tridiagonal.Couplings`) from H's
    coupling verdicts ``couplings`` (:func:`as_couplings`): ``-c`` for a
    ``c·I`` coupling, ``-H_{i,i+1}`` otherwise, and the lower blocks their
    conjugate transposes."""
    from ..solvers.block_tridiagonal import Couplings

    upper = Couplings(-c for c in couplings)
    return upper, Couplings(np.conj(u).T for u in upper)


def as_couplings(blocks) -> list:
    """``blocks`` with each exactly-``c·I`` one replaced by its 0-d ``c``
    (:func:`identity_scalars`); any other block is returned as itself."""
    scalars = identity_scalars(blocks)
    return [b if c is None else c for b, c in zip(blocks, scalars)]


class BlockTridiagonalHamiltonian:
    """Hermitian block-tridiagonal matrix H (dense complex blocks).

    ``diagonal[i]`` is H_ii; ``upper[i]`` is H_{i,i+1}; the lower blocks are
    implied by hermiticity, ``H_{i+1,i} = upper[i].conj().T``.

    The block sizes may differ between slabs (tapered devices); most
    transport kernels only require adjacent blocks to be conformable.

    The diagonal blocks of one size are stored as one ``(n, m, m)`` array:
    ``diagonal_stacks`` holds a ``(slabs, stack)`` pair per block size,
    and ``diagonal[i]`` is the view of slab i in its stack (the
    constructor copies the given blocks into the stacks).  The coupling
    verdicts of :meth:`couplings` are taken once, at construction — or
    handed over by the :class:`HamiltonianSkeleton` that built H — so the
    upper blocks are read as given then.  So are ``system_couplings``,
    the couplings of ``E - H - Sigma`` in the block LU's form
    (``lu_couplings``), which every kernel stage of H factors with;
    the Hamiltonians of one skeleton share one pair.  A pickled H carries
    each stack once, not its views (nor ``system_couplings``, rebuilt on
    unpickling).
    """

    def __init__(self, diagonal, upper):
        if len(upper) != len(diagonal) - 1:
            raise ValueError(
                f"{len(diagonal)} diagonal blocks need "
                f"{len(diagonal) - 1} upper blocks, got {len(upper)}"
            )
        for i, d in enumerate(diagonal):
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise ValueError(f"diagonal block {i} is not square: {d.shape}")
        sizes = [d.shape[0] for d in diagonal]
        for i, u in enumerate(upper):
            if u.shape != (sizes[i], sizes[i + 1]):
                raise ValueError(f"upper block {i} has shape {u.shape}, "
                                 f"expected {(sizes[i], sizes[i + 1])}")
        # one stack per block size, in order of first use
        stacks = [(slabs, np.array([diagonal[i] for i in slabs]))
                  for slabs in (np.flatnonzero(np.array(sizes) == m)
                                for m in dict.fromkeys(sizes))]
        # the attributes are those of the one other way an H is made
        vars(self).update(vars(
            self._from_stacks(stacks, upper, as_couplings(upper))
        ))

    @classmethod
    def _from_stacks(cls, stacks, upper, couplings, system=None):
        """An H on ``diagonal_stacks`` with its coupling verdicts already
        taken — a skeleton's build, or an unpickling, whose ``couplings``
        come as one byte a coupling (a scalar's ``c`` is its block's
        ``[0, 0]`` entry): no copy, no check.  ``system`` is the
        skeleton's ``system_couplings`` (None: built here)."""
        if isinstance(couplings, bytes):
            couplings = [np.complex128(u.flat[0]) if is_scalar else u
                         for u, is_scalar in zip(upper, couplings)]
        H = cls.__new__(cls)
        H.diagonal = [None] * (len(upper) + 1)
        for slabs, stack in stacks:
            for i, block in zip(slabs.tolist(), stack):
                H.diagonal[i] = block
        H.upper, H.diagonal_stacks, H._couplings = list(upper), stacks, couplings
        H.system_couplings = system or lu_couplings(couplings)
        return H

    def __reduce__(self):
        # each stack once (not its views), the verdicts one byte a coupling
        scalar = bytes(np.ndim(c) == 0 for c in self._couplings)
        return type(self)._from_stacks, (self.diagonal_stacks, self.upper, scalar)

    @property
    def n_blocks(self) -> int:
        """Number of diagonal blocks (slabs)."""
        return len(self.diagonal)

    @property
    def block_sizes(self) -> np.ndarray:
        """Size of each diagonal block."""
        return np.array([d.shape[0] for d in self.diagonal])

    @property
    def total_size(self) -> int:
        """Dimension of the full matrix."""
        return int(self.block_sizes.sum())

    def block_offsets(self) -> np.ndarray:
        """Row offset of each block in the full matrix (n_blocks + 1)."""
        return np.concatenate([[0], np.cumsum(self.block_sizes)])

    def couplings(self) -> list:
        """The upper blocks, each exactly-``c·I`` one as its complex ``c``
        (:func:`as_couplings`, taken once per Hamiltonian): the
        effective-mass grid family couples its slabs by ``-t I``."""
        return list(self._couplings)

    def to_dense(self) -> np.ndarray:
        """Full dense matrix (tests and small references only)."""
        return self.to_csr().astype(complex).toarray()

    def to_csr(self) -> sp.csr_matrix:
        """Sparse CSR form (input of the interior eigensolver)."""
        import scipy.sparse as sp

        off = self.block_offsets()
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        vals: list[np.ndarray] = []

        def _append(block: np.ndarray, r0: int, c0: int) -> None:
            r, c = np.nonzero(block)
            rows.append(r + r0)
            cols.append(c + c0)
            vals.append(block[r, c])

        for i, d in enumerate(self.diagonal):
            _append(d, off[i], off[i])
        for i, u in enumerate(self.upper):
            _append(u, off[i], off[i + 1])
            _append(u.conj().T, off[i + 1], off[i])
        data = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
        return sp.csr_matrix(data, shape=(off[-1], off[-1]))

    def is_hermitian(self, atol: float = 1e-12) -> bool:
        """Check hermiticity of the diagonal blocks (uppers are implied)."""
        return all(
            np.allclose(d, d.conj().T, atol=atol) for d in self.diagonal
        )


def _hybrid_projector(direction: np.ndarray, material: TBMaterial) -> np.ndarray:
    """sp3 hybrid projector |h><h| for a dangling bond along ``direction``.

    |h> = (1/2) |s> + (sqrt(3)/2) (l |px> + m |py> + n |pz>); the projector
    is embedded in the atom block (spin-doubled if the basis is spinful).
    """
    basis = material.basis
    n_orb = basis.n_orbitals
    h = np.zeros(n_orb)
    orbs = list(basis.orbitals)
    if Orbital.S in orbs:
        h[orbs.index(Orbital.S)] = 0.5
    for comp, orb in zip(direction, (Orbital.PX, Orbital.PY, Orbital.PZ)):
        if orb in orbs:
            h[orbs.index(orb)] = np.sqrt(3.0) / 2.0 * comp
    norm = np.linalg.norm(h)
    if norm == 0.0:
        return np.zeros((basis.size, basis.size), dtype=complex)
    h = h / norm
    proj = np.outer(h, h).astype(complex)
    if basis.spin:
        proj = np.kron(proj, np.eye(2, dtype=complex))
    return proj


def _device_dangling_bonds(
    device: SlabbedDevice, open_left: bool, open_right: bool, cutoff_nm: float
):
    """Dangling bonds of the device, excluding bonds satisfied by the leads.

    The end slabs of an open device connect to semi-infinite leads that are
    perfect copies of those slabs; a missing neighbour that *would* exist in
    the lead copy is not dangling.  This is implemented exactly by gluing
    ghost copies of the end slabs onto the structure and running the
    dangling-bond search on the extended geometry.
    """
    from ..lattice.neighbors import build_neighbor_table
    from ..lattice.passivation import DanglingBond

    structure = device.structure
    length = device.slab_length_nm
    ext = structure
    offset = 0
    if open_left:
        ghost = device.slab_structure(0).translated([-length, 0.0, 0.0])
        ext = ghost.merged_with(ext)
        offset = ghost.n_atoms
    if open_right:
        ghost = device.slab_structure(device.n_slabs - 1).translated(
            [length, 0.0, 0.0]
        )
        ext = ext.merged_with(ghost)
    table_ext = build_neighbor_table(ext, cutoff_nm=cutoff_nm)
    dangling_ext = find_dangling_bonds(ext, table_ext)
    n_atoms = structure.n_atoms
    return [
        DanglingBond(db.atom - offset, db.direction)
        for db in dangling_ext
        if offset <= db.atom < offset + n_atoms
    ]


class HamiltonianSkeleton:
    """Everything of the device Hamiltonian that the potential does not touch.

    Hopping, passivation, strain scaling and the transverse Bloch phase are
    functions of (device, material, k) alone; the potential only adds
    ``potential[a]`` to the on-site diagonal of atom ``a``.  The skeleton is
    that potential-independent half, assembled once; :meth:`hamiltonian` is
    the other half, one vectorised diagonal add.  Constructor arguments are
    those of :func:`build_device_hamiltonian` without ``potential``.

    Attributes
    ----------
    diagonal, upper : list of ndarray
        Slab blocks at zero potential; ``diagonal[i]`` is a view into
        ``diagonal_stacks``.
    diagonal_stacks : list of (ndarray of int, ndarray)
        The diagonal blocks of each block size as one ``(n, m, m)``
        array with its slab indices (the layout of a
        :class:`BlockTridiagonalHamiltonian`'s ``diagonal_stacks``).
    onsite_diag : ndarray
        The on-site energies, one flat vector over all orbitals.
    atom_of_orbital : ndarray of int
        Atom index of each orbital (the gather index of the diagonal add).
    layers : list of ndarray
        What lands on the matrix diagonal *after* the on-site term
        (passivation projectors, self-wrap bonds), in assembly order: entry
        ``layers[n][o]`` is the n-th such increment of orbital ``o``.
        Floating-point addition does not associate, so replaying
        ``((onsite + U) + layer_0) + layer_1`` rather than adding ``U`` last
        is what keeps every block bit-identical to a one-pass assembly.
        Empty on the grid family.

    Every array is read-only: a skeleton is shared by all Hamiltonians made
    from it.
    """

    def __init__(
        self,
        device: SlabbedDevice,
        material: TBMaterial,
        k_transverse: float = 0.0,
        passivate: bool = True,
        passivation_shift_ev: float = DEFAULT_PASSIVATION_SHIFT_EV,
        strain_eta: float | dict | None = None,
        open_left: bool = True,
        open_right: bool = True,
    ):
        structure = device.structure
        species = structure.species
        n_atoms = structure.n_atoms
        n_orb = material.orbitals_per_atom
        slab_of = device.slab_of_atom()
        starts = device.slab_starts
        sizes = np.diff(starts) * n_orb
        diagonal = [np.zeros((s, s), dtype=complex) for s in sizes]
        upper = [
            np.zeros((sizes[i], sizes[i + 1]), dtype=complex)
            for i in range(device.n_slabs - 1)
        ]
        # local row offset of each atom inside its slab block
        local = (np.arange(n_atoms) - starts[slab_of]) * n_orb
        layers: list[np.ndarray] = []
        n_landed = np.zeros(n_atoms, dtype=int)

        def add_to_atom(a: int, increment: np.ndarray) -> None:
            """Add to atom ``a``'s own block; record the diagonal's share."""
            s, r = slab_of[a], local[a]
            diagonal[s][r : r + n_orb, r : r + n_orb] += increment
            if n_landed[a] == len(layers):
                layers.append(np.zeros(n_atoms * n_orb, dtype=complex))
            layers[n_landed[a]][a * n_orb : (a + 1) * n_orb] = increment.diagonal()
            n_landed[a] += 1

        # --- on-site blocks -------------------------------------------------
        onsite = {sp: material.onsite_matrix(sp) for sp in set(species)}
        for a in range(n_atoms):
            s, r = slab_of[a], local[a]
            diagonal[s][r : r + n_orb, r : r + n_orb] += onsite[species[a]]

        # --- passivation ----------------------------------------------------
        if passivate and material.cell is not None and material.basis.has_p():
            if open_left or open_right:
                dangling = _device_dangling_bonds(
                    device, open_left, open_right, material.bond_cutoff_nm
                )
            else:
                dangling = find_dangling_bonds(structure, device.neighbor_table)
            for db in dangling:
                add_to_atom(
                    db.atom,
                    passivation_shift_ev * _hybrid_projector(db.direction, material),
                )

        # --- hopping blocks -------------------------------------------------
        table = device.neighbor_table
        spin = material.basis.spin
        ideal_bond = material.bond_cutoff_nm
        period = structure.periodic_y
        spinless = material.basis if not spin else type(material.basis)(
            material.basis.orbitals, spin=False
        )
        # same species pair and displacement -> same bits: one Slater-Koster
        # evaluation per distinct bond, not per bond
        sk_blocks: dict = {}
        for b in range(table.n_bonds):
            i, j = int(table.i[b]), int(table.j[b])
            si, sj = slab_of[i], slab_of[j]
            if sj < si or (sj == si and j < i):
                continue  # fill each pair once; hermitian partner handled below
            if i == j and table.wrap_y[b] < 0:
                continue  # self-wrap bond: the -y image is the +y bond's partner
            d = table.displacement[b]
            key = (species[i], species[j], d.tobytes())
            block = sk_blocks.get(key)
            if block is None:
                dist = float(np.linalg.norm(d))
                params = material.sk_params(species[i], species[j])
                if strain_eta is not None and ideal_bond > 0:
                    params = scale_sk_params(params, ideal_bond, dist, strain_eta)
                block = sk_hopping_block(params, d / dist, spinless).astype(complex)
                if spin:
                    block = np.kron(block, np.eye(2, dtype=complex))
                sk_blocks[key] = block
            if table.wrap_y[b] and period is not None:
                block = block * np.exp(1j * k_transverse * table.wrap_y[b] * period)
            ri, rj = local[i], local[j]
            if i == j:
                add_to_atom(i, block)
                add_to_atom(i, block.conj().T)
            elif sj == si:
                diagonal[si][ri : ri + n_orb, rj : rj + n_orb] += block
                diagonal[si][rj : rj + n_orb, ri : ri + n_orb] += block.conj().T
            elif sj == si + 1:
                upper[si][ri : ri + n_orb, rj : rj + n_orb] += block
            else:  # pragma: no cover - partition_into_slabs already forbids this
                raise ValueError("bond couples non-adjacent slabs")

        # the constructor stacks the blocks of each size and takes the
        # coupling verdicts every Hamiltonian of this skeleton shares
        bare = BlockTridiagonalHamiltonian(diagonal, upper)
        self.diagonal, self.diagonal_stacks = bare.diagonal, bare.diagonal_stacks
        self._couplings = bare._couplings
        self._system_couplings = bare.system_couplings  # shared by every H
        self.upper = upper
        self.layers = layers
        self.onsite_diag = np.concatenate(
            [onsite[sp].diagonal() for sp in species]
        )
        self.atom_of_orbital = np.repeat(np.arange(n_atoms), n_orb)
        self._n_atoms = n_atoms
        # the orbitals on each stack's diagonals, one row per slab
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        self._diagonal_rows = [offsets[slabs][:, None] + np.arange(m.shape[1])
                               for slabs, m in self.diagonal_stacks]
        for shared in (*self.diagonal, *upper, *layers, self.onsite_diag,
                       self.atom_of_orbital,
                       *(a for pair in self.diagonal_stacks for a in pair)):
            shared.setflags(write=False)

    def hamiltonian(
        self, potential: np.ndarray | None = None
    ) -> BlockTridiagonalHamiltonian:
        """The device Hamiltonian at a per-atom potential energy (eV).

        ``potential[a]`` is added to every orbital of atom ``a``; None means
        zero.  The returned ``diagonal_stacks`` are fresh, writable copies
        of the skeleton's, one copy and one strided write of the matrix
        diagonals per block size, bit for bit a per-block build; the
        ``upper`` blocks are the skeleton's own read-only arrays and their
        coupling verdicts and ``system_couplings`` the skeleton's, shared
        by every Hamiltonian it hands out.  A non-finite potential entry makes the on-site
        diagonal of its atom non-finite (not the atom's whole sub-block):
        the result is non-finite either way.
        """
        n_atoms = self._n_atoms
        if potential is None:
            potential = np.zeros(n_atoms)
        potential = np.asarray(potential, dtype=float)
        if potential.shape != (n_atoms,):
            raise ValueError(
                f"potential must have one entry per atom ({n_atoms}), got {potential.shape}"
            )
        diag = self.onsite_diag + potential[self.atom_of_orbital]
        for layer in self.layers:
            diag += layer
        stacks = [(slabs, stack.copy()) for slabs, stack in self.diagonal_stacks]
        for (_, stack), rows in zip(stacks, self._diagonal_rows):
            stack.reshape(len(rows), -1)[:, :: rows.shape[1] + 1] = diag[rows]
        return BlockTridiagonalHamiltonian._from_stacks(
            stacks, self.upper, self._couplings, self._system_couplings
        )


def build_device_hamiltonian(
    device: SlabbedDevice,
    material: TBMaterial,
    potential: np.ndarray | None = None,
    k_transverse: float = 0.0,
    passivate: bool = True,
    passivation_shift_ev: float = DEFAULT_PASSIVATION_SHIFT_EV,
    strain_eta: float | dict | None = None,
    open_left: bool = True,
    open_right: bool = True,
) -> BlockTridiagonalHamiltonian:
    """Assemble the device Hamiltonian in slab block-tridiagonal form.

    One cold assembly: ``HamiltonianSkeleton(...).hamiltonian(potential)``.
    Callers that update the potential of one device repeatedly keep the
    skeleton (:meth:`repro.core.BuiltDevice.hamiltonian` does).

    Parameters
    ----------
    device : SlabbedDevice
        Slab-ordered geometry (from :func:`repro.lattice.partition_into_slabs`).
    material : TBMaterial
        Basis, on-site energies and two-centre integrals.
    potential : ndarray or None
        Electrostatic potential energy (eV) per atom, added to every orbital
        of that atom; None means zero.
    k_transverse : float
        Transverse Bloch momentum k_y (1/nm) for structures with
        ``periodic_y``; bonds wrapping the boundary acquire the phase
        ``exp(1j * k_y * wrap * L_y)``.
    passivate : bool
        Apply the dangling-hybrid passivation shift (zincblende materials
        with an s+p basis only).
    passivation_shift_ev : float
        Energy shift of each dangling hybrid.
    strain_eta : float, dict or None
        If not None, scale each bond's integrals from the material's ideal
        bond length to the actual bond length with this Harrison exponent.
    open_left, open_right : bool
        Whether the device continues into a semi-infinite lead on that side;
        end-slab bonds pointing into a lead are then *not* passivated.  Set
        both False for an isolated (closed) cluster.

    Returns
    -------
    BlockTridiagonalHamiltonian
    """
    return HamiltonianSkeleton(
        device, material, k_transverse, passivate, passivation_shift_ev,
        strain_eta, open_left, open_right,
    ).hamiltonian(potential)


def bulk_hamiltonian(material: TBMaterial, k: np.ndarray) -> np.ndarray:
    """Bloch Hamiltonian of the 2-atom zincblende primitive cell at ``k``.

    Uses the atomic gauge (phases from the actual bond vectors), so eigen-
    values are exactly periodic in the reciprocal lattice.

    Parameters
    ----------
    material : TBMaterial
        Must be a zincblende material (``material.cell`` set).
    k : array_like, shape (3,)
        Wave vector in 1/nm.
    """
    from ..lattice.zincblende import primitive_cell_info

    if material.cell is None:
        raise ValueError("bulk_hamiltonian requires a zincblende material")
    info = primitive_cell_info(material.cell)
    k = np.asarray(k, dtype=float)
    anion, cation = info["species"]
    n_orb = material.orbitals_per_atom
    spin = material.basis.spin
    spinless = material.basis if not spin else type(material.basis)(
        material.basis.orbitals, spin=False
    )
    H = np.zeros((2 * n_orb, 2 * n_orb), dtype=complex)
    H[:n_orb, :n_orb] = material.onsite_matrix(anion)
    H[n_orb:, n_orb:] = material.onsite_matrix(cation)
    params = material.sk_params(anion, cation)
    coupling = np.zeros((n_orb, n_orb), dtype=complex)
    for delta in info["neighbor_vectors"]:
        dist = np.linalg.norm(delta)
        blk = sk_hopping_block(params, delta / dist, spinless).astype(complex)
        if spin:
            blk = np.kron(blk, np.eye(2, dtype=complex))
        coupling += blk * np.exp(1j * (k @ delta))
    H[:n_orb, n_orb:] = coupling
    H[n_orb:, :n_orb] = coupling.conj().T
    return H


def wire_bloch_hamiltonian(
    h00: np.ndarray, h01: np.ndarray, k_x: float | np.ndarray,
    period_nm: float,
) -> np.ndarray:
    """Bloch Hamiltonian H(k) = H00 + H01 e^{ikL} + H01^+ e^{-ikL} of a wire.

    ``h00``/``h01`` are the slab diagonal and coupling blocks of a periodic
    wire (every slab identical); the eigenvalues over k in [-pi/L, pi/L]
    are the wire subbands.  ``k_x`` may be an array that broadcasts
    against the blocks — shape ``(n_k, 1, 1)`` gives the ``(n_k, m, m)``
    stack, slice for slice the bits of a call per k.
    """
    phase = np.exp(1j * k_x * period_nm)
    return h00 + h01 * phase + h01.conj().T * np.conj(phase)
