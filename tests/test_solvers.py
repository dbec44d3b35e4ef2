"""Tests for the block-tridiagonal, SplitSolve and banded solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import Tracer, use_tracer
from repro.solvers import (
    BandedLU,
    BatchedBlockTridiagLU,
    BlockTridiagLU,
    SparseLU,
    SplitSolve,
    bandwidth_of_blocks,
    block_tridiag_matvec,
    blocks_to_banded,
    partition_domains,
)


def random_btd(n_blocks, m, seed=0, diag_dominant=True):
    """Random well-conditioned block-tridiagonal system."""
    rng = np.random.default_rng(seed)

    def rand(shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    diag = [rand((m, m)) for _ in range(n_blocks)]
    if diag_dominant:
        for d in diag:
            d += 4.0 * m * np.eye(m)
    upper = [rand((m, m)) for _ in range(n_blocks - 1)]
    lower = [rand((m, m)) for _ in range(n_blocks - 1)]
    return diag, upper, lower


def to_dense(diag, upper, lower):
    sizes = [d.shape[0] for d in diag]
    off = np.concatenate([[0], np.cumsum(sizes)])
    n = off[-1]
    A = np.zeros((n, n), dtype=complex)
    for i, d in enumerate(diag):
        A[off[i] : off[i + 1], off[i] : off[i + 1]] = d
    for i in range(len(upper)):
        A[off[i] : off[i + 1], off[i + 1] : off[i + 2]] = upper[i]
        A[off[i + 1] : off[i + 2], off[i] : off[i + 1]] = lower[i]
    return A


RAGGED = [2, 4, 3]
ENTRIES = ["2d", "stack"]
#: the one working precision: every result of the class is complex128
DTYPES = [np.complex128]


def ragged_stack(n_batch=3, sizes=RAGGED, seed=23):
    """``n_batch`` well-conditioned systems with ragged block sizes, as
    per-slab stacks: (B, m_i, m_i) diagonals, shared 2-D couplings."""
    rng = np.random.default_rng(seed)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    diag = [rand(n_batch, s, s) + 10.0 * np.eye(s) for s in sizes]
    upper = [rand(a, b) for a, b in zip(sizes[:-1], sizes[1:])]
    lower = [rand(b, a) for a, b in zip(sizes[:-1], sizes[1:])]
    return diag, upper, lower


def entry_systems(entry, n_batch=3):
    """The (diag, upper, lower) argument triple of one entry of the
    class, and the dense matrix of every slice it holds."""
    diag, upper, lower = ragged_stack(n_batch)
    dense = [
        to_dense([d[b] for d in diag], upper, lower) for b in range(n_batch)
    ]
    if entry == "2d":
        return ([d[0] for d in diag], upper, lower), dense[:1]
    return (diag, upper, lower), dense


def slices(entry, blocks):
    """Per-slice block lists of a result of either entry."""
    if entry == "2d":
        return [blocks]
    return [[blk[b] for blk in blocks] for b in range(blocks[0].shape[0])]


def recorded_products(monkeypatch):
    """Patch the one matmul ``BlockTridiagLU`` calls; the returned list
    grows by the (left, right) trailing shapes of every product issued."""
    from repro.solvers import block_tridiagonal

    issued = []

    def matmul(a, b, out=None):
        issued.append((a.shape[-2:], b.shape[-2:]))
        return np.matmul(a, b, out=out)

    monkeypatch.setattr(block_tridiagonal, "_matmul", matmul)
    return issued


def oracle_atol(dtype):
    # diagonally dominant systems, |A^-1| ~ 0.1: a few hundred ulps
    return 500 * np.finfo(dtype).eps


class TestMatvec:
    def test_matches_dense(self):
        diag, upper, lower = random_btd(5, 3, seed=1)
        A = to_dense(diag, upper, lower)
        rng = np.random.default_rng(2)
        x = rng.normal(size=A.shape[0]) + 0j
        xb = [x[3 * i : 3 * (i + 1)] for i in range(5)]
        out = np.concatenate(block_tridiag_matvec(diag, upper, lower, xb))
        np.testing.assert_allclose(out, A @ x, atol=1e-12)

    def test_block_count_check(self):
        diag, upper, lower = random_btd(3, 2)
        with pytest.raises(ValueError):
            block_tridiag_matvec(diag, upper, lower, [np.zeros(2)] * 2)


class TestBlockTridiagLU:
    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (6, 4), (10, 3)])
    def test_solve_matches_dense(self, n, m):
        diag, upper, lower = random_btd(n, m, seed=n * 10 + m)
        A = to_dense(diag, upper, lower)
        rng = np.random.default_rng(5)
        b = rng.normal(size=(A.shape[0], 2)) + 1j * rng.normal(size=(A.shape[0], 2))
        lu = BlockTridiagLU(diag, upper, lower)
        xb = lu.solve([b[m * i : m * (i + 1)] for i in range(n)])
        x = np.vstack(xb)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-9)

    def test_hermitian_coupling_default(self):
        diag, upper, _ = random_btd(4, 3, seed=3)
        lower = [u.conj().T for u in upper]
        lu1 = BlockTridiagLU(diag, upper)
        lu2 = BlockTridiagLU(diag, upper, lower)
        rhs = [np.ones((3, 1), dtype=complex)] * 4
        np.testing.assert_allclose(
            np.vstack(lu1.solve(rhs)), np.vstack(lu2.solve(rhs)), atol=1e-12
        )

    def test_block_column(self):
        diag, upper, lower = random_btd(5, 2, seed=7)
        A = to_dense(diag, upper, lower)
        Ainv = np.linalg.inv(A)
        lu = BlockTridiagLU(diag, upper, lower)
        for j in range(5):
            col = np.vstack(lu.solve_block_column(j))
            np.testing.assert_allclose(
                col, Ainv[:, 2 * j : 2 * (j + 1)], atol=1e-9
            )

    def test_block_column_out_of_range(self):
        diag, upper, lower = random_btd(3, 2)
        lu = BlockTridiagLU(diag, upper, lower)
        with pytest.raises(IndexError):
            lu.solve_block_column(3)

    def test_diagonal_of_inverse(self):
        diag, upper, lower = random_btd(6, 3, seed=11)
        A = to_dense(diag, upper, lower)
        Ainv = np.linalg.inv(A)
        lu = BlockTridiagLU(diag, upper, lower)
        G = lu.diagonal_of_inverse()
        for i in range(6):
            np.testing.assert_allclose(
                G[i], Ainv[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], atol=1e-9
            )

    def test_corner_blocks(self):
        diag, upper, lower = random_btd(4, 2, seed=13)
        A = to_dense(diag, upper, lower)
        Ainv = np.linalg.inv(A)
        lu = BlockTridiagLU(diag, upper, lower)
        np.testing.assert_allclose(
            lu.corner_block("lower-left"), Ainv[-2:, :2], atol=1e-9
        )
        np.testing.assert_allclose(
            lu.corner_block("upper-right"), Ainv[:2, -2:], atol=1e-9
        )
        with pytest.raises(ValueError):
            lu.corner_block("middle")

    def test_variable_block_sizes(self):
        rng = np.random.default_rng(17)
        sizes = [2, 4, 3]
        diag = [
            rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s)) + 10 * np.eye(s)
            for s in sizes
        ]
        upper = [
            rng.normal(size=(sizes[i], sizes[i + 1])) + 0j for i in range(2)
        ]
        lower = [
            rng.normal(size=(sizes[i + 1], sizes[i])) + 0j for i in range(2)
        ]
        A = to_dense(diag, upper, lower)
        lu = BlockTridiagLU(diag, upper, lower)
        b = rng.normal(size=A.shape[0]) + 0j
        off = np.concatenate([[0], np.cumsum(sizes)])
        xb = lu.solve([b[off[i] : off[i + 1]] for i in range(3)])
        np.testing.assert_allclose(
            np.concatenate(xb), np.linalg.solve(A, b), atol=1e-9
        )

    @given(seed=st.integers(0, 200), n=st.integers(2, 8), m=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_solve_random(self, seed, n, m):
        diag, upper, lower = random_btd(n, m, seed=seed)
        A = to_dense(diag, upper, lower)
        rng = np.random.default_rng(seed + 1)
        b = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
        lu = BlockTridiagLU(diag, upper, lower)
        x = np.concatenate(lu.solve([b[m * i : m * (i + 1)] for i in range(n)]))
        np.testing.assert_allclose(A @ x, b, atol=1e-8)

    # -- the one class, entered with (m, m) blocks or (B, m, m) stacks ----

    def test_one_class(self):
        assert BatchedBlockTridiagLU is BlockTridiagLU

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_dense_oracle(self, entry, dtype):
        """solve / block columns / diagonal of inverse / corners of both
        entries against ``np.linalg.inv``, ragged block sizes."""
        system, dense = entry_systems(entry)
        lu = BlockTridiagLU(*system)
        assert lu.batch_size == len(dense)
        atol = oracle_atol(dtype)
        off = np.concatenate([[0], np.cumsum(RAGGED)])
        rng = np.random.default_rng(29)
        lead = () if entry == "2d" else (len(dense),)
        rhs = [
            rng.normal(size=lead + (m, 2)) + 1j * rng.normal(size=lead + (m, 2))
            for m in RAGGED
        ]
        x = slices(entry, lu.solve(rhs))
        rhs_slices = slices(entry, rhs)
        columns = [slices(entry, lu.solve_block_column(j)) for j in range(3)]
        G = slices(entry, lu.diagonal_of_inverse())
        ll = lu.corner_block("lower-left")
        ur = lu.corner_block("upper-right")
        for b, A in enumerate(dense):
            Ainv = np.linalg.inv(A)
            np.testing.assert_allclose(
                np.vstack(x[b]), Ainv @ np.vstack(rhs_slices[b]), atol=atol
            )
            for j in range(3):
                np.testing.assert_allclose(
                    np.vstack(columns[j][b]),
                    Ainv[:, off[j] : off[j + 1]], atol=atol,
                )
            for i in range(3):
                np.testing.assert_allclose(
                    G[b][i],
                    Ainv[off[i] : off[i + 1], off[i] : off[i + 1]], atol=atol,
                )
            np.testing.assert_allclose(
                ll if entry == "2d" else ll[b], Ainv[off[2] :, : off[1]],
                atol=atol,
            )
            np.testing.assert_allclose(
                ur if entry == "2d" else ur[b], Ainv[: off[1], off[2] :],
                atol=atol,
            )

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_lower_none_is_hermitian_coupling(self, entry, dtype):
        (diag, upper, _), _ = entry_systems(entry)
        lower = [u.conj().T for u in upper]
        implicit = BlockTridiagLU(diag, upper)
        explicit = BlockTridiagLU(diag, upper, lower)
        for a, b in zip(
            implicit.diagonal_of_inverse(), explicit.diagonal_of_inverse()
        ):
            assert a.dtype == b.dtype == dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_slice_of_stack_is_the_2d_call_bitwise(self, dtype):
        """Every slice of a stacked factorisation *is* the 2-D call on
        that slice: same lines, same per-slice LAPACK/GEMM calls."""
        diag, upper, lower = ragged_stack(n_batch=4)
        rng = np.random.default_rng(31)
        rhs = [
            rng.normal(size=(4, m, 3)) + 1j * rng.normal(size=(4, m, 3))
            for m in RAGGED
        ]
        stack = BlockTridiagLU(diag, upper, lower)
        got = {
            "solve": stack.solve(rhs),
            "col0": stack.solve_block_column(0),
            "col2": stack.solve_block_column(2),
            "diag": stack.diagonal_of_inverse(),
        }
        for b in range(4):
            one = BlockTridiagLU([d[b] for d in diag], upper, lower)
            want = {
                "solve": one.solve([r[b] for r in rhs]),
                "col0": one.solve_block_column(0),
                "col2": one.solve_block_column(2),
                "diag": one.diagonal_of_inverse(),
            }
            for name, blocks in want.items():
                for i, blk in enumerate(blocks):
                    assert blk.dtype == got[name][i].dtype == dtype
                    assert np.array_equal(blk, got[name][i][b]), (name, b, i)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_block_column_is_one_array_and_its_blocks_are_views(
        self, entry, dtype
    ):
        """``block_column`` is the whole column; ``solve_block_column``
        hands out its row blocks without copying.  Bit-identical to the
        list-of-products form of the stored-multiplier sweep, and the
        re-association of the sweep it replaced (PR 17's order) to a few
        ulps."""
        system, dense = entry_systems(entry)
        lu = BlockTridiagLU(*system)
        lead = () if entry == "2d" else (len(dense),)
        p = [d @ u for d, u in zip(lu._dinv, lu._upper)]
        q = [l @ d for l, d in zip(lu._lower, lu._dinv)]
        for j, m in enumerate(RAGGED):
            column = lu.block_column(j)
            assert column.shape == lead + (sum(RAGGED), m)
            assert column.dtype == np.dtype(dtype)
            blocks = lu.solve_block_column(j)
            assert all(b.base is not None for b in blocks)
            assert np.array_equal(np.concatenate(blocks, axis=-2), column)
            y = [None] * 3
            y[j] = np.broadcast_to(np.eye(m, dtype=dtype), lead + (m, m))
            # the sweep as written: y_i = -Q_{i-1} y_{i-1}, then
            # x_i = dinv_i y_i - P_i x_{i+1} (bare -P_i x_{i+1} above j)
            for i in range(j + 1, 3):
                y[i] = -(q[i - 1] @ y[i - 1])
            x = [None] * 3
            x[2] = lu._dinv[2] @ y[2]
            for i in (1, 0):
                px = p[i] @ x[i + 1]
                x[i] = -px if y[i] is None else lu._dinv[i] @ y[i] - px
            assert np.array_equal(np.concatenate(x, axis=-2), column)
            # the sweep before the multipliers were stored
            for i in range(j + 1, 3):
                y[i] = -lu._lower[i - 1] @ (lu._dinv[i - 1] @ y[i - 1])
            x[2] = lu._dinv[2] @ y[2]
            for i in (1, 0):
                acc = y[i] if y[i] is not None else 0.0
                x[i] = lu._dinv[i] @ (acc - lu._upper[i] @ x[i + 1])
            old = np.concatenate(x, axis=-2)
            assert np.abs(column - old).max() <= 1e-13 * np.abs(old).max()

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_each_multiplier_is_formed_once(self, entry, monkeypatch):
        """Block products issued on N slabs: the factor forms
        ``P = dinv @ U`` (2(N-1) with the Schur update), the last column
        is N bare products, and the first column plus the selected
        inversion form ``Q = L @ dinv`` once between them — 9(N-1)+2 for
        the RGF kernel stage where the reference sweep issues 12(N-1)+2."""
        n = 6
        diag, upper, lower = random_btd(n, 3, seed=41)
        if entry == "stack":
            diag = [np.stack([d, 2.0 * d]) for d in diag]
        issued = recorded_products(monkeypatch)
        lu = BlockTridiagLU(diag, upper, lower)
        assert len(issued) == 2 * (n - 1)
        lu.block_column(n - 1)
        assert len(issued) == 2 * (n - 1) + n
        lu.block_column(0)
        lu.diagonal_of_inverse()
        assert len(issued) == 2 * (n - 1) + n + 6 * (n - 1) + 1
        assert len(issued) == 9 * (n - 1) + 2
        lu.diagonal_of_inverse()  # Q is there now: 2 a slab
        assert len(issued) == 11 * (n - 1) + 2

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_supplied_rhs_issues_no_square_product(self, entry, monkeypatch):
        """A supplied right-hand side (the WF injection sliver: r = 5 of
        m = 30 on the Si-sp3s* 1x1 wire) sweeps with thin products only —
        it never forms the m^3 ``Q``."""
        from tests.test_negf_surface_gf import si_wire_lead

        h00, h01 = si_wire_lead()
        m, r, n = h00.shape[0], 5, 4
        assert m == 30
        diag = [(2.5 + 1e-6j) * np.eye(m) - h00] * n
        if entry == "stack":
            diag = [np.stack([d - 0.1 * np.eye(m), d]) for d in diag]
        upper = [-h01] * (n - 1)
        lu = BlockTridiagLU(diag, upper)
        rng = np.random.default_rng(43)
        lead = diag[0].shape[:-2]
        W = rng.normal(size=lead + (m, r)) + 1j * rng.normal(size=lead + (m, r))
        issued = recorded_products(monkeypatch)
        first, last = lu.block_column(0, W), lu.block_column(n - 1, W)
        assert len(issued) == (4 * (n - 1) + 1) + n
        assert all(right == (m, r) for _, right in issued)
        assert "_q" not in vars(lu)
        inv = np.linalg.inv(to_dense(
            [d[-1] if entry == "stack" else d for d in diag],
            upper, [u.conj().T for u in upper],
        ))
        for got, cols in ((first, inv[:, :m]), (last, inv[:, -m:])):
            want = cols @ W[-1] if entry == "stack" else cols @ W
            got = got[-1] if entry == "stack" else got
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_block_column_times_a_right_hand_side(self, entry, dtype):
        """``block_column(j, rhs)`` solves a RHS supported on block j
        alone: dense oracle, and the generic ``solve`` on the same RHS
        zero-padded to every block."""
        self._rhs_column_against_solve_and_dense(entry, dtype, True)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_block_column_rhs_with_hermitian_default(self, entry, dtype):
        """The same with ``lower=None`` (``A_{i+1,i} = upper[i]^+``)."""
        self._rhs_column_against_solve_and_dense(entry, dtype, False)

    @staticmethod
    def _rhs_column_against_solve_and_dense(entry, dtype, lower_given):
        (diag, upper, lower), dense = entry_systems(entry)
        if not lower_given:
            lower = None
            dense = [
                to_dense(
                    [d if entry == "2d" else d[b] for d in diag], upper,
                    [u.conj().T for u in upper],
                )
                for b in range(len(dense))
            ]
        lu = BlockTridiagLU(diag, upper, lower)
        lead = () if entry == "2d" else (len(dense),)
        off = np.concatenate([[0], np.cumsum(RAGGED)])
        rng = np.random.default_rng(37)
        for j, m in enumerate(RAGGED):
            rhs = (
                rng.normal(size=lead + (m, 2))
                + 1j * rng.normal(size=lead + (m, 2))
            )
            x = lu.block_column(j, rhs)
            assert x.shape == lead + (sum(RAGGED), 2)
            assert x.dtype == np.complex128
            padded = [np.zeros(lead + (s, 2), dtype=complex) for s in RAGGED]
            padded[j] = rhs
            np.testing.assert_allclose(
                x, np.concatenate(lu.solve(padded), axis=-2),
                atol=oracle_atol(dtype),
            )
            for b, A in enumerate(dense):
                want = np.linalg.inv(A)[:, off[j] : off[j + 1]] @ (
                    rhs if entry == "2d" else rhs[b]
                )
                np.testing.assert_allclose(
                    x if entry == "2d" else x[b], want,
                    atol=oracle_atol(dtype),
                )

    def test_stack_charges_batch_size_times_the_ragged_count(self):
        def charged(system, **kwargs):
            tracer = Tracer()
            with use_tracer(tracer):
                lu = BlockTridiagLU(*system, **kwargs)
                lu.solve([np.ones(lu._batch + (m, 2)) for m in RAGGED])
                lu.solve_block_column(1)
                lu.diagonal_of_inverse()
            return dict(tracer.counter.counts)

        one = charged(entry_systems("2d")[0])
        stack = charged(entry_systems("stack", n_batch=5)[0])
        assert set(one) == {
            "block_lu.factor", "block_lu.solve", "block_lu.column",
            "block_lu.diagonal",
        }
        assert stack == {k: 5 * v for k, v in one.items()}
        assert charged(entry_systems("stack")[0], instrument=False) == {}

    def test_single_precision_input_is_factored_in_complex128(self):
        """There is no reduced-precision factorisation: complex64 blocks
        are widened on entry and give the complex128 answer, bit for bit."""
        (diag, upper, lower), _ = entry_systems("stack")
        narrow = [[b.astype(np.complex64) for b in blocks]
                  for blocks in (diag, upper, lower)]
        want = BlockTridiagLU(*[[b.astype(complex) for b in blocks]
                                for blocks in narrow])
        got = BlockTridiagLU(*narrow)
        for a, b in zip(got.diagonal_of_inverse(), want.diagonal_of_inverse()):
            assert a.dtype == np.complex128
            assert np.array_equal(a, b)
        assert np.array_equal(got.block_column(1), want.block_column(1))

    def test_rejects_non_square_or_deeper_stacks(self):
        with pytest.raises(ValueError, match="stacks"):
            BlockTridiagLU([np.ones((2, 2, 3, 3))], [])
        with pytest.raises(ValueError, match="stacks"):
            BlockTridiagLU([np.ones((2, 3))], [])


class TestPartitionDomains:
    def test_basic(self):
        ranges = partition_domains(7, 2)
        assert ranges == [(0, 2), (4, 6)]

    def test_separator_slabs_excluded(self):
        ranges = partition_domains(11, 3)
        covered = set()
        for a, b in ranges:
            covered.update(range(a, b + 1))
        seps = {r[1] + 1 for r in ranges[:-1]}
        assert covered | seps == set(range(11))
        assert covered & seps == set()

    def test_single_domain(self):
        assert partition_domains(5, 1) == [(0, 4)]

    def test_too_many_domains(self):
        with pytest.raises(ValueError):
            partition_domains(4, 3)

    def test_zero_domains(self):
        with pytest.raises(ValueError):
            partition_domains(4, 0)


class TestSplitSolve:
    @pytest.mark.parametrize("n,m,p", [(7, 2, 2), (11, 3, 3), (9, 2, 4), (5, 1, 2)])
    def test_matches_monolithic(self, n, m, p):
        diag, upper, lower = random_btd(n, m, seed=n + m + p)
        A = to_dense(diag, upper, lower)
        rng = np.random.default_rng(0)
        b = rng.normal(size=(A.shape[0], 3)) + 1j * rng.normal(size=(A.shape[0], 3))
        ss = SplitSolve(diag, upper, lower, n_domains=p)
        xb = ss.solve([b[m * i : m * (i + 1)] for i in range(n)])
        np.testing.assert_allclose(np.vstack(xb), np.linalg.solve(A, b), atol=1e-8)

    def test_single_domain_degenerates(self):
        diag, upper, lower = random_btd(5, 2, seed=9)
        ss = SplitSolve(diag, upper, lower, n_domains=1)
        lu = BlockTridiagLU(diag, upper, lower)
        rhs = [np.ones((2, 1), dtype=complex)] * 5
        np.testing.assert_allclose(
            np.vstack(ss.solve(rhs)), np.vstack(lu.solve(rhs)), atol=1e-10
        )

    def test_hermitian_coupling_default(self):
        diag, upper, _ = random_btd(7, 2, seed=21)
        ss = SplitSolve(diag, upper, n_domains=2)
        A = to_dense(diag, upper, [u.conj().T for u in upper])
        b = np.ones(A.shape[0], dtype=complex)
        x = np.concatenate(ss.solve([b[2 * i : 2 * (i + 1)] for i in range(7)]))
        np.testing.assert_allclose(A @ x, b, atol=1e-8)

    def test_rhs_count_check(self):
        diag, upper, lower = random_btd(5, 2)
        ss = SplitSolve(diag, upper, lower, n_domains=2)
        with pytest.raises(ValueError):
            ss.solve([np.zeros(2)] * 4)

    @given(
        seed=st.integers(0, 100),
        n=st.integers(5, 14),
        p=st.integers(1, 4),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_agreement(self, seed, n, p):
        if n < 2 * p - 1:
            return
        m = 2
        diag, upper, lower = random_btd(n, m, seed=seed)
        A = to_dense(diag, upper, lower)
        rng = np.random.default_rng(seed)
        b = rng.normal(size=A.shape[0]) + 0j
        ss = SplitSolve(diag, upper, lower, n_domains=p)
        x = np.concatenate(
            [np.atleast_1d(v) for v in ss.solve([b[m * i : m * (i + 1)] for i in range(n)])]
        )
        np.testing.assert_allclose(A @ x, b, atol=1e-7)


class TestBanded:
    def test_bandwidth(self):
        assert bandwidth_of_blocks([3, 3, 3]) == 5
        assert bandwidth_of_blocks([4]) == 3
        assert bandwidth_of_blocks([2, 5, 2]) == 6

    def test_banded_matches_dense(self):
        diag, upper, lower = random_btd(6, 3, seed=31)
        A = to_dense(diag, upper, lower)
        lu = BandedLU(diag, upper, lower)
        rng = np.random.default_rng(1)
        b = rng.normal(size=(A.shape[0], 4)) + 0j
        np.testing.assert_allclose(lu.solve(b), np.linalg.solve(A, b), atol=1e-9)

    def test_banded_shape_check(self):
        diag, upper, lower = random_btd(3, 2)
        lu = BandedLU(diag, upper, lower)
        with pytest.raises(ValueError):
            lu.solve(np.zeros(5))

    def test_sparse_lu_matches(self):
        import scipy.sparse as sp

        diag, upper, lower = random_btd(6, 3, seed=41)
        A = to_dense(diag, upper, lower)
        slu = SparseLU(sp.csr_matrix(A))
        rng = np.random.default_rng(2)
        b = rng.normal(size=A.shape[0]) + 0j
        np.testing.assert_allclose(slu.solve(b), np.linalg.solve(A, b), atol=1e-9)
        assert slu.fill_nnz > 0

    def test_sparse_lu_shape_check(self):
        import scipy.sparse as sp

        slu = SparseLU(sp.eye(4, format="csr", dtype=complex))
        with pytest.raises(ValueError):
            slu.solve(np.zeros(3))


class TestBandedPackingRegression:
    def _roundtrip(self, sizes, seed=0):
        rng = np.random.default_rng(seed)

        def blk(r, c):
            return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))

        diag = [blk(s, s) + 3.0 * np.eye(s) for s in sizes]
        upper = [blk(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]
        lower = [blk(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        ab, kl = blocks_to_banded(diag, upper, lower)
        dense = to_dense(diag, upper, lower)
        n = dense.shape[0]
        rebuilt = np.zeros_like(dense)
        for i in range(n):
            for j in range(max(0, i - kl), min(n, i + kl + 1)):
                rebuilt[i, j] = ab[kl + i - j, j]
        np.testing.assert_array_equal(rebuilt, dense)

    @pytest.mark.parametrize("sizes", [
        [1], [3], [1, 1, 1], [2, 3], [3, 2], [1, 3, 2], [4, 1, 4], [2, 2, 2],
    ], ids=str)
    def test_shape_edges_roundtrip(self, sizes):
        """Ragged, single-block and one-orbital packings must be exact."""
        self._roundtrip(sizes)

    def test_hermitian_default_lower(self):
        rng = np.random.default_rng(1)
        diag = [np.eye(2) * 3.0, np.eye(3) * 4.0]
        upper = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))]
        ab, kl = blocks_to_banded(diag, upper)
        dense = to_dense(diag, upper, [upper[0].conj().T])
        n = dense.shape[0]
        for i in range(n):
            for j in range(max(0, i - kl), min(n, i + kl + 1)):
                assert ab[kl + i - j, j] == dense[i, j]
