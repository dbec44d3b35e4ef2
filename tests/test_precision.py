"""Mixed-precision kernel contracts: dtype stability, refinement, conformance.

Locks down the guarantees of the ``precision="mixed"`` execution mode
(ISSUE 10):

* **dtype contracts** (Hypothesis) — an explicit factorisation dtype is
  honoured end-to-end; complex128 inputs are *never* silently downcast
  by the ``dtype=None`` inference; complex64-only inputs infer a
  complex64 factorisation.
* **refinement properties** (Hypothesis) — on well-conditioned random
  systems the fp32 factor + fp64 refinement certifies every slice at
  the backward-error target and matches the dense fp64 solve; on
  ill-conditioned blocks behind a weak (1e-8) coupling the condition
  gate escalates with a typed reason instead of returning garbage.
* **typed escalation** — an injected refinement stall raises
  :class:`repro.errors.PrecisionEscalationError` from the raw solve and
  re-solves bit-identically to pure FP64 through
  ``RGFSolver.solve_escalating``, charging the ``precision.*`` counters
  exactly once.
* **cross-backend conformance** — on the mini FET, mixed-precision
  results are bit-identical across serial / thread / process, within
  declared tolerance of FP64, and the forced FP64 fallback is bit-identical to a pure FP64 run on every backend.
* **banded packing regression** — ``blocks_to_banded`` uses a direct
  index grid (no dense boolean mask); ragged block sizes and the
  single-block / one-orbital shape edges must round-trip against the
  dense assembly exactly.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TransportCalculation
from repro.errors import PrecisionEscalationError
from repro.negf import RGFSolver
from repro.negf.rgf import injection_slivers
from repro.observability import MetricsRegistry, use_metrics
from repro.solvers import (
    PRECISIONS,
    BlockTridiagLU,
    blocks_to_banded,
    precision_from_env,
    refined_sliver_solve,
    resolve_precision,
    split_round,
    upcast_split,
)
from repro.solvers.precision import BETA_TOL
from repro.wf import WFSolver
from tests.conftest import band_energy_grid, make_transport, random_device

HYPO = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# mode resolution
# ---------------------------------------------------------------------------

class TestPrecisionResolution:
    def test_known_modes(self):
        assert PRECISIONS == ("fp64", "mixed", "fp32")
        for p in PRECISIONS:
            assert resolve_precision(p) == p
        assert resolve_precision(None) == "fp64"
        assert resolve_precision("MIXED") == "mixed"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_precision("fp16")

    def test_env_is_consumed_by_transport_not_solvers(self, built, monkeypatch):
        monkeypatch.setenv("REPRO_PRECISION", "mixed")
        assert precision_from_env() == "mixed"
        # the calculation layer reads the environment ...
        assert make_transport(built).precision == "mixed"
        # ... the raw solver never does
        assert RGFSolver(random_device(0)).precision == "fp64"

    def test_env_default_and_invalid(self, monkeypatch):
        monkeypatch.delenv("REPRO_PRECISION", raising=False)
        assert precision_from_env() == "fp64"
        monkeypatch.setenv("REPRO_PRECISION", "double")
        with pytest.raises(ValueError):
            precision_from_env()

    def test_wf_rejects_explicit_non_fp64(self, built):
        with pytest.raises(ValueError):
            WFSolver(random_device(0), precision="mixed")
        with pytest.raises(ValueError):
            make_transport(built, method="wf", precision="mixed")

    def test_wf_ignores_env_preference(self, built, monkeypatch):
        """$REPRO_PRECISION is a preference: WF quietly stays FP64."""
        monkeypatch.setenv("REPRO_PRECISION", "mixed")
        assert make_transport(built, method="wf").precision == "fp64"


# ---------------------------------------------------------------------------
# dtype contracts (Hypothesis)
# ---------------------------------------------------------------------------

def _well_conditioned(seed, batch=None):
    """Diagonally dominant block-tridiagonal system (diag, upper, lower)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))

    def blk(scale=1.0, shift=0.0):
        shape = (m, m) if batch is None else (batch, m, m)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return scale * a + shift * np.eye(m)

    diag = [blk(0.5, 3.0 + i) for i in range(n)]
    upper = [blk(0.4) for _ in range(n - 1)]
    lower = [np.conj(np.swapaxes(u, -2, -1)) for u in upper]
    return diag, upper, lower


def _dense(diag, upper, lower):
    """Assemble the dense matrix of one block-tridiagonal system."""
    sizes = [d.shape[-1] for d in diag]
    off = np.concatenate([[0], np.cumsum(sizes)])
    a = np.zeros((off[-1], off[-1]), dtype=np.complex128)
    for i, d in enumerate(diag):
        a[off[i]:off[i + 1], off[i]:off[i + 1]] = d
    for i, (u, l) in enumerate(zip(upper, lower)):
        a[off[i]:off[i + 1], off[i + 1]:off[i + 2]] = u
        a[off[i + 1]:off[i + 2], off[i]:off[i + 1]] = l
    return a


class TestDtypeContracts:
    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_explicit_dtype_is_honoured(self, seed):
        diag, upper, lower = _well_conditioned(seed)
        for dt in (np.complex64, np.complex128):
            lu = BlockTridiagLU(diag, upper, lower, dtype=dt)
            assert lu.dtype == np.dtype(dt)
            col = lu.solve_block_column(0)
            assert all(b.dtype == np.dtype(dt) for b in col)

    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_no_silent_complex128_downcast(self, seed):
        """complex128 anywhere in the inputs promotes the factorisation."""
        diag, upper, lower = _well_conditioned(seed)
        lu = BlockTridiagLU(diag, upper, lower)
        assert lu.dtype == np.dtype(np.complex128)
        # a single complex64 coupling must NOT drag the factor down
        upper32 = [u.astype(np.complex64) for u in upper]
        mixed = BlockTridiagLU(diag, upper32, lower)
        assert mixed.dtype == np.dtype(np.complex128)

    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_all_single_inputs_infer_complex64(self, seed):
        diag, upper, lower = _well_conditioned(seed)
        lu = BlockTridiagLU(
            [d.astype(np.complex64) for d in diag],
            [u.astype(np.complex64) for u in upper],
            [l.astype(np.complex64) for l in lower],
        )
        assert lu.dtype == np.dtype(np.complex64)

    def test_invalid_dtype_rejected(self):
        diag, upper, lower = _well_conditioned(7)
        with pytest.raises(ValueError):
            BlockTridiagLU(diag, upper, lower, dtype=np.float64)

    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_batched_dtype_matches_scalar(self, seed):
        diag, upper, lower = _well_conditioned(seed, batch=3)
        lu = BlockTridiagLU(diag, upper, lower, dtype=np.complex64)
        assert lu.dtype == np.dtype(np.complex64)
        assert all(d.dtype == np.dtype(np.complex64) for d in lu._dinv)
        lu64 = BlockTridiagLU(diag, upper, lower)
        assert lu64.dtype == np.dtype(np.complex128)

    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_split_round_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        hi, lo = split_round(a)
        assert hi.dtype == lo.dtype == np.dtype(np.complex64)
        back = upcast_split(hi, lo)
        assert back.dtype == np.dtype(np.complex128)
        np.testing.assert_allclose(back, a, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# refinement properties (Hypothesis)
# ---------------------------------------------------------------------------

class TestRefinement:
    @HYPO
    @given(seed=st.integers(0, 10**6), width=st.integers(1, 3))
    def test_refinement_converges_on_healthy_systems(self, seed, width):
        batch = 3
        diag, upper, lower = _well_conditioned(seed, batch=batch)
        m = diag[0].shape[-1]
        rng = np.random.default_rng(seed + 1)
        rhs = rng.normal(size=(batch, m, width)) + 1j * rng.normal(
            size=(batch, m, width)
        )
        diag32 = [d.astype(np.complex64) for d in diag]
        lu32 = BlockTridiagLU(
            diag32,
            [u.astype(np.complex64) for u in upper],
            [l.astype(np.complex64) for l in lower],
            dtype=np.complex64,
        )
        ref = refined_sliver_solve(
            lu32, diag, upper, lower, 0, rhs, diag32=diag32
        )
        assert not ref.escalate.any(), list(ref.reasons)
        assert np.all(ref.beta <= BETA_TOL)
        assert all(x.dtype == np.dtype(np.complex128) for x in ref.x)
        # against the dense fp64 oracle, slice by slice
        for b in range(batch):
            a = _dense(
                [d[b] for d in diag], [u[b] for u in upper],
                [l[b] for l in lower],
            )
            full_rhs = np.zeros((a.shape[0], width), dtype=np.complex128)
            full_rhs[:m] = rhs[b]
            x_ref = np.linalg.solve(a, full_rhs)
            x_got = np.concatenate([x[b] for x in ref.x], axis=0)
            np.testing.assert_allclose(x_got, x_ref, rtol=0, atol=1e-9 * (
                1.0 + np.max(np.abs(x_ref))
            ))

    def test_condition_gate_escalates_ill_conditioned_blocks(self):
        """Near-singular diagonal behind a 1e-8 coupling: cond > COND_MAX.

        The weak coupling matters — a strong Schur coupling genuinely
        regularises an ill-conditioned diagonal block, so this is the
        construction that actually trips the fp32 condition gate.
        """
        m, batch = 3, 2
        bad = np.diag([1.0, 1.0, 1e-9]).astype(np.complex128)
        diag = [
            np.broadcast_to(bad, (batch, m, m)).copy(),
            np.broadcast_to(
                np.eye(m, dtype=np.complex128) * 2.0, (batch, m, m)
            ).copy(),
        ]
        upper = [np.full((m, m), 1e-8, dtype=np.complex128)]
        lower = [upper[0].conj().T]
        diag32 = [d.astype(np.complex64) for d in diag]
        lu32 = BlockTridiagLU(
            diag32, [u.astype(np.complex64) for u in upper],
            [l.astype(np.complex64) for l in lower], dtype=np.complex64,
        )
        rhs = np.ones((batch, m, 1), dtype=np.complex128)
        ref = refined_sliver_solve(
            lu32, diag, upper, lower, 0, rhs, diag32=diag32
        )
        assert ref.escalate.all()
        assert set(ref.reasons) == {"condition"}

    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_take_subset_matches_full_batch_bitwise(self, seed):
        """Grouped-by-width subsetting is the bitwise-invariance keystone."""
        batch = 4
        diag, upper, lower = _well_conditioned(seed, batch=batch)
        m = diag[0].shape[-1]
        rng = np.random.default_rng(seed + 2)
        rhs = rng.normal(size=(batch, m, 2)) + 1j * rng.normal(
            size=(batch, m, 2)
        )
        diag32 = [d.astype(np.complex64) for d in diag]
        lu32 = BlockTridiagLU(
            diag32, [u.astype(np.complex64) for u in upper],
            [l.astype(np.complex64) for l in lower], dtype=np.complex64,
        )
        full = refined_sliver_solve(
            lu32, diag, upper, lower, 0, rhs, diag32=diag32
        )
        take = np.array([1, 3])
        sub = refined_sliver_solve(
            lu32, diag, upper, lower, 0, rhs[take], diag32=diag32, take=take
        )
        for x_full, x_sub in zip(full.x, sub.x):
            np.testing.assert_array_equal(x_full[take], x_sub)
        np.testing.assert_array_equal(full.iterations[take], sub.iterations)
        np.testing.assert_array_equal(full.beta[take], sub.beta)


# ---------------------------------------------------------------------------
# solver-level: slivers, escalation, scalar == batch
# ---------------------------------------------------------------------------

class TestMixedSolver:
    @HYPO
    @given(seed=st.integers(0, 10**6))
    def test_injection_slivers_reconstruct_gamma(self, seed):
        rng = np.random.default_rng(seed)
        batch, m = 3, 5
        w = rng.normal(size=(batch, m, m)) + 1j * rng.normal(
            size=(batch, m, m)
        )
        gamma = w @ np.conj(np.swapaxes(w, -2, -1))
        slivers = injection_slivers(gamma)
        assert len(slivers) == batch
        for b, wl in enumerate(slivers):
            assert wl.ndim == 2 and wl.shape[0] == m
            scale = np.abs(gamma[b]).max()
            np.testing.assert_allclose(
                wl @ wl.conj().T, gamma[b], atol=1e-3 * scale
            )

    def test_injection_slivers_are_ragged(self):
        """Width is a per-slice function of Gamma, never batch-padded."""
        rng = np.random.default_rng(5)
        m = 4
        w_narrow = rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1))
        w_wide = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        gamma = np.stack([
            w_narrow @ w_narrow.conj().T, w_wide @ w_wide.conj().T,
        ])
        widths = [s.shape[1] for s in injection_slivers(gamma)]
        assert widths[0] < widths[1]

    def _solver_case(self, precision=None, refine_faults=None):
        H = random_device(3)
        energies = [float(e) for e in band_energy_grid(H, n_energy=9)]
        return (
            RGFSolver(H, eta=1e-5, precision=precision,
                      refine_faults=refine_faults),
            energies,
        )

    def test_mixed_scalar_equals_batch_bitwise(self):
        solver, energies = self._solver_case(precision="mixed")
        batch = solver.solve_batch(energies)
        for e, rb in zip(energies, batch):
            rs = solver.solve(e)
            assert rs.transmission == rb.transmission
            np.testing.assert_array_equal(rs.dos, rb.dos)
            np.testing.assert_array_equal(rs.spectral_left, rb.spectral_left)
            np.testing.assert_array_equal(rs.spectral_right, rb.spectral_right)

    def test_mixed_chunking_invariance(self):
        solver, energies = self._solver_case(precision="mixed")
        full = solver.solve_batch(energies)
        halves = solver.solve_batch(energies[:4]) + solver.solve_batch(
            energies[4:]
        )
        for a, b in zip(full, halves):
            assert a.transmission == b.transmission
            np.testing.assert_array_equal(a.dos, b.dos)

    def test_mixed_matches_fp64_within_tolerance(self):
        mixed, energies = self._solver_case(precision="mixed")
        fp64, _ = self._solver_case(precision="fp64")
        dos_mx = np.stack([mixed.solve(e).dos for e in energies])
        dos_64 = np.stack([fp64.solve(e).dos for e in energies])
        # per-point T accuracy is set by the W_TOL=1e-4 sliver truncation
        # (the random device's Gamma spectrum is broad, so the dropped
        # evanescent channels carry ~1e-6..1e-4 relative weight); the
        # 1e-8 *integrated-current* contract is proven on the physical
        # mini FET below and in BENCH_precision.json
        for e in energies:
            assert mixed.solve(e).transmission == pytest.approx(
                fp64.solve(e).transmission, abs=1e-8, rel=1e-4
            )
        # dos contract is sweep-scale-relative: the fp32 rounding error
        # scales with |G| ~ the open-channel dos, so closed-channel
        # energies (|dos| ~ 1e-7) carry the same *absolute* noise floor
        scale = max(float(np.max(np.abs(dos_64))), 1e-300)
        np.testing.assert_allclose(
            dos_mx, dos_64, rtol=0, atol=1e-3 * scale
        )

    def test_injected_stall_raises_typed_escalation(self):
        _, energies = self._solver_case()
        e_bad = energies[2]
        solver, _ = self._solver_case(
            precision="mixed", refine_faults=[e_bad]
        )
        with pytest.raises(PrecisionEscalationError) as exc:
            solver.solve(e_bad)
        assert exc.value.injected
        assert exc.value.reason == "stall"
        assert exc.value.energy == pytest.approx(e_bad)

    def test_solve_escalating_is_bitwise_fp64(self):
        _, energies = self._solver_case()
        e_bad = energies[2]
        solver, _ = self._solver_case(
            precision="mixed", refine_faults=[e_bad]
        )
        fp64, _ = self._solver_case(precision="fp64")
        registry = MetricsRegistry()
        with use_metrics(registry):
            res = solver.solve_escalating(e_bad)
        ref = fp64.solve(e_bad)
        assert res.transmission == ref.transmission
        np.testing.assert_array_equal(res.dos, ref.dos)
        np.testing.assert_array_equal(res.spectral_left, ref.spectral_left)
        snap = registry.snapshot()
        assert snap.total("precision.fp64_escalations") == 1.0
        assert snap.total("precision.injected_stalls") == 1.0


# ---------------------------------------------------------------------------
# cross-backend conformance on the mini FET
# ---------------------------------------------------------------------------

BACKEND_MATRIX = [
    ("serial", None),
    ("thread", 2),
    ("process", 2),
]
BACKEND_IDS = ["serial", "thread", "process"]


@pytest.fixture(scope="module")
def mixed_reference(built, reference):
    """Serial mixed-precision solve on the ground-truth grid."""
    pot, grid, _ = reference
    tc = make_transport(built, backend="serial", precision="mixed")
    registry = MetricsRegistry()
    with use_metrics(registry):
        res = tc.solve_bias(pot, 0.05, energy_grid=grid)
    return res, registry.snapshot()


@pytest.fixture(scope="module")
def fp64_reference(built, reference):
    """Pure-FP64 serial ground truth, pinned against $REPRO_PRECISION.

    The session-wide ``reference`` fixture deliberately leaves precision
    unspecified so the whole suite follows the environment (the
    ``precision-mixed`` CI leg).  Tests whose contract is *against pure
    FP64* — tolerance bounds, escalation bit-identity — need this pinned
    solve instead.
    """
    pot, grid, _ = reference
    tc = make_transport(built, backend="serial", precision="fp64")
    return tc.solve_bias(pot, 0.05, energy_grid=grid)


class TestCrossBackendConformance:
    @pytest.mark.parametrize(
        "backend,workers", BACKEND_MATRIX[1:], ids=BACKEND_IDS[1:]
    )
    def test_mixed_bitwise_across_backends(
        self, built, reference, mixed_reference, backend, workers
    ):
        pot, grid, _ = reference
        ref, ref_snap = mixed_reference
        tc = make_transport(
            built, backend=backend, workers=workers, precision="mixed",
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            res = tc.solve_bias(pot, 0.05, energy_grid=grid)
        assert res.current_a == ref.current_a
        np.testing.assert_array_equal(res.transmission, ref.transmission)
        np.testing.assert_array_equal(
            res.density_per_atom, ref.density_per_atom
        )
        # telemetry merge-back: counters exact, not approximately merged
        snap = registry.snapshot()
        for key in ("precision.points_certified",
                    "precision.fp64_escalations",
                    "precision.refine_stalls"):
            assert snap.total(key) == ref_snap.total(key), key

    def test_mixed_within_declared_tolerance_of_fp64(
        self, fp64_reference, mixed_reference
    ):
        ref64 = fp64_reference
        res, _ = mixed_reference
        rel = abs(res.current_a - ref64.current_a) / abs(ref64.current_a)
        assert rel <= 1e-8
        np.testing.assert_allclose(
            res.transmission, ref64.transmission, atol=1e-6, rtol=0
        )
        np.testing.assert_allclose(
            res.density_per_atom, ref64.density_per_atom, rtol=1e-3,
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "backend,workers", BACKEND_MATRIX, ids=BACKEND_IDS
    )
    def test_forced_escalation_is_bitwise_fp64(
        self, built, reference, fp64_reference, backend, workers
    ):
        """FP64 fallback == pure FP64, with exact counters, everywhere."""
        pot, grid, _ = reference
        ref = fp64_reference  # per-point serial FP64 ground truth
        faults = (float(grid.energies[3]), float(grid.energies[8]))
        tc = make_transport(
            built, backend=backend, workers=workers,
            precision="mixed", refine_faults=faults,
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            res = tc.solve_bias(pot, 0.05, energy_grid=grid)
        for i in (3, 8):
            np.testing.assert_array_equal(
                ref.transmission[:, i], res.transmission[:, i]
            )
        snap = registry.snapshot()
        assert snap.total("precision.fp64_escalations") == len(faults)
        assert snap.total("precision.injected_stalls") == len(faults)


# ---------------------------------------------------------------------------
# banded packing regression (ISSUE 10 satellite)
# ---------------------------------------------------------------------------

class TestBandedPackingRegression:
    def _roundtrip(self, sizes, seed=0):
        rng = np.random.default_rng(seed)

        def blk(r, c):
            return rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))

        diag = [blk(s, s) + 3.0 * np.eye(s) for s in sizes]
        upper = [blk(sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)]
        lower = [blk(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]
        ab, kl = blocks_to_banded(diag, upper, lower)
        dense = _dense(diag, upper, lower)
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
        dense = _dense(diag, upper, [upper[0].conj().T])
        n = dense.shape[0]
        for i in range(n):
            for j in range(max(0, i - kl), min(n, i + kl + 1)):
                assert ab[kl + i - j, j] == dense[i, j]
