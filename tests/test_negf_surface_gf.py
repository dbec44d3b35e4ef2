"""Surface GF and self-energy tests against the analytic chain."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeviceSpec, build_device
from repro.errors import SurfaceGFConvergenceError
from repro.negf import (
    Contacts,
    contact_self_energy,
    contact_self_energy_batch,
    eigen_surface_gf,
    lead_modes,
    sancho_rubio,
    sancho_rubio_batch,
)
from repro.negf.self_energy import broadening, open_channels
from repro.negf.surface_gf import _decimate
from repro.observability import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.perf import sancho_rubio_flops
from repro.tb.chain import chain_band_edges, chain_self_energy, chain_surface_gf


def chain_lead(e0=0.0, t=1.0):
    return np.array([[e0]], dtype=complex), np.array([[-t]], dtype=complex)


class TestSanchoRubio:
    @pytest.mark.parametrize("energy", [-1.5, -0.5, 0.0, 0.7, 1.9])
    def test_chain_in_band(self, energy):
        h00, h01 = chain_lead()
        g, _ = sancho_rubio(energy, h00, h01, side="left", eta=1e-6)
        exact = chain_surface_gf(energy + 1e-6j, 0.0, 1.0)
        assert g[0, 0] == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("energy", [-3.0, 2.5, 5.0])
    def test_chain_outside_band(self, energy):
        h00, h01 = chain_lead()
        g, _ = sancho_rubio(energy, h00, h01, side="left", eta=1e-6)
        exact = chain_surface_gf(energy + 1e-6j, 0.0, 1.0)
        assert g[0, 0] == pytest.approx(exact, rel=1e-3)
        assert abs(g[0, 0].imag) < 1e-6  # no DOS outside the band

    def test_left_right_symmetric_chain(self):
        h00, h01 = chain_lead()
        gl, _ = sancho_rubio(0.3, h00, h01, side="left")
        gr, _ = sancho_rubio(0.3, h00, h01, side="right")
        assert gl[0, 0] == pytest.approx(gr[0, 0], rel=1e-10)

    def test_retarded_sign(self):
        h00, h01 = chain_lead()
        g, _ = sancho_rubio(0.0, h00, h01, eta=1e-9)
        assert g[0, 0].imag < 0

    def test_converges_fast(self):
        h00, h01 = chain_lead()
        _, it = sancho_rubio(0.4, h00, h01, eta=1e-6)
        assert it < 40  # quadratic convergence

    def test_invalid_side(self):
        h00, h01 = chain_lead()
        with pytest.raises(ValueError):
            sancho_rubio(0.0, h00, h01, side="top")

    def test_invalid_eta(self):
        h00, h01 = chain_lead()
        with pytest.raises(ValueError):
            sancho_rubio(0.0, h00, h01, eta=0.0)

    @given(
        energy=st.floats(-1.9, 1.9),
        t=st.floats(0.5, 2.0),
        e0=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_chain_analytic_property(self, energy, t, e0):
        lo, hi = chain_band_edges(e0, t)
        E = e0 + energy * t  # always inside or near the band
        h00 = np.array([[e0]], dtype=complex)
        h01 = np.array([[-t]], dtype=complex)
        g, _ = sancho_rubio(E, h00, h01, eta=1e-6)
        exact = chain_surface_gf(E + 1e-6j, e0, t)
        assert g[0, 0] == pytest.approx(exact, rel=1e-3, abs=1e-6)

    def test_dimer_lead_hermitian_gamma(self):
        # two-site cell with alternating hoppings
        h00 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        h01 = np.array([[0.0, 0.0], [-0.5, 0.0]], dtype=complex)
        g, _ = sancho_rubio(0.2, h00, h01, side="left", eta=1e-8)
        sigma = h01.conj().T @ g @ h01
        gamma = 1j * (sigma - sigma.conj().T)
        np.testing.assert_allclose(gamma, gamma.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(gamma).min() > -1e-10  # PSD


#: in-band, band-edge-adjacent and out-of-band energies of the unit chain
#: (band [-2, 2]) in one stack
MIXED_STACK = np.array([-3.0, -1.999, -1.5, -0.5, 0.0, 0.7, 1.9, 2.001, 2.5, 5.0])


def dimer_lead():
    h00 = np.array([[0.1, -1.0], [-1.0, 0.1]], dtype=complex)
    h01 = np.array([[0.0, 0.0], [-0.6, 0.0]], dtype=complex)
    return h00, h01


def wide_lead(m=6, seed=3):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return (a + a.conj().T) / 2, 0.4 * rng.normal(size=(m, m)) + 0j


@lru_cache(maxsize=None)
def si_wire_lead():
    """Lead cell of the ``nanowire-zb`` Si-sp3s* 1x1 wire: m = 30 and a
    singular coupling (``rank(h01)`` = 5) — the atomistic input."""
    built = build_device(DeviceSpec(
        geometry="nanowire-zb", material="Si-sp3s*", n_x=4, n_y=1, n_z=1,
        source_cells=1, drain_cells=1, gate_cells=(1, 3),
    ))
    H = built.hamiltonian(np.zeros(built.n_atoms))
    return np.array(H.diagonal[0]), np.array(H.upper[0])


#: gap, conduction-band edge and the one- and two-channel range of the wire
SI_WIRE_STACK = np.linspace(2.2, 2.7, 9)


def biased(lead, shift):
    """Left and right blocks of a device whose drain lead floats by
    ``shift`` eV: ``h00_L != h00_R``, so the two decimations differ."""
    h00, h01 = lead()
    return (h00, h01), (h00 + shift * np.eye(h00.shape[0]), h01)


def metrics_of(run):
    """The ``surface_gf.*`` counters and histograms ``run`` records."""
    with use_metrics(MetricsRegistry()) as registry:
        run()
    snap = registry.snapshot().to_dict()
    return {
        kind: {k: v for k, v in snap[kind].items() if k.startswith("surface_gf.")}
        for kind in ("counters", "histograms")
    }


class TestSanchoRubioStack:
    """The decimation every run executes, on stacks that mix in-band
    and out-of-band energies (so the active set really compacts)."""

    def test_chain_analytic(self):
        h00, h01 = chain_lead()
        g, iters = sancho_rubio_batch(MIXED_STACK, h00, h01, eta=1e-6)
        assert g.shape == (MIXED_STACK.size, 1, 1)
        for b, energy in enumerate(MIXED_STACK):
            exact = chain_surface_gf(energy + 1e-6j, 0.0, 1.0)
            assert g[b, 0, 0] == pytest.approx(exact, rel=1e-3)
            if abs(energy) > 2.0 + 1e-2:
                assert abs(g[b, 0, 0].imag) < 1e-6  # no DOS outside the band
        # gapped energies contract at once, band-edge ones crawl: the
        # stack keeps a separate count for each
        assert len(set(iters.tolist())) > 1
        assert iters[0] < iters[1]

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_eigen_dimer(self, side):
        h00, h01 = dimer_lead()
        energies = np.array([-2.5, -1.4, 0.1, 1.1, 3.0])
        g, _ = sancho_rubio_batch(energies, h00, h01, side=side, eta=1e-7)
        for b, energy in enumerate(energies):
            ge = eigen_surface_gf(energy, h00, h01, side=side, eta=1e-7)
            np.testing.assert_allclose(g[b], ge, atol=1e-4)

    @pytest.mark.parametrize(
        "lead", [chain_lead, dimer_lead, wide_lead], ids=["m1", "m2", "m6"]
    )
    @pytest.mark.parametrize("dtype", [None, np.complex64])
    def test_scalar_entry_is_the_stack_of_one(self, lead, dtype):
        """Every energy runs its own iteration sequence whatever shares
        its stack: stack slice == stack of one == scalar entry, bitwise,
        and the flop charge is the per-energy sum."""
        h00, h01 = lead()
        energies = MIXED_STACK if h00.shape[0] < 6 else np.linspace(-2, 2, 7)
        tracer = Tracer()
        with use_tracer(tracer):
            g, iters = sancho_rubio_batch(
                energies, h00, h01, eta=1e-5, dtype=dtype
            )
        m = h00.shape[0]
        assert tracer.counter.counts["surface_gf.sancho"] == sum(
            sancho_rubio_flops(m, int(it)) for it in iters
        )
        for b, energy in enumerate(energies):
            tracer = Tracer()
            with use_tracer(tracer):
                g1, it1 = sancho_rubio(energy, h00, h01, eta=1e-5, dtype=dtype)
            assert isinstance(it1, int) and it1 == iters[b]
            assert g1.dtype == g.dtype
            assert np.array_equal(g1, g[b])
            assert tracer.counter.counts[
                "surface_gf.sancho"
            ] == sancho_rubio_flops(m, it1)

    def test_bad_input_rejected_before_the_empty_return(self):
        h00, h01 = chain_lead()
        for energies in ([], [0.0]):
            with pytest.raises(ValueError, match="side"):
                sancho_rubio_batch(energies, h00, h01, side="top")
            with pytest.raises(ValueError, match="eta"):
                sancho_rubio_batch(energies, h00, h01, eta=0.0)
        g, iters = sancho_rubio_batch([], h00, h01)
        assert g.shape == (0, 1, 1) and iters.shape == (0,)

    @pytest.mark.parametrize("left_shift,max_iter,side", [
        pytest.param(0.0, 3, "left", id="both-slow"),
        pytest.param(100.0, 8, "right", id="right-slow"),
    ])
    def test_stragglers_reported_as_left_then_right_would(
        self, left_shift, max_iter, side
    ):
        """Both leads in one stack fail like one lead after the other:
        the first lead with a straggler names the energy and the side and
        is the only one counted."""
        h00, h01 = chain_lead()
        leads = [(h00 + left_shift, h01, "left"), (h00 + 0.5, h01, "right")]

        def merged():
            _decimate(MIXED_STACK, leads, 1e-6, max_iter=max_iter)

        def sequential():
            for a, b, lead_side in leads:
                sancho_rubio_batch(
                    MIXED_STACK, a, b, side=lead_side, eta=1e-6,
                    max_iter=max_iter,
                )

        def failure_of(run):
            with use_metrics(MetricsRegistry()) as registry:
                with pytest.raises(SurfaceGFConvergenceError) as info:
                    run()
            counted = registry.snapshot().with_prefix(
                "counters", "surface_gf.nonconverged"
            )
            return info.value.energy, str(info.value), counted

        energy, message, counted = failure_of(merged)
        assert (energy, message, counted) == failure_of(sequential)
        assert f"side = {side}" in message
        assert list(counted) == [f"surface_gf.nonconverged{{side={side}}}"]

    def test_iteration_histograms_per_side(self):
        """Ragged convergence: the out-of-band slices of either lead leave
        the merged stack while the other lead's band-edge slices crawl, and
        every slice still books its own count under its own side."""
        leads = [(*lead, side) for lead, side in zip(
            biased(chain_lead, 0.5), ("left", "right")
        )]
        merged = _decimate(MIXED_STACK, leads, 1e-6)
        for (g, iters), (h00, h01, side) in zip(merged, leads):
            g1, iters1 = sancho_rubio_batch(
                MIXED_STACK, h00, h01, side=side, eta=1e-6
            )
            assert np.array_equal(g, g1) and np.array_equal(iters, iters1)
        assert not np.array_equal(merged[0][1], merged[1][1])
        with use_tracer(Tracer()) as tracer:
            _decimate(MIXED_STACK, leads, 1e-6)
        # one charge for the stack = the two per-lead charges
        assert tracer.counter.counts["surface_gf.sancho"] == sum(
            sancho_rubio_flops(1, int(it)) for _, its in merged for it in its
        )
        assert metrics_of(lambda: _decimate(MIXED_STACK, leads, 1e-6)) == (
            metrics_of(lambda: [
                sancho_rubio_batch(MIXED_STACK, a, b, side=side, eta=1e-6)
                for a, b, side in leads
            ])
        )

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_atomistic_lead_satisfies_its_fixed_point(self, side):
        """Si-sp3s* wire, singular ``h01``: the defining equation holds to
        1e-10 relative to the terms that produced it, and Gamma is
        Hermitian PSD."""
        h00, h01 = si_wire_lead()
        assert h00.shape == (30, 30) and np.linalg.matrix_rank(h01) == 5
        eta = 1e-6
        g, iters = sancho_rubio_batch(SI_WIRE_STACK, h00, h01, side=side, eta=eta)
        assert iters.min() < 10 < iters.max()
        c = h01.conj().T if side == "left" else h01
        t1 = ((SI_WIRE_STACK + 1j * eta)[:, None, None] * np.eye(30) - h00) @ g
        t2 = c @ g @ c.conj().T @ g
        scale = max(1.0, np.abs(t1).max(), np.abs(t2).max())
        assert np.abs(t1 - t2 - np.eye(30)).max() / scale <= 1e-10
        gamma = broadening(c @ g @ c.conj().T)
        assert np.array_equal(gamma, gamma.conj().swapaxes(1, 2))
        ev = np.linalg.eigvalsh(gamma)
        assert ev.min() > -1e-12
        # in the gap only a surface state can leak; one or two channels above
        assert set(open_channels(ev)[-4:].tolist()) == {2}


class TestEigenSurfaceGF:
    @pytest.mark.parametrize("energy", [-1.2, 0.0, 0.8, 1.7])
    def test_matches_sancho_chain(self, energy):
        h00, h01 = chain_lead()
        ge = eigen_surface_gf(energy, h00, h01, side="left", eta=1e-6)
        gs, _ = sancho_rubio(energy, h00, h01, side="left", eta=1e-6)
        assert ge[0, 0] == pytest.approx(gs[0, 0], rel=1e-3)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_sancho_dimer(self, side):
        h00 = np.array([[0.1, -1.0], [-1.0, 0.1]], dtype=complex)
        h01 = np.array([[0.0, 0.0], [-0.6, 0.0]], dtype=complex)
        for energy in (-1.4, 0.1, 1.1):
            ge = eigen_surface_gf(energy, h00, h01, side=side, eta=1e-7)
            gs, _ = sancho_rubio(energy, h00, h01, side=side, eta=1e-7)
            np.testing.assert_allclose(ge, gs, atol=1e-4)

    def test_invalid_side(self):
        h00, h01 = chain_lead()
        with pytest.raises(ValueError):
            eigen_surface_gf(0.0, h00, h01, side="up")


class TestLeadModes:
    def test_chain_in_band_one_propagating(self):
        h00, h01 = chain_lead()
        modes = lead_modes(0.5, h00, h01, direction="right")
        assert modes.n_propagating == 1
        assert abs(abs(modes.lambdas[0]) - 1.0) < 1e-6

    def test_chain_outside_band_evanescent(self):
        h00, h01 = chain_lead()
        modes = lead_modes(3.0, h00, h01, direction="right")
        assert modes.n_propagating == 0
        assert abs(modes.lambdas[0]) < 1.0

    def test_chain_bloch_factor(self):
        # E = -2t cos(ka): at E=0, ka = pi/2, lambda = e^{i pi/2} = i.
        h00, h01 = chain_lead(t=1.0)
        modes = lead_modes(0.0, h00, h01, direction="right")
        assert modes.lambdas[0] == pytest.approx(1j, abs=1e-4)

    def test_left_right_mode_count(self):
        h00 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        h01 = np.array([[0.0, 0.0], [-0.6, 0.0]], dtype=complex)
        left = lead_modes(0.2, h00, h01, direction="left")
        right = lead_modes(0.2, h00, h01, direction="right")
        assert left.lambdas.size == 2
        assert right.lambdas.size == 2
        assert left.n_propagating == right.n_propagating

    def test_invalid_direction(self):
        h00, h01 = chain_lead()
        with pytest.raises(ValueError):
            lead_modes(0.0, h00, h01, direction="up")


class TestSelfEnergy:
    @pytest.mark.parametrize("energy", [-1.0, 0.0, 1.2])
    def test_chain_analytic(self, energy):
        h00, h01 = chain_lead()
        se = contact_self_energy(energy, h00, h01, side="left", eta=1e-6)
        exact = chain_self_energy(energy + 1e-6j, 0.0, 1.0)
        assert se.sigma[0, 0] == pytest.approx(exact, rel=1e-3)

    def test_gamma_hermitian_psd(self):
        h00, h01 = chain_lead()
        se = contact_self_energy(0.4, h00, h01, side="left")
        gam = se.gamma
        np.testing.assert_allclose(gam, gam.conj().T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(gam) >= -1e-12)

    def test_open_channels_chain(self):
        h00, h01 = chain_lead()
        se_in = contact_self_energy(0.0, h00, h01, side="left")
        se_out = contact_self_energy(5.0, h00, h01, side="left")
        assert se_in.n_open_channels() == 1
        assert se_out.n_open_channels() == 0

    def test_injection_vectors_reconstruct_gamma(self):
        h00 = np.array([[0.0, -1.0], [-1.0, 0.0]], dtype=complex)
        h01 = np.array([[0.0, 0.0], [-0.9, 0.0]], dtype=complex)
        se = contact_self_energy(0.3, h00, h01, side="left")
        W = se.injection_vectors()
        np.testing.assert_allclose(W @ W.conj().T, se.gamma, atol=1e-10)

    def test_eigen_method_agrees(self):
        h00, h01 = chain_lead()
        s1 = contact_self_energy(0.5, h00, h01, side="right", method="sancho")
        s2 = contact_self_energy(
            0.5, h00, h01, side="right", method="eigen", eta=1e-6
        )
        np.testing.assert_allclose(s1.sigma, s2.sigma, atol=1e-5)

    def test_invalid_method(self):
        h00, h01 = chain_lead()
        with pytest.raises(ValueError):
            contact_self_energy(0.0, h00, h01, method="magic")

    @pytest.mark.parametrize("method,dtype", [
        pytest.param("sancho", None, id="sancho"),
        pytest.param("eigen", None, id="eigen"),
        pytest.param("robust", None, id="robust"),
        pytest.param("sancho", np.complex64, id="complex64"),
    ])
    def test_scalar_entry_is_the_stack_of_one(self, method, dtype):
        h00, h01 = dimer_lead()
        energies = [-2.5, -1.4, 0.1, 1.1]
        kwargs = dict(side="right", method=method, eta=1e-6, dtype=dtype)
        stack = contact_self_energy_batch(energies, h00, h01, **kwargs)
        for energy, se in zip(energies, stack):
            one = contact_self_energy(energy, h00, h01, **kwargs)
            assert one.energy == se.energy == energy
            assert one.sigma.dtype == se.sigma.dtype == (dtype or complex)
            assert np.array_equal(one.sigma, se.sigma)

    @pytest.mark.parametrize("method,dtype", [
        ("sancho", None), ("eigen", None), ("robust", None),
        ("sancho", np.complex64),
    ])
    def test_contacts_hand_the_kernels_the_stack(self, method, dtype):
        """``sigma_stacks`` is the array the per-energy objects are
        slices of, and a slice does not depend on its stack-mates."""
        lead = wide_lead()
        energies = [-2.5, -1.4, 0.1, 1.1]
        contacts = Contacts(
            None, lead_left=lead, lead_right=lead,
            eta=1e-6, method=method, dtype=dtype,
        )
        sigma_l, sigma_r = contacts.sigma_stacks(energies)
        sigs_l, sigs_r = contacts.self_energies(energies)
        assert sigma_l.shape == sigma_r.shape == (4, 6, 6)
        assert sigma_l.dtype == sigma_r.dtype == (dtype or complex)
        assert [s.side for s in sigs_l + sigs_r] == ["left"] * 4 + ["right"] * 4
        assert [s.energy for s in sigs_l] == energies
        assert np.array_equal(sigma_l, np.stack([s.sigma for s in sigs_l]))
        assert np.array_equal(sigma_r, np.stack([s.sigma for s in sigs_r]))
        right = contact_self_energy_batch(
            energies, *lead, side="right", method=method, eta=1e-6,
            dtype=dtype,
        )
        assert np.array_equal(sigma_r, np.stack([s.sigma for s in right]))
        for b in (0, 2):
            alone = contacts.sigma_stacks(energies[b:b + 1])
            assert np.array_equal(alone[0][0], sigma_l[b])
            assert np.array_equal(alone[1][0], sigma_r[b])

    @pytest.mark.parametrize("lead,shift,energies,dtype", [
        pytest.param(wide_lead, 0.3, np.linspace(-2, 2, 7), None, id="biased"),
        pytest.param(chain_lead, 0.5, MIXED_STACK, None, id="ragged"),
        pytest.param(dimer_lead, 0.2, MIXED_STACK, np.complex64, id="complex64"),
        pytest.param(wide_lead, 0.3, np.array([0.1]), None, id="stack-of-one"),
        pytest.param(si_wire_lead, 0.05, SI_WIRE_STACK, None, id="si-sp3s*"),
    ])
    def test_both_leads_share_one_decimation_bit_for_bit(
        self, lead, shift, energies, dtype
    ):
        """``sigma_stacks`` runs the two leads as one 2B stack; every slice
        is the slice its own lead computes alone, under any regrouping."""
        left, right = biased(lead, shift)
        contacts = Contacts(
            None, lead_left=left, lead_right=right, eta=1e-5, dtype=dtype
        )
        sigmas = contacts.sigma_stacks(energies)
        for sigma, blocks, side in zip(sigmas, (left, right), ("left", "right")):
            alone = contact_self_energy_batch(
                energies, *blocks, side=side, eta=1e-5, dtype=dtype
            )
            assert sigma.dtype == (dtype or complex)
            assert np.array_equal(sigma, np.stack([s.sigma for s in alone]))
            # same Gamma, hence the same channel count, on either order
            assert [s.n_open_channels() for s in alone] == open_channels(
                np.linalg.eigvalsh(broadening(sigma))
            ).tolist()
        order = np.random.default_rng(0).permutation(len(energies))
        for group in (order[: len(order) // 2], order[len(order) // 2:]):
            for part, sigma in zip(contacts.sigma_stacks(energies[group]), sigmas):
                assert np.array_equal(part, sigma[group])

    def test_one_stacked_inversion_per_step_plus_the_closing_one(
        self, monkeypatch
    ):
        left, right = biased(chain_lead, 0.5)
        steps = max(
            sancho_rubio_batch(MIXED_STACK, *blocks, side=side)[1].max()
            for blocks, side in ((left, "left"), (right, "right"))
        )
        shapes = []
        for name in ("solve", "inv"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, **kwargs):
                shapes.append(a.shape)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        Contacts(None, lead_left=left, lead_right=right).sigma_stacks(MIXED_STACK)
        assert len(shapes) == steps + 1
        # both leads enter together and the closing inversion is the full stack
        assert shapes[0] == shapes[-1] == (2 * MIXED_STACK.size, 1, 1)

    def test_unequal_lead_cells_do_not_share_a_stack(self):
        left, right = chain_lead(), dimer_lead()
        sigma_l, sigma_r = Contacts(
            None, lead_left=left, lead_right=right
        ).sigma_stacks(MIXED_STACK)
        for sigma, blocks, side in ((sigma_l, left, "left"), (sigma_r, right, "right")):
            alone = contact_self_energy_batch(MIXED_STACK, *blocks, side=side)
            assert np.array_equal(sigma, np.stack([s.sigma for s in alone]))

    def test_invalid_method_in_a_stack(self):
        h00, h01 = chain_lead()
        with pytest.raises(ValueError):
            contact_self_energy_batch([0.0, 0.1], h00, h01, method="magic")
