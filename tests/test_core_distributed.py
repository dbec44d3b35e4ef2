"""Tests for the distributed (SPMD) transport driver."""

import numpy as np
import pytest

from repro.core import (
    DeviceSpec,
    DistributedTransport,
    TransportCalculation,
    build_device,
)
from repro.parallel import SerialComm, TracedComm


@pytest.fixture(scope="module")
def system():
    spec = DeviceSpec(
        n_x=10, n_y=2, n_z=2, spacing_nm=0.25, source_cells=3,
        drain_cells=3, gate_cells=(4, 6), donor_density_nm3=0.05,
        material_params={"m_rel": 0.3},
    )
    built = build_device(spec)
    # the SPMD driver tiles a fixed uniform grid across ranks, so its
    # serial reference must not adaptively refine ($REPRO_ADAPTIVE)
    tc = TransportCalculation(
        built, method="wf", n_energy=21, energy_mode="uniform",
    )
    return built, tc


class TestDistributedTransport:
    @pytest.mark.parametrize("n_ranks", [1, 3, 4, 21, 40])
    def test_matches_serial(self, system, n_ranks):
        """SPMD invariant: reduced partials == serial observables."""
        built, tc = system
        pot = np.zeros(built.n_atoms)
        serial = tc.solve_bias(pot, 0.1)
        dist = DistributedTransport(tc)
        out = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=n_ranks)
        assert out["current_a"] == pytest.approx(serial.current_a, rel=1e-10)
        np.testing.assert_allclose(
            out["density_per_atom"], serial.density_per_atom,
            rtol=1e-10, atol=1e-14,
        )

    def test_task_coverage(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        out = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=5)
        n_k = len(built.momentum_grid)
        n_e = len(out["energy_grid"])
        assert out["n_tasks_total"] == n_k * n_e

    def test_rank_partials_disjoint_and_complete(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        decomp, grid = dist.decomposition(4, 0.1, pot)
        partials = [
            dist.rank_partial(r, decomp, grid, pot, 0.1)
            for r in range(decomp.n_ranks)
        ]
        total_tasks = sum(p.n_tasks for p in partials)
        assert total_tasks == len(grid) * len(built.momentum_grid)
        # partial currents are additive to the serial value
        serial = tc.solve_bias(pot, 0.1)
        assert sum(p.current_a for p in partials) == pytest.approx(
            serial.current_a, rel=1e-10
        )
        np.testing.assert_allclose(
            np.sum([p.density_per_atom for p in partials], axis=0),
            serial.density_per_atom, rtol=1e-13, atol=0,
        )

    def test_with_potential_barrier(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        slab = built.device.slab_of_atom()
        pot[(slab >= 4) & (slab <= 6)] = 0.2
        serial = tc.solve_bias(pot, 0.15)
        dist = DistributedTransport(tc)
        out = dist.solve_bias(pot, 0.15, SerialComm(), n_ranks=7)
        assert out["current_a"] == pytest.approx(serial.current_a, rel=1e-10)

    def test_traced_comm_usable(self, system):
        """TracedComm with size 1 behaves like SerialComm for the driver."""
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        comm = TracedComm(size=1)
        out = dist.solve_bias(pot, 0.1, comm, n_ranks=3)
        serial = tc.solve_bias(pot, 0.1)
        assert out["current_a"] == pytest.approx(serial.current_a, rel=1e-10)

    def test_decomposition_respects_work_sizes(self, system):
        built, tc = system
        pot = np.zeros(built.n_atoms)
        dist = DistributedTransport(tc)
        decomp, grid = dist.decomposition(1000, 0.1, pot)
        assert decomp.groups[1] <= len(built.momentum_grid)
        assert decomp.groups[2] <= len(grid)


class TestSharedReduction:
    """A rank's share goes through the calculation's one quadrature."""

    def test_integrate_on_a_share_is_the_sum_of_its_tasks(self, system):
        """``_integrate`` over a rank's strided share of the common grid
        equals the sum of one-point contributions, each weighted by its
        node's weight of the *common* grid — what makes shares additive."""
        from repro.core.transport import solve_energies
        from repro.negf import carrier_density, landauer_current
        from repro.negf.observables import orbital_to_atom
        from repro.physics.grids import EnergyGrid

        built, tc = system
        pot = np.zeros(built.n_atoms)
        slab = built.device.slab_of_atom()
        pot[(slab >= 4) & (slab <= 6)] = 0.2
        grid = tc.energy_grid(pot, 0.1)
        mu_s = built.contact_mu("source")
        mu_d = built.contact_mu("drain", 0.1)
        kT = built.spec.kT
        ies = list(range(1, len(grid), 3))
        solver = tc._make_solver(tc.hamiltonian(pot))
        results = solve_energies(solver, grid.energies[ies].tolist())
        current, density, t, channels = tc._integrate(
            EnergyGrid(grid.energies[ies], grid.weights[ies]),
            results, mu_s, mu_d, kT,
        )
        ref_current = 0.0
        ref_density = np.zeros(built.n_atoms)
        for ie, res in zip(ies, results):
            point = EnergyGrid(grid.energies[[ie]], grid.weights[[ie]])
            ref_current += landauer_current(
                point, [res.transmission], mu_s, mu_d, kT,
                spin_degeneracy=tc.spin_degeneracy,
            )
            ref_density += orbital_to_atom(carrier_density(
                point, res.spectral_left[None, :],
                res.spectral_right[None, :], mu_s, mu_d, kT,
                spin_degeneracy=tc.spin_degeneracy,
            ), built.material.orbitals_per_atom)
        assert ref_current != 0.0
        assert current == pytest.approx(ref_current, rel=1e-13)
        np.testing.assert_allclose(density, ref_density, rtol=1e-13, atol=0)
        assert t.tolist() == [res.transmission for res in results]
        assert channels.tolist() == [res.n_channels_left for res in results]


class TestOneNodeSolver:
    """A rank solves its k-groups through the node solver of the bias
    loop, so the local contracts hold on every kernel and driver backend."""

    @pytest.fixture(
        params=[(m, b) for m in ("wf", "rgf") for b in ("serial", "process")],
        ids=lambda p: "-".join(p),
    )
    def case(self, system, request):
        built, _ = system
        method, backend = request.param
        tc = TransportCalculation(
            built, method=method, n_energy=21, energy_mode="uniform",
        )
        dist = DistributedTransport(tc, backend=backend, workers=2)
        return built, tc, dist

    def test_one_rank_is_the_local_solve(self, case):
        built, tc, dist = case
        pot = np.zeros(built.n_atoms)
        local = tc.solve_bias(pot, 0.1)
        one = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=1)
        assert one["current_a"] == local.current_a
        np.testing.assert_array_equal(
            one["density_per_atom"], local.density_per_atom
        )

    @pytest.mark.parametrize("n_ranks", [1, 3, 8])
    def test_ranks_charge_the_local_flops(self, case, n_ranks):
        """Each rank charges its k-groups' kernel flops into its share;
        the shares' sum is the local solve's ledger, kernel by kernel."""
        built, tc, dist = case
        pot = np.zeros(built.n_atoms)
        local = tc.solve_bias(pot, 0.1)
        out = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=n_ranks)
        assert out["flops"].counts == local.flops.counts
        assert out["flops"].total > 0

    @pytest.mark.parametrize("site,action", [
        ("energy", "raise"), ("energy", "nan"),
        ("hblock", "nan"), ("hblock", "illcond"),
    ])
    def test_transient_fault_heals_to_the_clean_solve(
        self, case, site, action
    ):
        from repro.resilience import FaultInjector

        built, tc, dist = case
        pot = np.zeros(built.n_atoms)
        clean = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
        key = 0 if site == "hblock" else (
            0, float(clean["energy_grid"].energies[5])
        )
        inj = FaultInjector(plan={(site, key): action})
        healed = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=3, injector=inj
        )
        # an hblock drill corrupts k-point 0 on each of the 3 ranks that
        # build it; an energy belongs to one rank
        fired = 3 if site == "hblock" else 1
        assert inj.n_injected == fired
        assert healed["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            healed["density_per_atom"], clean["density_per_atom"]
        )
        assert clean["degradation"].total_events == 0
        assert healed["degradation"].ladder_steps["chunk:per-point"] == fired
        assert healed["degradation"].quarantined_points == []

    def test_hblock_drill_heals_every_node_of_the_k_point(self, case):
        """Every rank holds the injector as its own copy would on a real
        communicator, so a transient ``("hblock", 0)`` drill corrupts
        k-point 0 on each rank that builds it: the ranks heal all 21 nodes,
        as the local solve does, not the first rank's share alone."""
        from repro.resilience import FaultInjector

        built, tc, dist = case
        pot = np.zeros(built.n_atoms)
        plan = {("hblock", 0): "nan"}
        local = TransportCalculation(
            built, method=tc.method, n_energy=21, energy_mode="uniform",
            injector=FaultInjector(plan=plan),
        ).solve_bias(pot, 0.1)
        out = dist.solve_bias(
            pot, 0.1, SerialComm(), n_ranks=3,
            injector=FaultInjector(plan=plan),
        )
        robust = out["degradation"].ladder_steps["per-point:robust"]
        assert robust == local.degradation.ladder_steps["per-point:robust"]
        assert robust == 21
        assert out["current_a"] == pytest.approx(local.current_a, rel=1e-12)

    def test_rank_spans_cover_the_solve_and_count_its_tasks(self, case):
        import time

        from repro.observability import Tracer, use_tracer

        built, tc, dist = case
        pot = np.zeros(built.n_atoms)
        with use_tracer(Tracer()) as t:
            t0 = time.perf_counter()
            out = dist.solve_bias(pot, 0.1, SerialComm(), n_ranks=3)
            wall = time.perf_counter() - t0
        assert t.task_count() == out["n_tasks_total"]
        busy = t.rank_seconds()
        assert sorted(busy) == [0, 1, 2]
        assert sum(busy.values()) >= 0.5 * wall
