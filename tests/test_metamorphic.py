"""End-to-end metamorphic properties of the (k, E) driver.

Relations between *two whole solves* that no per-point invariant monitor
can express and that any refactor of the bias loop, the adaptive waves or
the distributed rank must preserve:

* **rigid shift** — moving the potential and the contact levels by the
  same energy moves the integration window and changes no observable;
* **mirror + shift** — under this code's source-referenced bias
  convention (``mu_D = mu_S - V``) the textbook ``I(-V) = -I(V)`` is
  false; what holds is ``I(-V; U∘mirror + V) = -I(V; U)``: mirror the
  potential, swap the sign of the bias and lift everything by ``V`` so
  the old drain level becomes the new source reference;
* **rank count** — a distributed solve on one rank is the local solve
  bit for bit, on n ranks it differs by reduction order only, and a
  requeued dead rank changes nothing.

Deliberately absent: "halving ``adaptive_tol`` never increases
|I - I_oracle|" is *not* a property of this refiner (measured false on
the benchmark chain; see ROADMAP item 3).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    DeviceSpec,
    DistributedTransport,
    TransportCalculation,
    build_device,
)
from repro.parallel import SerialComm
from repro.resilience import FaultInjector, ResilienceReport

V_DRAIN = 0.1
SHIFT_EV = 0.37

MODES = [
    pytest.param({"energy_mode": "uniform"}, id="uniform"),
    pytest.param(
        {"energy_mode": "adaptive", "adaptive_tol": 0.05}, id="adaptive"
    ),
]


def barrier(built):
    """Mirror-symmetric 0.15 eV barrier plus an off-centre 0.04 eV step,
    so the mirrored potential is a different array."""
    slab = built.device.slab_of_atom()
    pot = np.zeros(built.n_atoms)
    pot[(slab >= 4) & (slab <= 5)] = 0.15
    pot[slab == 6] += 0.04
    return pot


def mirror_permutation(built):
    """``perm[i]`` = the atom at the x-mirror image of atom ``i``."""
    pos = built.device.structure.positions
    image = pos.copy()
    image[:, 0] = pos[:, 0].min() + pos[:, 0].max() - pos[:, 0]
    dist = np.linalg.norm(image[:, None, :] - pos[None, :, :], axis=2)
    perm = dist.argmin(axis=1)
    assert dist[np.arange(len(perm)), perm].max() < 1e-9
    assert sorted(perm) == list(range(len(perm)))
    return perm


def calculation(built, method, mode):
    return TransportCalculation(built, method=method, n_energy=21, **mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("method", ["rgf", "wf"])
class TestLocalSolve:
    def test_rigid_shift_changes_nothing(self, built, method, mode):
        pot = barrier(built)
        base = calculation(built, method, mode).solve_bias(pot, V_DRAIN)
        lifted = dataclasses.replace(
            built, band_edge=built.band_edge + SHIFT_EV
        )
        moved = calculation(lifted, method, mode).solve_bias(
            pot + SHIFT_EV, V_DRAIN
        )
        assert abs(base.current_a) > 0.0
        assert moved.current_a == pytest.approx(base.current_a, rel=1e-12)
        np.testing.assert_allclose(
            moved.density_per_atom, base.density_per_atom,
            rtol=1e-12, atol=1e-18,
        )
        np.testing.assert_allclose(
            moved.transmission, base.transmission, rtol=0.0, atol=1e-10
        )
        np.testing.assert_allclose(
            moved.energy_grid.energies,
            base.energy_grid.energies + SHIFT_EV,
            rtol=0.0, atol=1e-14,
        )

    def test_mirror_plus_shift_reverses_the_current(
        self, built, method, mode
    ):
        pot = barrier(built)
        perm = mirror_permutation(built)
        assert not np.array_equal(pot[perm], pot)
        tc = calculation(built, method, mode)
        forward = tc.solve_bias(pot, V_DRAIN)
        backward = tc.solve_bias(pot[perm] + V_DRAIN, -V_DRAIN)
        assert forward.current_a > 0.0
        assert backward.current_a == pytest.approx(
            -forward.current_a, rel=1e-11
        )
        # the density rides along: mirrored atom for atom
        np.testing.assert_allclose(
            backward.density_per_atom[perm], forward.density_per_atom,
            rtol=1e-11, atol=1e-18,
        )
        # the bare sign flip is NOT a symmetry of a source-referenced bias
        naive = tc.solve_bias(pot[perm], -V_DRAIN)
        assert abs(naive.current_a + forward.current_a) > 1e-3 * abs(
            forward.current_a
        )


def utb_device():
    """A four-k-point UTB slab: the rank reduction also runs over k."""
    return build_device(DeviceSpec(
        geometry="utb-zb", material="Si-sp3s*", n_x=4, n_z=1,
        source_cells=1, drain_cells=1, gate_cells=(1, 2),
        donor_density_nm3=0.05,
    ))


@pytest.fixture(scope="module", params=["rgf", "wf", "wf-4k"])
def rank_case(request, built):
    """(potential, uniform-grid calculation, its local solve)."""
    if request.param == "wf-4k":
        device, method, n_energy = utb_device(), "wf", 9
        pot = np.zeros(device.n_atoms)
    else:
        device, method, n_energy = built, request.param, 21
        pot = barrier(built)
    tc = TransportCalculation(
        device, method=method, n_energy=n_energy, energy_mode="uniform"
    )
    return pot, tc, tc.solve_bias(pot, V_DRAIN)


class TestRankCount:
    def test_one_rank_is_the_local_solve(self, rank_case):
        pot, tc, local = rank_case
        out = DistributedTransport(tc).solve_bias(
            pot, V_DRAIN, SerialComm(), n_ranks=1
        )
        assert out["current_a"] == local.current_a
        np.testing.assert_array_equal(
            out["density_per_atom"], local.density_per_atom
        )
        assert out["n_tasks_total"] == local.transmission.size

    @pytest.mark.parametrize("n_ranks", [2, 4, 7])
    def test_n_ranks_differ_by_reduction_order_only(self, rank_case, n_ranks):
        pot, tc, local = rank_case
        out = DistributedTransport(tc).solve_bias(
            pot, V_DRAIN, SerialComm(), n_ranks=n_ranks
        )
        assert out["current_a"] == pytest.approx(local.current_a, rel=1e-13)
        np.testing.assert_allclose(
            out["density_per_atom"], local.density_per_atom,
            rtol=1e-13, atol=0.0,
        )

    @pytest.mark.parametrize("dead", [0, 3])
    def test_requeued_rank_changes_nothing(self, rank_case, dead):
        pot, tc, _ = rank_case
        dist = DistributedTransport(tc)
        clean = dist.solve_bias(pot, V_DRAIN, SerialComm(), n_ranks=4)
        report = ResilienceReport()
        healed = dist.solve_bias(
            pot, V_DRAIN, SerialComm(), n_ranks=4, report=report,
            injector=FaultInjector(plan={("rank", dead): "dead_rank"}),
        )
        assert healed["current_a"] == clean["current_a"]
        np.testing.assert_array_equal(
            healed["density_per_atom"], clean["density_per_atom"]
        )
        assert healed["n_tasks_total"] == clean["n_tasks_total"]
        assert report.fallbacks == {"rank:requeue": 1}
