"""Tests for communicators, decomposition and scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (
    CommTrace,
    Decomposition,
    SerialComm,
    TracedComm,
    choose_level_sizes,
    greedy_balance,
    makespan,
    payload_nbytes,
    run_tasks,
    static_blocks,
)


class TestSerialComm:
    def test_rank_size(self):
        c = SerialComm()
        assert c.Get_rank() == 0
        assert c.Get_size() == 1

    def test_collectives_identity(self):
        c = SerialComm()
        x = np.arange(5)
        assert c.bcast(x) is x
        assert c.gather(x) == [x]
        assert c.allgather(x) == [x]
        assert c.allreduce(3.0) == 3.0
        assert c.scatter([x]) is x
        c.barrier()

    def test_scatter_wrong_length(self):
        with pytest.raises(ValueError):
            SerialComm().scatter([1, 2])

    def test_split(self):
        assert SerialComm().Split(0).Get_size() == 1


class TestTracedComm:
    def test_trace_records_bytes(self):
        c = TracedComm(size=8)
        x = np.zeros(100, dtype=complex)  # 1600 bytes
        c.bcast(x)
        assert c.trace.count("bcast") == 1
        assert c.trace.total_bytes() == 1600

    def test_allreduce_sum_models_p_ranks(self):
        c = TracedComm(size=4)
        assert c.allreduce(2.0) == 8.0
        np.testing.assert_allclose(
            c.allreduce(np.array([1.0, 1.0])), [4.0, 4.0]
        )

    def test_allreduce_max(self):
        c = TracedComm(size=4)
        assert c.allreduce(5.0, op="max") == 5.0

    def test_allreduce_bad_op(self):
        with pytest.raises(ValueError):
            TracedComm(size=2).allreduce(1.0, op="prod")

    def test_scatter_length_check(self):
        c = TracedComm(size=3)
        with pytest.raises(ValueError):
            c.scatter([1, 2])
        assert c.scatter([10, 20, 30]) == 10

    def test_split_shares_trace(self):
        c = TracedComm(size=8)
        sub = c.split_sized(4, 1)
        sub.bcast(np.zeros(10))
        assert c.trace.count("bcast") == 1
        assert sub.Get_rank() == 1

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            TracedComm(size=0)
        with pytest.raises(ValueError):
            TracedComm(size=2, rank=2)

    def test_gather_returns_on_root_only(self):
        c0 = TracedComm(size=3, rank=0)
        c1 = TracedComm(size=3, rank=1)
        assert c0.gather("x") == ["x"] * 3
        assert c1.gather("x") is None


class TestCommTrace:
    def test_per_op_count_filtering(self):
        c = TracedComm(size=4)
        c.bcast(np.zeros(10))
        c.allreduce(1.0)
        c.allreduce(2.0)
        c.barrier()
        assert c.trace.count("bcast") == 1
        assert c.trace.count("allreduce") == 2
        assert c.trace.count() == 4
        assert c.trace.count("alltoall") == 0

    def test_split_propagates_parent_trace_and_level(self):
        c = TracedComm(size=8, level="energy")
        sub = c.Split(color=2, key=1)
        sub.bcast(np.zeros(10, dtype=complex))
        # the subcommunicator records into the parent's trace
        assert c.trace is sub.trace
        assert c.trace.count("bcast", level="energy") == 1

    def test_split_sized_level_override(self):
        c = TracedComm(size=8, level="bias")
        sub = c.split_sized(4, 1, level="momentum")
        inherited = c.split_sized(2)
        sub.allreduce(1.0)
        inherited.allreduce(1.0)
        assert c.trace.count("allreduce", level="momentum") == 1
        assert c.trace.count("allreduce", level="bias") == 1
        assert c.trace.count("allreduce") == 2

    def test_by_level_and_by_op_aggregates(self):
        t = CommTrace()
        t.record("bcast", 100, 4, level="bias")
        t.record("allreduce", 50, 2, level="energy")
        t.record("allreduce", 50, 2, level="energy")
        by_level = t.by_level()
        assert by_level["bias"] == {"bytes": 100, "messages": 1}
        assert by_level["energy"] == {"bytes": 100, "messages": 2}
        assert t.by_op(level="energy") == {
            "allreduce": {"bytes": 100, "messages": 2}
        }
        assert t.total_bytes(level="energy") == 100
        assert t.total_bytes() == 200


class TestPayloadNbytes:
    def test_ndarray_exact(self):
        assert payload_nbytes(np.zeros(100, dtype=complex)) == 1600

    def test_recursive_containers(self):
        a = np.zeros(10)  # 80 bytes
        b = np.zeros(5, dtype=complex)  # 80 bytes
        nested = [a, (b, {"k": a})]
        flat = payload_nbytes(a) + payload_nbytes(b) + payload_nbytes(a)
        assert payload_nbytes(nested) > flat  # container overhead counted
        assert payload_nbytes(nested) >= 240

    def test_scalars_positive(self):
        for obj in (1, 1.5, 2 + 3j, True, np.float64(2.0)):
            assert payload_nbytes(obj) >= 1

    def test_dict_counts_keys_and_values(self):
        d = {"density": np.zeros(10), "current": 1.0}
        assert payload_nbytes(d) > payload_nbytes(np.zeros(10))


class TestChooseLevelSizes:
    def test_outer_levels_first(self):
        g = choose_level_sizes(8, n_bias=4, n_k=2, n_energy=100)
        assert g[0] == 4
        assert g[1] == 2
        assert g[3] == 1

    def test_product_bounded_by_ranks(self):
        for p in (1, 7, 64, 1000, 221130):
            g = choose_level_sizes(p, 15, 21, 702)
            assert int(np.prod(g)) <= p

    def test_exact_fit_saturates(self):
        g = choose_level_sizes(15 * 21 * 702, 15, 21, 702)
        assert g == (15, 21, 702, 1)

    def test_spatial_engages_when_outer_saturated(self):
        g = choose_level_sizes(64, n_bias=1, n_k=1, n_energy=4, max_spatial=16)
        assert g[2] == 4
        assert g[3] > 1

    def test_spatial_cap(self):
        g = choose_level_sizes(10_000, 1, 1, 1, max_spatial=8)
        assert g[3] <= 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            choose_level_sizes(0, 1, 1, 1)
        with pytest.raises(ValueError):
            choose_level_sizes(4, 0, 1, 1)

    @given(
        p=st.integers(1, 5000),
        nb=st.integers(1, 10),
        nk=st.integers(1, 10),
        ne=st.integers(1, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds_property(self, p, nb, nk, ne):
        g_b, g_k, g_e, g_s = choose_level_sizes(p, nb, nk, ne)
        assert 1 <= g_b <= nb
        assert 1 <= g_k <= nk
        assert 1 <= g_e <= ne
        assert g_b * g_k * g_e * g_s <= p


class TestDecomposition:
    def test_rank_coordinates_roundtrip(self):
        d = Decomposition(n_bias=2, n_k=3, n_energy=5, groups=(2, 3, 5, 2))
        coords = set()
        for r in range(d.n_ranks):
            coords.add(d.rank_coordinates(r))
        assert len(coords) == d.n_ranks

    def test_coverage_exact(self):
        for groups in [(1, 1, 1, 1), (2, 1, 3, 1), (2, 3, 5, 2)]:
            d = Decomposition(n_bias=4, n_k=3, n_energy=10, groups=groups)
            assert d.coverage_is_exact()

    def test_task_counts_balanced(self):
        d = Decomposition(n_bias=4, n_k=1, n_energy=16, groups=(2, 1, 4, 1))
        counts = [len(d.tasks_of_rank(r)) for r in range(d.n_ranks)]
        assert max(counts) - min(counts) == 0
        assert sum(counts) == 4 * 16

    def test_efficiency_perfect_fit(self):
        d = Decomposition(n_bias=4, n_k=2, n_energy=8, groups=(4, 2, 8, 1))
        assert d.efficiency() == pytest.approx(1.0)

    def test_efficiency_with_remainder(self):
        d = Decomposition(n_bias=1, n_k=1, n_energy=5, groups=(1, 1, 4, 1))
        # 5 tasks on 4 workers: makespan 2, efficiency 5/8
        assert d.efficiency() == pytest.approx(5 / 8)

    def test_rank_out_of_range(self):
        d = Decomposition(n_bias=1, n_k=1, n_energy=4, groups=(1, 1, 2, 1))
        with pytest.raises(IndexError):
            d.rank_coordinates(2)

    def test_spatial_peers_share_tasks(self):
        d = Decomposition(n_bias=1, n_k=1, n_energy=6, groups=(1, 1, 3, 2))
        t0 = d.tasks_of_rank(0)
        t1 = d.tasks_of_rank(1)  # spatial peer of rank 0
        assert [
            (t.bias_index, t.k_index, t.energy_index) for t in t0
        ] == [(t.bias_index, t.k_index, t.energy_index) for t in t1]

    def test_bad_groups(self):
        with pytest.raises(ValueError):
            Decomposition(1, 1, 1, groups=(1, 1, 1))


class TestScheduling:
    def test_static_blocks_cover_all(self):
        a = static_blocks([1.0] * 10, 3)
        flat = [t for w in a for t in w]
        assert sorted(flat) == list(range(10))

    def test_greedy_beats_static_on_skewed_costs(self):
        rng = np.random.default_rng(0)
        costs = np.concatenate([np.full(8, 10.0), rng.uniform(0.1, 1.0, 56)])
        rng.shuffle(costs)
        m_static = makespan(costs, static_blocks(costs, 8))
        m_greedy = makespan(costs, greedy_balance(costs, 8))
        assert m_greedy < m_static

    def test_greedy_optimality_bound(self):
        """Graham: LPT makespan <= (4/3 - 1/3P) * optimal >= mean load."""
        rng = np.random.default_rng(1)
        costs = rng.uniform(0.5, 5.0, 40)
        p = 5
        m = makespan(costs, greedy_balance(costs, p))
        lower = max(costs.sum() / p, costs.max())
        assert m <= (4 / 3) * lower * 1.34

    def test_greedy_covers_all_tasks(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0]
        a = greedy_balance(costs, 2)
        assert sorted(t for w in a for t in w) == list(range(5))

    def test_greedy_rejects_negative(self):
        with pytest.raises(ValueError):
            greedy_balance([-1.0], 2)

    def test_zero_workers(self):
        with pytest.raises(ValueError):
            static_blocks([1.0], 0)
        with pytest.raises(ValueError):
            greedy_balance([1.0], 0)

    @given(seed=st.integers(0, 100), p=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_greedy_never_worse_than_static(self, seed, p):
        rng = np.random.default_rng(seed)
        costs = rng.uniform(0.1, 10.0, 30)
        assert makespan(costs, greedy_balance(costs, p)) <= makespan(
            costs, static_blocks(costs, p)
        ) + 1e-9

    def test_run_tasks(self):
        report = run_tasks([1, 2, 3], lambda x: x * x)
        assert report.results == [1, 4, 9]
        assert report.wall_times.shape == (3,)
        assert report.total_time >= 0
        assert report.mean_task_time >= 0
