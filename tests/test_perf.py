"""Tests for flop accounting, the machine model and scaling predictions."""

import pytest

from repro.parallel import CommTrace
from repro.perf import (
    FlopCounter,
    rgf_solve_flops,
    sancho_rubio_flops,
    splitsolve_flops,
    wf_solve_flops,
    zgemm_flops,
    zinverse_flops,
    zlu_flops,
    block_lu_factor_flops,
)
from repro.perf.machine import JAGUAR_XT5, SimulatedMachine
from repro.perf.model import (
    ModelReport,
    TransportWorkload,
    predict,
    strong_scaling,
    weak_scaling,
)


class TestFlopFormulas:
    def test_gemm(self):
        assert zgemm_flops(10, 20, 30) == 8 * 6000

    def test_lu_vs_inverse(self):
        assert zinverse_flops(100) == 3 * zlu_flops(100)

    def test_rgf_cubic_in_block_size(self):
        r = rgf_solve_flops(10, 200) / rgf_solve_flops(10, 100)
        assert r == pytest.approx(8.0, rel=0.01)

    def test_rgf_linear_in_slabs(self):
        r = rgf_solve_flops(100, 50) / rgf_solve_flops(50, 50)
        assert 1.9 < r < 2.1

    def test_wf_cheaper_than_rgf(self):
        """The algorithmic claim of the paper: WF << RGF per (k,E) point."""
        n, m = 100, 1000
        ratio = rgf_solve_flops(n, m) / wf_solve_flops(n, m, n_rhs=30)
        assert ratio > 5.0

    def test_wf_rhs_term_linear(self):
        n, m = 50, 500
        base = wf_solve_flops(n, m, 0)
        d1 = wf_solve_flops(n, m, 10) - base
        d2 = wf_solve_flops(n, m, 20) - base
        assert d2 == pytest.approx(2 * d1)

    def test_sancho_scaling(self):
        # per iteration one inversion + 8 GEMMs, plus the final surface
        # inversion (validated against instrumented runs in
        # tests/test_observability.py)
        assert sancho_rubio_flops(100, 20) == 20 * (
            zinverse_flops(100) + 8 * zgemm_flops(100, 100, 100)
        ) + zinverse_flops(100)

    def test_splitsolve_interface_grows_with_domains(self):
        a = splitsolve_flops(64, 100, 2)
        b = splitsolve_flops(64, 100, 8)
        assert b["interface"] > a["interface"]
        assert b["domain"] < a["domain"]

    def test_splitsolve_single_domain(self):
        s = splitsolve_flops(10, 50, 1)
        assert s["interface"] == 0.0

    def test_splitsolve_invalid(self):
        with pytest.raises(ValueError):
            splitsolve_flops(10, 50, 0)

    def test_block_lu_factor_invalid(self):
        with pytest.raises(ValueError):
            block_lu_factor_flops(0, 10)


class TestFlopCounter:
    def test_accumulate_and_total(self):
        c = FlopCounter()
        c.add("gemm", 100.0)
        c.add("gemm", 50.0)
        c.add("lu", 30.0)
        assert c.total == 180.0
        assert c.counts["gemm"] == 150.0

    def test_breakdown_sorted(self):
        c = FlopCounter()
        c.add("a", 1.0)
        c.add("b", 3.0)
        rows = c.breakdown()
        assert rows[0][0] == "b"
        assert rows[0][2] == pytest.approx(0.75)

    def test_merge(self):
        a, b = FlopCounter(), FlopCounter()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 3.0)
        a.merge(b)
        assert a.counts == {"x": 3.0, "y": 3.0}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FlopCounter().add("x", -1.0)


class TestMachine:
    def test_peak(self):
        assert JAGUAR_XT5.peak_flops == pytest.approx(2.33e15, rel=0.01)

    def test_compute_time(self):
        m = SimulatedMachine("t", 10, 1e9, 1, 1e-6, 1e9, dense_efficiency=0.5)
        assert m.time_compute(1e9, 1) == pytest.approx(2.0)
        assert m.time_compute(1e9, 10) == pytest.approx(0.2)

    def test_collective_log_scaling(self):
        t2 = JAGUAR_XT5.time_collective(1e6, 2)
        t1024 = JAGUAR_XT5.time_collective(1e6, 1024)
        assert t1024 == pytest.approx(10 * t2, rel=1e-6)

    def test_collective_single_rank_free(self):
        assert JAGUAR_XT5.time_collective(1e9, 1) == 0.0

    def test_trace_costing(self):
        trace = CommTrace()
        trace.record("bcast", 1000, 8)
        trace.record("allreduce", 1000, 8)
        t = JAGUAR_XT5.time_trace(trace)
        assert t == pytest.approx(2 * JAGUAR_XT5.time_collective(1000, 8))

    def test_invalid_machine(self):
        with pytest.raises(ValueError):
            SimulatedMachine("bad", 0, 1e9, 1, 1e-6, 1e9)
        with pytest.raises(ValueError):
            SimulatedMachine("bad", 1, 1e9, 1, 1e-6, 1e9, dense_efficiency=0.0)


def paper_workload(**over):
    kwargs = dict(
        n_slabs=130,
        block_size=4000,
        n_bias=15,
        n_k=21,
        n_energy=702,
        n_channels=30,
        algorithm="wf",
        n_scf_iterations=3,
    )
    kwargs.update(over)
    return TransportWorkload(**kwargs)


class TestModel:
    def test_petaflop_headline(self):
        """Sustained performance saturates near the paper's 1.44 PFlop/s."""
        r = predict(paper_workload(), JAGUAR_XT5, 221_130)
        assert 1.2e15 < r.sustained_flops < 1.7e15
        assert 0.5 < r.fraction_of_peak < 0.75

    def test_strong_scaling_monotone_walltime(self):
        reports = strong_scaling(
            paper_workload(), JAGUAR_XT5, [1024, 4096, 16384, 65536, 221130]
        )
        times = [r.walltime_s for r in reports]
        assert all(t1 > t2 for t1, t2 in zip(times[:-1], times[1:]))

    def test_strong_scaling_speedup_reasonable(self):
        reports = strong_scaling(paper_workload(), JAGUAR_XT5, [1024, 221130])
        speedup = reports[0].walltime_s / reports[1].walltime_s
        ideal = 221130 / 1024
        # mildly superlinear vs the (imperfectly balanced) 1024-rank
        # baseline is possible; wildly off means the model is broken
        assert 0.5 * ideal < speedup <= 1.25 * ideal

    def test_weak_scaling_near_flat(self):
        base = paper_workload(n_energy=64)
        reports = weak_scaling(base, JAGUAR_XT5, [64, 256, 1024], grow="n_energy")
        t0 = reports[0].walltime_s
        for r in reports[1:]:
            assert r.walltime_s == pytest.approx(t0, rel=0.25)

    def test_weak_scaling_bad_axis(self):
        with pytest.raises(ValueError):
            weak_scaling(paper_workload(), JAGUAR_XT5, [64, 128], grow="n_slabs")

    def test_wf_faster_than_rgf_same_ranks(self):
        wf = predict(paper_workload(), JAGUAR_XT5, 4096)
        rgf = predict(paper_workload(algorithm="rgf"), JAGUAR_XT5, 4096)
        assert rgf.walltime_s > 3.0 * wf.walltime_s

    def test_spatial_level_subideal(self):
        """Doubling ranks through the spatial level gains < 2x."""
        w = paper_workload(n_bias=1, n_k=1, n_energy=1, n_scf_iterations=1)
        r1 = predict(w, JAGUAR_XT5, 1)
        r2 = predict(w, JAGUAR_XT5, 2)
        r8 = predict(w, JAGUAR_XT5, 8)
        assert r2.walltime_s < r1.walltime_s
        assert r8.walltime_s < r2.walltime_s
        speedup8 = r1.walltime_s / r8.walltime_s
        assert speedup8 < 8.0

    def test_report_fields(self):
        r = predict(paper_workload(), JAGUAR_XT5, 1024)
        assert isinstance(r, ModelReport)
        assert r.sustained_tflops == pytest.approx(r.sustained_flops / 1e12)
        assert set(r.breakdown) >= {"task_s", "reduce_s", "poisson_s"}

    def test_invalid_ranks(self):
        with pytest.raises(ValueError):
            predict(paper_workload(), JAGUAR_XT5, 0)

    def test_invalid_workload(self):
        with pytest.raises(ValueError):
            TransportWorkload(n_slabs=10, block_size=10, algorithm="dft")
        with pytest.raises(ValueError):
            TransportWorkload(n_slabs=0, block_size=10)
