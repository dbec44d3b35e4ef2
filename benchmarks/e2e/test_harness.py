"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Stub(workloads.TransportUniformChain):
    """The uniform chain cut down to nine nodes: same code path, 30 ms."""

    name = "stub"
    calc_kwargs = {"n_energy": 9}


class Flaky(Stub):
    """Every second execution raises."""

    def __init__(self):
        self.calls = 0

    def execute(self, state, **overrides):
        self.calls += 1
        if self.calls % 2 == 0:
            raise RuntimeError("injected")
        return super().execute(state, **overrides)


def test_declaration_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


def test_declared_workloads_are_the_implemented_ones():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert all(len(why) <= 200 and "\n" not in why for why in declared.values())


def test_emitted_names_are_the_declared_ones():
    end_to_end = harness.run_end_to_end(Stub(), seed=0, seconds=0.1)
    assert set(end_to_end["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end["correct"] and end_to_end["failed"] == 0
    assert all(value != 0 for value in end_to_end["metrics"].values())
    traced = harness.run_traced(Stub(), seed=0, seconds=0.1)
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert traced["correct"]
    events = json.loads((ROOT / traced["trace"]).read_text())["traceEvents"]
    assert {"workload", "execute", "negf.rgf_point"} <= {e["name"] for e in events}


@pytest.mark.parametrize("workload", workloads.WORKLOADS.values(), ids=lambda w: w.name)
def test_same_seed_same_inputs_and_counts(workload):
    assert workload.inputs(7) == workload.inputs(7)
    assert workload.inputs(7) != workload.inputs(8)
    assert workload.inputs(0) == workload.inputs(0) != workload.inputs(7)
    try:
        state = workload.setup(workload.inputs(7))
        first, second = workload.execute(state), workload.execute(state)
    finally:
        harness.shutdown_pools()
    assert first.fingerprint() == second.fingerprint()
    assert first.failed == 0 and first.solves > 0 and first.flops > 0


def test_committed_references_match_their_inputs():
    committed = json.loads((HERE / "references.json").read_text())
    for workload in workloads.WORKLOADS.values():
        for seed in harness.REFERENCE_SEEDS:
            entry = committed[workload.name][str(seed)]
            assert entry["inputs"] == json.loads(json.dumps(workload.inputs(seed)))


def test_span_self_time_is_duration_minus_child_cover():
    ticks = iter([0, 1, 2, 3, 5, 6, 10, 12])
    spans = layers.Spans("w", clock=lambda: float(next(ticks)))
    with spans.span("root"):            # 0 .. 12
        with spans.span("a"):           # 1 .. 5
            with spans.span("a1"):      # 2 .. 3
                pass
        with spans.span("b"):           # 6 .. 10
            pass
    root, a, a1, b = spans.spans
    assert (a["parent"], a1["parent"], b["parent"]) == (root["id"], a["id"], root["id"])
    self_times = spans.self_times()
    assert self_times[a1["id"]] == 1 and self_times[a["id"]] == 4 - 1
    assert self_times[root["id"]] == 12 - (4 + 4)
    # overlapping children are covered once
    spans.spans += [
        {"id": 4, "name": "x", "parent": b["id"], "workload": "w",
         "start": b["start"], "end": b["end"]},
        {"id": 5, "name": "y", "parent": b["id"], "workload": "w",
         "start": b["start"], "end": b["end"]},
    ]
    assert spans.self_times()[b["id"]] == 0


def test_raising_execution_is_counted_not_dropped():
    result = harness.run_end_to_end(Flaky(), seed=0, seconds=0.1)
    assert result["raised"] >= 1 and result["failed"] >= result["raised"]
    assert result["attempted"] > result["failed"] and not result["correct"]


def test_compare_verdicts():
    def stat(median, half_iqr):
        return {"median": median, "q1": median - half_iqr, "q3": median + half_iqr,
                "min": median - 2 * half_iqr, "max": median + 2 * half_iqr}

    assert compare.verdict(stat(1.0, 0.01), stat(1.2, 0.01), "lower", 0.1) == "regressed"
    assert compare.verdict(stat(1.0, 0.01), stat(0.8, 0.01), "lower", 0.1) == "improved"
    assert compare.verdict(stat(1.0, 0.01), stat(1.01, 0.01), "lower", 0.1) == "unchanged"
    assert compare.verdict(stat(1.0, 0.2), stat(1.3, 0.2), "lower", 0.1) == "unresolved"
    assert compare.verdict(stat(1.0, 0.2), stat(0.1, 0.01), "lower", 0.1) == "improved"
    assert compare.verdict(stat(1.0, 0.01), stat(0.8, 0.01), "higher", 0.1) == "regressed"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    run = subprocess.run(
        BENCHMARK["command"] + ["--workload", "scf_sweep_wf", "--seed", "0",
                                "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert run.returncode != 0 and not run.stdout.strip()
