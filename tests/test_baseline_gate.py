"""The baseline gate fails on a drifted count and ignores timings.

``scripts/refresh_baselines.py --check`` regenerates every committed
``benchmarks/baselines/BENCH_*.json`` and hands both directories to its
``compare()``.  Here ``compare()`` runs on a copy of the committed files
with one field edited, so the verdict is tested without running a
producer.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def refresh_baselines():
    path = REPO / "scripts" / "refresh_baselines.py"
    spec = importlib.util.spec_from_file_location("refresh_baselines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fresh(tmp_path, refresh_baselines):
    """A copy of the committed baselines, standing in for a fresh run."""
    copy = tmp_path / "fresh"
    shutil.copytree(refresh_baselines.BASELINE_DIR, copy)
    return copy


def _edit(path: Path, key: str, scale: float) -> None:
    data = json.loads(path.read_text())
    data[key] = data[key] * scale
    path.write_text(json.dumps(data))


class TestCompare:
    def test_unchanged_copy_passes(self, refresh_baselines, fresh):
        assert refresh_baselines.compare(
            fresh, refresh_baselines.BASELINE_DIR
        ) == 0

    def test_one_flop_field_drifted_fails(self, refresh_baselines, fresh):
        _edit(fresh / "BENCH_t3_rgf.json", "flops.block_lu.factor", 2.0)
        assert refresh_baselines.compare(
            fresh, refresh_baselines.BASELINE_DIR
        ) == 1

    def test_one_timing_field_changed_passes(self, refresh_baselines, fresh):
        _edit(fresh / "BENCH_t3_rgf.json", "wall_time_s", 2.0)
        assert refresh_baselines.compare(
            fresh, refresh_baselines.BASELINE_DIR
        ) == 0

    def test_failed_producer_fails(self, refresh_baselines, fresh):
        assert refresh_baselines.compare(
            fresh, refresh_baselines.BASELINE_DIR,
            failed=("BENCH_t3_rgf.json",),
        ) == 1
