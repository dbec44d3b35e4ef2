#!/usr/bin/env python
"""Regenerate the committed ``benchmarks/baselines/BENCH_*.json`` files.

Runs exactly the benchmark tests that call ``record_baseline`` (the
measured-baseline producers — currently the T3 RGF flop cross-check, the
F3 energy-level scaling probe and the F5 local sustained-Flop/s run) so
the baselines the regression gate (``repro doctor``,
``repro.observability.regression.check_against_baselines``) compares against match
the code in the working tree.

The instrumented *flop counts* in these files are deterministic — they
change only when a kernel's algorithm changes, which is precisely when a
refresh is the intended, reviewed action.  The *timing* fields
(``wall_time_s``, ``sustained_flops``) are machine-dependent; the
regression bands only warn on those, so refreshing on a different machine
is safe.

Usage::

    python scripts/refresh_baselines.py [--check] [--dir DIR]

``--check`` regenerates into a scratch directory and exits 1 if any
deterministic (non-timing) field differs from the committed baselines —
the mode the CI gate uses.  A producer that fails does not stop the
comparison: its file is reported MISSING, every other file is compared,
and the exit status is 1.  Without it, the committed files are
rewritten in place (commit the diff deliberately).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BASELINE_DIR = REPO / "benchmarks" / "baselines"

#: The benchmark tests that write baselines, with the file each produces.
#: Targets ending in ``--smoke`` are plain scripts, not pytest node ids.
PRODUCERS = [
    ("benchmarks/bench_t3_kernels.py::test_t3_measured_flop_crosscheck",
     "BENCH_t3_rgf.json"),
    ("benchmarks/bench_t3_kernels.py --smoke", "BENCH_kernels.json"),
    ("benchmarks/bench_f3_strong_scaling.py", "BENCH_f3_energy_level.json"),
    ("benchmarks/bench_f5_petaflops.py", "BENCH_f5_local.json"),
    ("benchmarks/bench_f7_scf.py --smoke", "BENCH_scf_sweep.json"),
    ("benchmarks/bench_t6_telemetry.py --smoke", "BENCH_telemetry.json"),
    ("benchmarks/bench_t7_adaptive.py --smoke", "BENCH_adaptive.json"),
]

#: Machine- and run-dependent fields ignored by ``--check`` (warn-only in
#: the gate).
#: ``delta_bytes`` is here because worker metric snapshots embed
#: timing-histogram buckets, whose keys (and thus pickled size) depend
#: on the machine's measured latencies.
TIMING_FIELDS = (
    "wall_time_s", "sustained_flops", "walltime", "seconds", "speedup",
    "delta_bytes", "nproc", "blas_threads", "git_sha",
)


def _is_timing(key: str) -> bool:
    # BENCH_kernels' ``contacts.<lead>.sigma_stacks_s_per_pt`` and
    # ``block_lu.<device>.kernel_stage_*_s_per_pt`` are timings; their
    # ``basis`` and the counts ``stacked_inversions`` / ``eigh_calls`` /
    # ``max_iterations`` / ``lu_matmuls_rgf`` are checked; BENCH_scf_sweep's
    # ``poisson.<mesh>[.spsolve].solve_ms`` are timings, ``newton_steps`` a count
    return (
        key.startswith("time.")
        or key.endswith(("_s", "_ms", "_s_per_pt"))
        or any(t in key for t in TIMING_FIELDS)
    )


def run_producers(out_dir: Path) -> list:
    """Run every producer benchmark with baselines redirected to out_dir
    and BLAS pinned to one thread (a threaded reduction moves the last
    digits of the recorded values); returns the files whose producer
    failed."""
    env = dict(os.environ)
    env["REPRO_BENCH_DIR"] = str(out_dir)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    failed = []
    for target, produced in PRODUCERS:
        print(f"==> {target}  ->  {produced}")
        if target.endswith("--smoke"):
            cmd = [sys.executable] + target.split()
        else:
            cmd = [sys.executable, "-m", "pytest", "-x", "-q",
                   "--benchmark-disable", target]
        proc = subprocess.run(cmd, cwd=REPO, env=env)
        if proc.returncode:
            print(f"FAILED: {target} (exit {proc.returncode})",
                  file=sys.stderr)
            failed.append(produced)
    return failed


def compare(fresh_dir: Path, committed_dir: Path, failed=()) -> int:
    """Exit status 1 if any deterministic field drifted or a file is
    missing; ``failed`` files (their producer failed) count as missing."""
    drift = 0
    for _, produced in PRODUCERS:
        fresh_path = fresh_dir / produced
        committed_path = committed_dir / produced
        if produced in failed or not fresh_path.exists():
            print(f"MISSING fresh {produced} (producer failed)")
            drift = 1
            continue
        if not committed_path.exists():
            print(f"NEW {produced}: no committed baseline yet")
            drift = 1
            continue
        fresh = json.loads(fresh_path.read_text())
        committed = json.loads(committed_path.read_text())
        keys = sorted(set(fresh) | set(committed))
        for key in keys:
            if _is_timing(key):
                continue
            a, b = committed.get(key), fresh.get(key)
            if a != b:
                print(f"DRIFT {produced}:{key}: committed {a!r} != "
                      f"fresh {b!r}")
                drift = 1
    if not drift:
        print("baselines: all deterministic fields match")
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="regenerate into a scratch dir and diff deterministic fields "
             "against the committed baselines instead of overwriting them",
    )
    parser.add_argument(
        "--dir", default=None,
        help=f"output directory (default: {BASELINE_DIR})",
    )
    args = parser.parse_args(argv)

    if args.check:
        with tempfile.TemporaryDirectory(prefix="repro-baselines-") as tmp:
            failed = run_producers(Path(tmp))
            return compare(Path(tmp), BASELINE_DIR, failed)

    out_dir = Path(args.dir) if args.dir else BASELINE_DIR
    if run_producers(out_dir):
        return 1
    print(f"refreshed baselines in {out_dir}; review and commit the diff")
    return 0


if __name__ == "__main__":
    sys.exit(main())
