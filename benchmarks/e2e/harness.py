"""Measurement harness of the end-to-end benchmark (entry point: ``run.py``).

``run_end_to_end`` times a workload with tracing off: set-up several
times, one untimed warm-up, then a closed loop of executions for the
run's seconds with the calibration kernel in between, outputs checked
against the oracle reference.  ``run_traced`` is the separate per-layer
pass.  ``run_workload`` prints either as the one-line JSON object
``BENCHMARK.json`` describes; ``run_all`` gives every workload its own
subprocess.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.parallel.backend import shutdown_pools
from repro.resilience import get_sentinel

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCES = HERE / "references.json"
OUT = HERE / "out"
#: Seeds whose oracle outputs are committed in ``references.json``.
REFERENCE_SEEDS = (0, 1, 2)
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
MIN_EXECUTIONS = 3
#: A workload run that takes longer than this counts as failed.
RUN_TIMEOUT_S = 180
#: What the calibration kernel takes on the quiet seed box: the speed of
#: the machine that reference seconds refer to.
REFERENCE_CALIBRATION_S = 0.1

_rng = np.random.default_rng(0)
_CALIBRATION_STACK = (
    _rng.standard_normal((64, 24, 24)) + 1j * _rng.standard_normal((64, 24, 24))
    + 24 * np.eye(24)
)


def calibrate() -> float:
    """Time the fixed calibration kernel.

    An interpreter loop plus stacked small complex inversions and
    products: the instruction mix of the transport drivers, in code no
    change to ``repro`` can touch.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    for _ in range(30):
        inverse = np.linalg.inv(_CALIBRATION_STACK)
        inverse @ _CALIBRATION_STACK
    return time.perf_counter() - start


class ReferenceClock:
    """Times calls in *reference seconds*.

    The seed box (a 2-vCPU VM) changes speed by 30-60% for tens of
    seconds at a time, so raw seconds of a 20 s run move by up to 14%
    from run to run.  Every timed call is therefore bracketed by the
    calibration kernel, and its raw seconds are scaled by
    ``REFERENCE_CALIBRATION_S / (mean of the two calibrations)``: the
    seconds it would have taken at the reference machine's speed.  That
    cancels the drift (2-6% from run to run) and is still a time.
    """

    def __init__(self):
        calibrate()                      # warm the kernel's own caches
        self.last = calibrate()
        self.scale = 1.0                 # reference s per raw s, last call
        self.raw: list = []              # raw seconds of every timed call
        self.calibrations: list = [self.last]

    def time(self, fn):
        """``(fn(), reference seconds)``; an exception leaves no sample."""
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        before, self.last = self.last, calibrate()
        self.raw.append(raw)
        self.calibrations.append(self.last)
        self.scale = REFERENCE_CALIBRATION_S / (0.5 * (before + self.last))
        return result, raw * self.scale


def quartiles(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": values[0], "max": values[-1], "n": len(values),
    }


def import_seconds() -> float:
    """``import repro`` in a fresh interpreter, as timed by that interpreter."""
    code = "import time; t = time.perf_counter(); import repro; print(time.perf_counter() - t)"
    return float(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, timeout=120,
    ).stdout)


def provenance() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"   # the driver's checkout is not a git repository
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "loadavg_1min": os.getloadavg()[0],
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "git_sha": sha,
    }


def resolved_config(calc) -> dict:
    """The default configuration the workload actually ran under."""
    return {
        "method": calc.method, "n_energy": calc.n_energy, "eta": calc.eta,
        "energy_mode": calc.energy_mode, "backend": calc.backend.name,
        "workers": getattr(calc.backend, "workers", 1),
        "batch_energies": calc.batch_energies, "zero_copy": calc.zero_copy,
        "sigma_cache": calc.sigma_cache is not None,
        "precision": calc.precision, "sentinel": get_sentinel().mode,
    }


def load_reference(workload, seed: int, state: dict):
    """``(reference values, "committed" | "computed")`` for one seed."""
    committed = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    entry = committed.get(workload.name, {}).get(str(seed))
    inputs = json.loads(json.dumps(state["inputs"]))   # tuples become lists
    if entry is not None and entry["inputs"] == inputs:
        return entry["values"], "committed"
    return workload.reference(state), "computed"


def measure_setup(workload, inputs: dict, clock: ReferenceClock):
    """Set up :data:`SETUP_REPEATS` times; keep the last state."""
    seconds = []
    for _ in range(SETUP_REPEATS):
        shutdown_pools()   # a user's first run finds no warm pool
        state, elapsed = clock.time(lambda: workload.setup(inputs))
        seconds.append(elapsed)
    return state, seconds


def measure_executions(workload, state: dict, seconds: float,
                       clock: ReferenceClock):
    """Closed loop, one client: execute, calibrate, repeat for ``seconds``.

    Returns the outcome, the reference seconds of every execution, the
    number of executions that raised and whether every execution
    repeated the first one exactly.
    """
    first = workload.execute(state)   # warm-up: lazy imports, pool, caches
    walls, raised, repeats = [], 0, True
    deadline = time.perf_counter() + seconds
    while raised < MIN_EXECUTIONS and (
        len(walls) < MIN_EXECUTIONS or time.perf_counter() < deadline
    ):
        try:
            outcome, elapsed = clock.time(lambda: workload.execute(state))
        except Exception as exc:   # counted in `failed`, never dropped
            print(f"execution raised: {exc!r}", file=sys.stderr)
            raised += 1
            continue
        walls.append(elapsed)
        repeats = repeats and outcome.fingerprint() == first.fingerprint()
    return first, walls, raised, repeats


def peak_rss_mib() -> float:
    """Parent high-water mark plus the largest reaped child's."""
    return sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def run_end_to_end(workload, seed: int, seconds: float) -> dict:
    inputs = workload.inputs(seed)
    clock = ReferenceClock()
    state, setup = measure_setup(workload, inputs, clock)
    first_execution = len(clock.raw)
    outcome, walls, raised, repeats = measure_executions(
        workload, state, seconds, clock
    )
    raw_walls = clock.raw[first_execution:]
    shutdown_pools()
    rss = peak_rss_mib()   # before the import probes, which are children too
    imports = [
        clock.time(import_seconds)[0] * clock.scale for _ in range(IMPORT_REPEATS)
    ]
    reference, origin = load_reference(workload, seed, state)
    rel_error = workload.rel_error(outcome, reference)

    stats = {
        "wall_s": quartiles(walls),
        "solves_per_s": quartiles([outcome.solves / w for w in walls]),
        "sustained_gflops": quartiles([outcome.flops / w / 1e9 for w in walls]),
        "peak_rss_mb": quartiles([rss]),
        "setup_s": quartiles([i + s for i in imports for s in setup]),
    } if walls else {}
    executions = len(walls)
    return {
        "correct": bool(walls) and repeats and raised == 0
        and rel_error <= workload.tolerance,
        "attempted": executions * outcome.units + raised,
        "failed": executions * outcome.failed + raised,
        "metrics": {name: stat["median"] for name, stat in stats.items()},
        "stats": stats,
        "rel_error": rel_error, "tolerance": workload.tolerance,
        "reference": origin, "repeats_exactly": repeats,
        "executions": executions, "raised": raised,
        "counts": outcome.exact_counts(),
        "raw": {"execution_s": quartiles(raw_walls) if raw_walls else {},
                "calibration_s": quartiles(clock.calibrations)},
        "samples": {"execution_s": walls, "setup_s": setup, "import_s": imports},
        "inputs": inputs, "config": resolved_config(state["calc"]),
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    inputs = workload.inputs(seed)
    spans = layers.Spans(workload.name)
    with spans.span("workload"):
        with spans.span("setup"):
            state = workload.setup(inputs)
        with spans.span("warm-up"):
            outcome = workload.execute(state)
        variants = layers.probe_variants(workload, state, spans, 0.6 * seconds)
        m = layers.probe_layers(workload, state, spans)
    shutdown_pools()
    m["cli.import_s"] = statistics.median(
        import_seconds() for _ in range(IMPORT_REPEATS)
    )
    wall = variants.pop("wall_s")
    m.update(variants)
    m.update(layers.layer_budget(workload, outcome, m, wall))
    m.update(outcome.exact_counts())
    waves = m["physics.adaptive_waves"]
    m["physics.adaptive_solves_per_wave"] = (
        m["physics.adaptive_solved"] / waves if waves else 0.0
    )
    reference, origin = load_reference(workload, seed, state)
    m["physics.rel_error"] = rel_error = workload.rel_error(outcome, reference)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}.json"
    trace_path.write_text(json.dumps(spans.chrome_trace()))
    return {
        "correct": rel_error <= workload.tolerance,
        "attempted": outcome.units, "failed": outcome.failed,
        "metrics": m, "rel_error": rel_error, "tolerance": workload.tolerance,
        "reference": origin,
        "trace": str(trace_path.relative_to(ROOT)),
        "harness_self_s": spans.self_times()[0],   # of the root span
        "inputs": inputs, "config": resolved_config(state["calc"]),
    }


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    result = (run_traced if args.trace else run_end_to_end)(
        workload, args.seed, args.seconds
    )
    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    result.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, provenance=provenance(),
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))
    print(f"# {workload.name} seed={args.seed} reference={result['reference']} "
          f"rel_error={result['rel_error']:.3g} (tolerance {result['tolerance']:g}) "
          f"correct={result['correct']}")
    for name, unit in units.items():
        stat = result.get("stats", {}).get(name)
        spread = (
            f"  [q1 {stat['q1']:.6g}  q3 {stat['q3']:.6g}  n {stat['n']}]"
            if stat else ""
        )
        print(f"{name:36s} {result['metrics'][name]:14.6g} {unit}{spread}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result["correct"] and not result["failed"] else 1


def run_all(args) -> int:
    """Every selected workload in its own subprocess; one combined file."""
    OUT.mkdir(exist_ok=True)
    combined = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "provenance": provenance(), "workloads": {}}
    status = 0
    for name in WORKLOADS:
        part = OUT / f"part-{name}.json"
        part.unlink(missing_ok=True)
        try:
            code = subprocess.run([
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(part),
            ], timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = 1
        status = status or code
        if part.is_file():
            combined["workloads"][name] = json.loads(part.read_text())
            part.unlink()
        else:   # died or timed out before it could report: a failed execution
            combined["workloads"][name] = {
                "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            }
    out = Path(args.out) if args.out else OUT / (
        "layers.json" if args.trace else "result.json"
    )
    out.write_text(json.dumps(combined, indent=1))
    print(f"# wrote {out}")
    return status


def make_references() -> int:
    table = {}
    for workload in WORKLOADS.values():
        for seed in REFERENCE_SEEDS:
            inputs = workload.inputs(seed)
            start = time.perf_counter()
            values = workload.reference(workload.build(inputs))
            print(f"{workload.name} seed {seed}: {values} "
                  f"({time.perf_counter() - start:.1f} s)")
            table.setdefault(workload.name, {})[str(seed)] = {
                "inputs": inputs, "values": values,
            }
    REFERENCES.write_text(json.dumps(table, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", help="write the full result JSON here")
    parser.add_argument("--make-references", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.make_references:
            return make_references()
        return run_workload(args) if args.workload else run_all(args)
    finally:
        shutdown_pools()
