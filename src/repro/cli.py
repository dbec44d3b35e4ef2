"""Command-line interface: device simulation from JSON specs.

Seven subcommands mirror the workflows of the library:

* ``simulate`` — one self-consistent bias point of a device spec;
* ``sweep``    — a transfer (Id-Vg) sweep;
* ``doctor``   — observability health check: a small monitored sweep with
  convergence tables, physics-invariant verdicts, the per-level
  communication matrix and the self-healing account;
* ``bands``    — bulk band-structure summary of a material;
* ``scaling``  — the performance-model projection table;
* ``trace``    — summarise a trace JSON produced by ``--trace``;
* ``top``      — render in-flight progress (bar, ETA, recent points,
  degradations) from a ``--events`` JSONL stream, live with ``--follow``,
  and the stream's schema verdict.

``simulate`` and ``sweep`` accept ``--trace FILE``: the run executes under
an active :class:`repro.observability.Tracer`, writes a
``chrome://tracing``-loadable timeline to FILE, prints the measured
sustained-Flop/s report and embeds it in the result JSON (``"perf"`` key).
They also accept ``--metrics FILE``: the run executes under an active
:class:`repro.observability.MetricsRegistry` and its snapshot (counters,
gauges, histograms, convergence series) is written to FILE as JSON.
And they accept ``--events FILE`` (default ``$REPRO_EVENTS``): the run
appends typed JSONL progress events (``run_started``, ``point_done``,
``heartbeat``, ``degradation``, ``straggler``, ``chunk_retired``,
``run_finished``) that ``repro top FILE`` renders while the run is still
in flight — the event file is the whole interface, no IPC needed.

Everything reads/writes plain JSON so the CLI composes with shell
pipelines; ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import env
from .parallel.backend import BACKEND_NAMES

__all__ = ["main", "build_parser"]


@contextmanager
def _tracing(trace_path, root_name):
    """Activate a fresh tracer with a root span (no-op when path is falsy)."""
    if not trace_path:
        yield None
        return
    from .observability import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer), tracer.span(root_name, category="phase"):
        yield tracer


def _finish_trace(tracer, trace_path):
    """Write the Chrome trace, print the PerfReport, return its dict."""
    if tracer is None:
        return None
    from .observability import PerfReport
    from .observability.export import write_chrome_trace

    write_chrome_trace(tracer, trace_path)
    report = PerfReport.from_tracer(tracer)
    print(report.summary())
    print(f"trace  : {trace_path} (load in chrome://tracing or Perfetto)")
    return report.to_dict()


@contextmanager
def _metering(metrics_path):
    """Activate a fresh metrics registry (no-op when path is falsy)."""
    if not metrics_path:
        yield None
        return
    from .observability import MetricsRegistry, use_metrics

    registry = MetricsRegistry()
    with use_metrics(registry):
        yield registry


def _finish_metrics(registry, metrics_path):
    """Write the metrics snapshot JSON; returns the snapshot or None."""
    if registry is None:
        return None
    snap = registry.snapshot()
    snap.write(metrics_path)
    print(f"metrics: {metrics_path} "
          f"({len(snap.counters)} counters, {len(snap.series)} series)")
    return snap


@contextmanager
def _eventing(events_path, command, **context):
    """Activate a JSONL telemetry event stream (no-op when path is falsy).

    An empty/missing ``--events`` falls back to ``$REPRO_EVENTS``; the
    writer is installed in the run recorder
    (:func:`repro.observability.use_run`), so the sweep loop, the
    backends and the transport layer all append to the same file, and
    ``run_started`` carries the resolved ``REPRO_*`` environment.  The
    writer's ``close`` emits a final ``run_finished`` if the run did not
    emit one itself.
    """
    if not events_path:
        events_path = env.read("REPRO_EVENTS")
    if not events_path:
        yield None
        return
    from .observability import TelemetryWriter, use_run

    ctx = {"command": command, "env": env.resolved()}
    ctx.update({k: v for k, v in context.items() if v is not None})
    writer = TelemetryWriter(events_path, context=ctx)
    try:
        with use_run(events=writer):
            yield writer
    finally:
        writer.close()
        print(f"events : {events_path}")


def build_parser() -> argparse.ArgumentParser:
    """The repro argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="atomistic nanoelectronic device simulator (OMEN reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_args(p):
        p.add_argument(
            "--backend", choices=BACKEND_NAMES,
            default=None,
            help="energy-grid execution backend (default: $REPRO_BACKEND "
                 "or serial)",
        )
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker count for the process backend "
                 "(default: $REPRO_WORKERS or 2)",
        )
        p.add_argument(
            "--adaptive-energies", type=int, nargs="?", const=512,
            default=None, metavar="BUDGET",
            help="turn refinement on in the energy wave loop: bisect past "
                 "a coarse seed wave up to BUDGET nodes per k-point, not "
                 "solve the window grid as one wave (default budget 512; "
                 "env: $REPRO_ADAPTIVE turns it on with defaults)",
        )
        p.add_argument(
            "--energy-tol", type=float, default=None, metavar="TOL",
            help="interpolation-error tolerance of the adaptive energy "
                 "grid on the normalized [current, spectral] indicator "
                 "(default 0.02; implies --adaptive-energies)",
        )

    p_sim = sub.add_parser("simulate", help="one self-consistent bias point")
    p_sim.add_argument("spec", help="device spec JSON file")
    p_sim.add_argument("--vg", type=float, default=0.0, help="gate voltage (V)")
    p_sim.add_argument("--vd", type=float, default=0.05, help="drain voltage (V)")
    p_sim.add_argument("--method", choices=("wf", "rgf"), default="wf")
    p_sim.add_argument("--n-energy", type=int, default=81)
    add_backend_args(p_sim)
    p_sim.add_argument("-o", "--output", help="write results JSON here")
    p_sim.add_argument(
        "--trace", metavar="FILE",
        help="measure the run: write a Chrome-trace JSON timeline to FILE "
             "and report measured sustained Flop/s",
    )
    p_sim.add_argument(
        "--metrics", metavar="FILE",
        help="monitor the run: write the metrics-registry snapshot "
             "(counters, convergence series, histograms) to FILE as JSON",
    )
    p_sim.add_argument(
        "--events", metavar="FILE",
        help="stream typed JSONL progress events to FILE, renderable "
             "in flight with 'repro top FILE' (default: $REPRO_EVENTS)",
    )

    p_sweep = sub.add_parser("sweep", help="transfer (Id-Vg) sweep")
    p_sweep.add_argument("spec")
    p_sweep.add_argument("--vg-start", type=float, default=-0.4)
    p_sweep.add_argument("--vg-stop", type=float, default=0.1)
    p_sweep.add_argument("--vg-points", type=int, default=6)
    p_sweep.add_argument("--vd", type=float, default=0.05)
    p_sweep.add_argument("--method", choices=("wf", "rgf"), default="wf")
    p_sweep.add_argument("--n-energy", type=int, default=81)
    add_backend_args(p_sweep)
    p_sweep.add_argument("-o", "--output")
    p_sweep.add_argument(
        "--checkpoint", metavar="PATH",
        help="atomically checkpoint completed points to this npz file",
    )
    p_sweep.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint, recomputing only missing points",
    )
    p_sweep.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per bias point for faulted solves",
    )
    p_sweep.add_argument(
        "--inject-faults", type=int, metavar="SEED", default=None,
        help="fault drill: deterministically inject faults with this seed",
    )
    p_sweep.add_argument(
        "--fault-rate", type=float, default=0.25,
        help="per-bias-point fault probability for --inject-faults",
    )
    p_sweep.add_argument(
        "--trace", metavar="FILE",
        help="measure the run: write a Chrome-trace JSON timeline to FILE "
             "and report measured sustained Flop/s",
    )
    p_sweep.add_argument(
        "--metrics", metavar="FILE",
        help="monitor the run: write the metrics-registry snapshot "
             "(counters, convergence series, histograms) to FILE as JSON",
    )
    p_sweep.add_argument(
        "--events", metavar="FILE",
        help="stream typed JSONL progress events to FILE, renderable "
             "in flight with 'repro top FILE' (default: $REPRO_EVENTS)",
    )

    p_doc = sub.add_parser(
        "doctor",
        help="observability health check: monitored sweep, invariant "
             "verdicts, per-level comm matrix, self-healing account",
    )
    p_doc.add_argument("spec", help="device spec JSON file")
    p_doc.add_argument("--vg-start", type=float, default=-0.2)
    p_doc.add_argument("--vg-stop", type=float, default=0.0)
    p_doc.add_argument("--vg-points", type=int, default=2)
    p_doc.add_argument("--vd", type=float, default=0.05)
    p_doc.add_argument("--method", choices=("wf", "rgf"), default="wf")
    p_doc.add_argument("--n-energy", type=int, default=41)
    add_backend_args(p_doc)
    p_doc.add_argument(
        "--ranks", type=int, default=64,
        help="modelled communicator size for the per-level comm matrix",
    )
    p_doc.add_argument(
        "--max-spatial", type=int, default=2,
        help="spatial (SplitSolve) level cap of the modelled rank grid",
    )
    p_doc.add_argument(
        "--strict", action="store_true",
        help="escalate invariant violations to PhysicsInvariantError "
             "(default: record them and continue)",
    )
    p_doc.add_argument(
        "--inject-faults", type=int, metavar="SEED", default=None,
        help="fault drill: corrupt one density with the deterministic "
             "injector and verify the violation is recorded, not fatal",
    )
    p_doc.add_argument(
        "--metrics", metavar="FILE",
        help="also write the full metrics snapshot to FILE as JSON",
    )

    p_bands = sub.add_parser("bands", help="bulk band summary of a material")
    p_bands.add_argument("material", help="registry name, e.g. Si-sp3s*")

    p_trace = sub.add_parser(
        "trace", help="summarise a trace JSON written by --trace"
    )
    p_trace.add_argument("file", help="Chrome-trace JSON file")

    p_top = sub.add_parser(
        "top",
        help="render run progress (bar, ETA, recent points) and the "
             "schema verdict of a --events JSONL stream",
    )
    p_top.add_argument("file", help="telemetry events JSONL file")
    p_top.add_argument(
        "--follow", action="store_true",
        help="keep re-rendering every --interval seconds until the run "
             "emits run_finished",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh period in seconds for --follow (default: 2)",
    )

    p_scale = sub.add_parser("scaling", help="performance-model projection")
    p_scale.add_argument("--cores", type=int, nargs="+",
                         default=[1024, 16384, 221130])
    p_scale.add_argument("--algorithm", choices=("wf", "rgf"), default="wf")
    return parser


def _load_built(spec_path: str):
    from .core import build_device
    from .io import load_spec

    return build_device(load_spec(spec_path))


def _backend_kwargs(args) -> dict:
    """TransportCalculation kwargs from the shared backend CLI flags."""
    kwargs = {
        "backend": getattr(args, "backend", None),
        "workers": getattr(args, "workers", None),
    }
    budget = getattr(args, "adaptive_energies", None)
    tol = getattr(args, "energy_tol", None)
    if budget is not None or tol is not None:
        # either flag turns refinement on in the energy wave loop;
        # without them energy_mode=None defers to $REPRO_ADAPTIVE
        kwargs["energy_mode"] = "adaptive"
        kwargs["max_energy_points"] = int(budget) if budget else 512
        if tol is not None:
            kwargs["adaptive_tol"] = float(tol)
    return kwargs


def _cmd_simulate(args) -> int:
    from .core import SelfConsistentSolver, TransportCalculation
    from .io import format_si, save_json

    built = _load_built(args.spec)
    transport = TransportCalculation(
        built, method=args.method, n_energy=args.n_energy,
        **_backend_kwargs(args),
    )
    scf = SelfConsistentSolver(built, transport)
    with _tracing(args.trace, "simulate") as tracer, \
            _metering(args.metrics) as registry, \
            _eventing(args.events, "simulate", spec=args.spec,
                      backend=args.backend,
                      stack_length=transport.stack_length) as events:
        if events is not None:
            events.run_started(total=1, v_gate=args.vg, v_drain=args.vd)
        result = scf.run(args.vg, args.vd)
        if events is not None:
            events.point_done(
                v_gate=args.vg,
                v_drain=args.vd,
                current_a=result.transport.current_a,
                converged=result.converged,
            )
    print(f"device : {built.spec.name} ({built.n_atoms} atoms, "
          f"{built.device.n_slabs} slabs)")
    print(f"bias   : V_G = {args.vg} V, V_D = {args.vd} V")
    print(f"SCF    : converged={result.converged} "
          f"iterations={result.n_iterations}")
    print(f"current: {format_si(result.transport.current_a, 'A')}")
    perf = _finish_trace(tracer, args.trace)
    _finish_metrics(registry, args.metrics)
    if args.output:
        payload = {
            "v_gate": args.vg,
            "v_drain": args.vd,
            "current_a": result.transport.current_a,
            "converged": result.converged,
            "n_iterations": result.n_iterations,
            "residuals": result.residuals,
            "density_per_atom": result.transport.density_per_atom,
            "counted_flops": result.flops.total,
        }
        if perf is not None:
            payload["perf"] = perf
        save_json(payload, args.output)
        print(f"wrote  : {args.output}")
    return 0 if result.converged else 2


def _cmd_sweep(args) -> int:
    from .core import (
        IVSweep,
        SelfConsistentSolver,
        TransportCalculation,
        subthreshold_swing_mv_dec,
    )
    from .io import format_si, format_table, save_json
    from .resilience import FaultInjector, RetryPolicy

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    built = _load_built(args.spec)
    transport = TransportCalculation(
        built, method=args.method, n_energy=args.n_energy,
        **_backend_kwargs(args),
    )
    injector = None
    if args.inject_faults is not None:
        injector = FaultInjector(
            seed=args.inject_faults,
            rate=args.fault_rate,
            actions=("raise", "nan"),
            sites=("bias",),
        )
    sweep = IVSweep(
        SelfConsistentSolver(built, transport),
        retry=RetryPolicy(max_retries=args.max_retries),
        checkpoint=args.checkpoint,
        resume=args.resume,
        injector=injector,
    )
    vgs = np.linspace(args.vg_start, args.vg_stop, args.vg_points)
    with _tracing(args.trace, "sweep") as tracer, \
            _metering(args.metrics) as registry, \
            _eventing(args.events, "sweep", spec=args.spec,
                      backend=args.backend,
                      stack_length=transport.stack_length):
        # the sweep loop itself emits run_started/point_done/run_finished
        # through the installed writer (see IVSweep._sweep)
        curve = sweep.transfer_curve(vgs, v_drain=args.vd)
    rows = [
        (f"{p.v_gate:+.3f}", format_si(p.current_a, "A"),
         "yes" if p.converged else "NO",
         "+".join(p.recovery) if p.recovery else "-")
        for p in curve.points
    ]
    print(format_table(
        ["V_G (V)", "I_D", "converged", "recovery"], rows,
        title=f"{built.spec.name}: transfer sweep at V_D = {args.vd} V",
    ))
    try:
        ss = subthreshold_swing_mv_dec(curve.gate_voltages(), curve.currents())
        print(f"subthreshold swing (fit): {ss:.1f} mV/dec")
    except ValueError:
        pass
    print(f"on/off ratio: {curve.on_off_ratio():.3e}")
    print(curve.degradation.summary())
    perf = _finish_trace(tracer, args.trace)
    _finish_metrics(registry, args.metrics)
    if perf is None and curve.perf is not None:  # pragma: no cover
        perf = curve.perf.to_dict()
    if args.output:
        payload = {
            "v_drain": args.vd,
            "points": curve.points,
            "counted_flops": curve.flops.total,
            "degradation": curve.degradation.to_dict(),
        }
        if perf is not None:
            payload["perf"] = perf
        save_json(payload, args.output)
        print(f"wrote: {args.output}")
    return 0 if all(p.converged for p in curve.points) else 2


def _cmd_doctor(args) -> int:
    from .core import (
        DistributedTransport,
        IVSweep,
        SelfConsistentSolver,
        TransportCalculation,
    )
    from .errors import PhysicsInvariantError
    from .io import format_si, format_table
    from .observability import (
        InvariantMonitor,
        MetricsRegistry,
        use_run,
    )
    from .parallel import LEVEL_NAMES, CommTrace, TracedComm

    built = _load_built(args.spec)
    transport = TransportCalculation(
        built, method=args.method, n_energy=args.n_energy,
        **_backend_kwargs(args),
    )
    scf = SelfConsistentSolver(built, transport)
    registry = MetricsRegistry()
    monitor = InvariantMonitor(strict=args.strict)
    vgs = np.linspace(args.vg_start, args.vg_stop, args.vg_points)
    trace = CommTrace()
    print(f"doctor : {built.spec.name} ({built.n_atoms} atoms, "
          f"{built.device.n_slabs} slabs, method={args.method})")
    print(f"stack  : {transport.stack_length} energies per stacked "
          f"kernel call on this device")
    print("env    : " + ", ".join(
        f"{name}={value}" for name, value in env.resolved().items()
    ))

    try:
        with use_run(metrics=registry, monitor=monitor):
            # 1. monitored mini-sweep (SCF convergence + kernel invariants)
            curve = IVSweep(scf).transfer_curve(vgs, v_drain=args.vd)
            # 2. modelled 4-level distributed solve for the comm matrix
            dist = DistributedTransport(
                transport, max_spatial=args.max_spatial
            )
            comm = TracedComm(1, 0, trace)
            dist.solve_bias(
                scf.atom_potential_ev(
                    scf.initial_potential(vgs[-1], args.vd)
                ),
                args.vd, comm, n_ranks=args.ranks,
            )
            organic_violations = monitor.n_violations
            # 3. fault drill: corrupt a density and verify the monitor
            #    flags it in metrics without killing the run (non-strict)
            if args.inject_faults is not None:
                from .resilience import FaultInjector
                from .resilience.faults import nan_like

                injector = FaultInjector(
                    seed=args.inject_faults, rate=1.0, actions=("nan",),
                    sites=("doctor",),
                )
                mode = injector.fire("doctor", "density-drill")
                if mode == "nan":
                    broken = nan_like(np.ones(built.n_atoms))
                    try:
                        monitor.check_density(broken, drill="injected")
                        print("fault drill: injected NaN density recorded "
                              "as a violation; run continued (non-strict)")
                    except PhysicsInvariantError as exc:
                        print(f"fault drill: strict mode escalated as "
                              f"designed ({exc})")
    except PhysicsInvariantError as exc:
        print(f"doctor : FAIL (strict invariant escalation: {exc})")
        return 1

    snap = registry.snapshot()

    # --- SCF convergence tables ---------------------------------------
    residual_series = snap.with_prefix("series", "scf.residual_v")
    for key in sorted(residual_series):
        label = key[len("scf.residual_v"):] or "{}"
        poisson_key = "scf.poisson_iterations" + label
        poisson = dict(snap.series.get(poisson_key, ()))
        rows = [
            (step, f"{value:.3e}",
             str(int(poisson.get(step, 0))) if poisson else "-")
            for step, value in residual_series[key]
        ]
        print(format_table(
            ["iter", "max|dV| (V)", "Poisson iters"], rows,
            title=f"SCF convergence {label}",
        ))
    converged = int(snap.counter("scf.converged"))
    unconverged = int(snap.counter("scf.unconverged"))
    print(f"SCF    : {converged} bias point(s) converged, "
          f"{unconverged} not converged")

    # --- invariant verdicts -------------------------------------------
    checks = snap.total("invariant.checks")
    print(f"checks : {int(checks)} invariant evaluations")
    print(monitor.summary())

    # --- self-healing account -----------------------------------------
    from .resilience import get_sentinel

    sentinel = get_sentinel()
    print(f"health : sentinel mode={sentinel.mode}, "
          f"{sentinel.n_trips} lifetime trip(s)")
    print(curve.degradation.summary())

    # --- per-level communication matrix -------------------------------
    by_level = trace.by_level()
    level_rows = []
    for name in LEVEL_NAMES:
        row = by_level.get(name, {"bytes": 0, "messages": 0})
        group = snap.gauge("decomposition.group_size", 0.0, level=name)
        level_rows.append((
            name, int(group or 0), row["messages"],
            format_si(float(row["bytes"]), "B"),
        ))
    print(format_table(
        ["level", "group size", "messages", "bytes"], level_rows,
        title=f"modelled comm volume over {args.ranks} ranks "
              f"(paper's 4-level decomposition)",
    ))

    if args.metrics:
        snap.write(args.metrics)
        print(f"metrics: {args.metrics}")

    if organic_violations:
        print(f"doctor : FAIL ({organic_violations} organic invariant "
              f"violation(s))")
        return 1
    print(f"doctor : OK ({monitor.n_violations - organic_violations} "
          f"drill violation(s))")
    return 0


def _cmd_bands(args) -> int:
    from .tb import bulk_band_edges, get_material

    mat = get_material(args.material)
    if mat.cell is None:
        print(f"{mat.name}: single-band model, "
              f"Ec = {mat.band_edges.get('Ec', 0.0)} eV, "
              f"m* = {mat.band_edges.get('m_rel')}")
        return 0
    be = bulk_band_edges(mat, n_samples=81)
    kind = "direct" if be["direct"] else f"indirect ({be['cbm_direction']})"
    print(json.dumps(
        {
            "material": mat.name,
            "gap_ev": round(be["gap"], 4),
            "kind": kind,
            "Ev": round(be["Ev"], 4),
            "Ec": round(be["Ec"], 4),
        },
        indent=2,
    ))
    return 0


def _cmd_trace(args) -> int:
    from .observability import PerfReport

    with open(args.file) as fh:
        doc = json.load(fh)
    events = doc.get("traceEvents", [])
    other = doc.get("otherData", {})
    report = PerfReport(
        wall_time_s=float(other.get("wall_time_s", 0.0)),
        counted_flops=float(other.get("counted_flops", 0.0)),
        kernel_flops=other.get("kernel_flops", {}),
        phase_seconds=other.get("phase_seconds", {}),
        rank_seconds={
            int(k): v for k, v in other.get("rank_seconds", {}).items()
        },
        n_spans=int(other.get("n_spans", len(events))),
        n_tasks=int(other.get("n_tasks", 0)),
    )
    print(f"trace  : {args.file} ({len(events)} events)")
    print(report.summary())
    if report.phase_seconds:
        top = sorted(
            report.phase_seconds.items(), key=lambda kv: -kv[1]
        )[:6]
        print("phases : " + ", ".join(f"{k} {v:.3f}s" for k, v in top))
    if report.rank_seconds:
        busy = ", ".join(
            f"rank{k} {v:.3f}s" for k, v in sorted(report.rank_seconds.items())
        )
        print("ranks  : " + busy)
    return 0


def _cmd_top(args) -> int:
    """Render run progress from a --events JSONL stream.

    Reads only the event file — the run being watched can be in another
    process, another container, or already finished.  With ``--follow``
    it re-renders every ``--interval`` seconds until ``run_finished``
    appears (or the file never materialises and the user interrupts).
    The last render ends with the stream's schema verdict
    (:func:`repro.observability.validate_events`): exit 1 on a bad stream.
    """
    import os
    import time

    from .observability import (
        read_events,
        render_event_summary,
        summarize_events,
        validate_events,
    )

    while True:
        if not os.path.exists(args.file):
            if not args.follow:
                print(f"top: no such events file: {args.file}",
                      file=sys.stderr)
                return 2
            time.sleep(args.interval)
            continue
        events = read_events(args.file)
        summary = summarize_events(events)
        print(render_event_summary(summary, now=time.time()))
        if not args.follow or summary.get("finished"):
            break
        time.sleep(args.interval)
    problems = validate_events(events)
    if problems:
        print("schema : " + "; ".join(problems))
        return 1
    print(f"schema : {len(events)} event(s) valid")
    return 0


def _cmd_scaling(args) -> int:
    from .io import format_si, format_table
    from .perf.machine import JAGUAR_XT5
    from .perf.model import TransportWorkload, predict

    workload = TransportWorkload(
        n_slabs=130, block_size=4000, n_bias=15, n_k=21, n_energy=702,
        n_channels=30, algorithm=args.algorithm, n_scf_iterations=3,
    )
    rows = []
    for p in args.cores:
        r = predict(workload, JAGUAR_XT5, p)
        rows.append((
            p, "x".join(map(str, r.groups)),
            f"{r.walltime_s / 3600:.1f}",
            format_si(r.sustained_flops, "Flop/s"),
            f"{r.fraction_of_peak * 100:.0f}%",
        ))
    print(format_table(
        ["cores", "groups", "walltime (h)", "sustained", "of peak"], rows,
        title=f"modelled {args.algorithm.upper()} campaign on {JAGUAR_XT5.name}",
    ))
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "doctor": _cmd_doctor,
        "bands": _cmd_bands,
        "scaling": _cmd_scaling,
        "trace": _cmd_trace,
        "top": _cmd_top,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
