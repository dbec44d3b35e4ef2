"""The traced pass: spans around calls into each layer, and the layer budget.

Spans are recorded here, in the benchmark's own code, around every call
it makes into a layer's public functions; nothing inside ``repro`` is
patched.  A span has a name, a start, an end, the id of the span that
caused it and the workload it belongs to; a span's *self time* is its
duration minus the part of that interval its children cover.  Spans stay
in memory and are written as a Chrome trace when the pass ends.

Every per-call figure is the median over :data:`CALLS` calls on the
workload's own blocks and energies.  End-to-end numbers never come from
this pass.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.core import (
    DeviceSpec,
    DistributedTransport,
    SelfConsistentSolver,
    build_device,
)
from repro.negf import (
    RGFSolver,
    assemble_system_blocks,
    landauer_current,
    sancho_rubio,
    sancho_rubio_batch,
)
from repro.observability import MetricsRegistry, Tracer, use_metrics, use_tracer
from repro.parallel import SerialComm, get_backend
from repro.parallel.backend import shutdown_pools
from repro.poisson import NonlinearPoisson, SemiclassicalCharge
from repro.resilience import HealthSentinel, use_sentinel
from repro.solvers import BatchedBlockTridiagLU, BlockTridiagLU
from repro.tb import build_device_hamiltonian
from repro.wf import WFSolver

from workloads import noop

#: Calls behind every per-call median ...
CALLS = 16
#: ... unless they have already taken this long (never fewer than 3 calls):
#: a 1200-atom Hamiltonian build is 0.3 s, and the pass has a time cap.
PROBE_BUDGET_S = 0.5
#: Calls behind a stacked-kernel median (each covers a whole stack).
STACK_CALLS = 4
#: The SCF probe of a transport-only workload: a one-iteration Gummel loop
#: on the workload's device, which prices Poisson + SCF glue, not convergence.
SCF_PROBE = {"n_energy": 5, "max_iterations": 1}


class Spans:
    """In-memory span recorder of one workload's traced pass."""

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": self.clock(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._open.pop()

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str, calls: int, fn, per: int = 1) -> float:
        """Median duration of up to ``calls`` spans around ``fn(i)``, per item."""
        start, done = self.clock(), 0
        while done < calls and (
            done < 3 or self.clock() - start < PROBE_BUDGET_S
        ):
            with self.span(name):
                fn(done)
            done += 1
        return statistics.median(self.durations(name)[-done:]) / per

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
                lo, hi = max(c["start"], reach), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def chrome_trace(self) -> dict:
        origin = self.spans[0]["start"] if self.spans else 0.0
        self_times = self.self_times()
        return {"traceEvents": [
            {
                "name": s["name"], "ph": "X", "pid": 0, "tid": 0,
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {
                    "id": s["id"], "parent": s["parent"],
                    "workload": s["workload"],
                    "self_us": self_times[s["id"]] * 1e6,
                },
            }
            for s in self.spans
        ]}


def probe_layers(workload, state, spans: Spans) -> dict:
    """Per-call cost of every layer, on the workload's own device."""
    built, calc, inp = state["built"], state["calc"], state["inputs"]
    v_drain = inp["v_drain"]
    pot = workload.potential(state)
    k0 = built.momentum_grid.k_points[0]
    m = {}

    with spans.span("probe:device"):
        m["core.device.build_s"] = spans.median(
            "core.device.build", 3,
            lambda i: build_device(DeviceSpec(**inp["spec"])),
        )
        m["tb.hamiltonian_build_s"] = spans.median(
            "tb.hamiltonian_build", CALLS,
            lambda i: build_device_hamiltonian(
                built.device, built.material, potential=pot, k_transverse=k0
            ),
        )
        m["core.transport.energy_grid_s"] = spans.median(
            "core.transport.energy_grid", CALLS,
            lambda i: calc.energy_grid(pot, v_drain),
        )

    grid = calc.energy_grid(pot, v_drain)
    H = calc.hamiltonian(pot, k0)
    lo, hi = float(grid.energies[0]), float(grid.energies[-1])
    energies = [float(e) for e in np.linspace(lo, hi, CALLS + 2)[1:-1]]
    # a stack wide enough to amortise the interpreter at small blocks,
    # small enough that one stacked call at m=25 stays a fraction of a second
    stack = [float(e) for e in np.linspace(
        lo, hi, 64 if H.total_size <= 256 else 16
    )]
    h00, h01 = H.diagonal[0], H.upper[0]
    eta = calc.eta

    with spans.span("probe:negf"):
        m["negf.solver_ctor_s"] = spans.median(
            "negf.solver_ctor", CALLS, lambda i: RGFSolver(H, eta=eta)
        )
        rgf = RGFSolver(H, eta=eta)
        m["negf.rgf_point_s"] = spans.median(
            "negf.rgf_point", CALLS, lambda i: rgf.solve(energies[i])
        )
        m["negf.rgf_batch_s_per_pt"] = spans.median(
            "negf.rgf_batch", STACK_CALLS, lambda i: rgf.solve_batch(stack),
            per=len(stack),
        )
        m["negf.surface_gf_point_s"] = spans.median(
            "negf.surface_gf_point", CALLS,
            lambda i: sancho_rubio(energies[i], h00, h01, side="left", eta=eta),
        )
        m["negf.surface_gf_batch_s_per_pt"] = spans.median(
            "negf.surface_gf_batch", STACK_CALLS,
            lambda i: sancho_rubio_batch(
                np.array(stack), h00, h01, side="left", eta=eta
            ),
            per=len(stack),
        )
        transmission = np.ones(len(grid))
        mu_s, mu_d = built.contact_mu("source"), built.contact_mu("drain", v_drain)
        m["negf.landauer_s"] = spans.median(
            "negf.landauer", CALLS,
            lambda i: landauer_current(
                grid, transmission, mu_s, mu_d, built.spec.kT,
                spin_degeneracy=calc.spin_degeneracy,
            ),
        )

    with spans.span("probe:wf"):
        m["wf.solver_ctor_s"] = spans.median(
            "wf.solver_ctor", CALLS, lambda i: WFSolver(H, eta=eta)
        )
        wf = WFSolver(H, eta=eta)
        m["wf.solve_point_s"] = spans.median(
            "wf.solve_point", CALLS, lambda i: wf.solve(energies[i])
        )
        m["wf.solve_batch_s_per_pt"] = spans.median(
            "wf.solve_batch", STACK_CALLS, lambda i: wf.solve_batch(stack),
            per=len(stack),
        )

    with spans.span("probe:solvers"):
        systems = [
            assemble_system_blocks(H, e, *(s.sigma for s in rgf.self_energies(e)))
            for e in stack
        ]
        m["solvers.lu_factor_point_s"] = spans.median(
            "solvers.lu_factor_point", CALLS,
            lambda i: BlockTridiagLU(*systems[i % len(systems)]),
        )
        lu = BlockTridiagLU(*systems[0])
        m["solvers.block_column_s"] = spans.median(
            "solvers.block_column", CALLS, lambda i: lu.solve_block_column(0)
        )
        diag = [
            np.stack([system[0][j] for system in systems])
            for j in range(H.n_blocks)
        ]
        _, upper, lower = systems[0]
        m["solvers.lu_factor_batch_s_per_pt"] = spans.median(
            "solvers.lu_factor_batch", STACK_CALLS,
            lambda i: BatchedBlockTridiagLU(diag, upper, lower),
            per=len(stack),
        )

    with spans.span("probe:poisson"):
        mesh = built.poisson_grid
        donors = mesh.deposit(
            built.device.structure.positions, built.donors_per_atom
        ) / mesh.node_volume()
        gate = inp.get("gate_voltages", [0.0])[0]
        poisson = NonlinearPoisson(
            mesh, built.eps_r, donors,
            dirichlet_mask=built.gate_mask, dirichlet_values=gate,
        )
        charge = SemiclassicalCharge(
            mu=mu_s, band_edge=built.band_edge, m_rel=built.m_dos,
            kT=built.spec.kT, semiconductor_mask=built.semiconductor_mask,
        )
        solved = []
        m["poisson.solve_s"] = spans.median(
            "poisson.solve", CALLS,
            lambda i: solved.append(poisson.solve(charge, tol=1e-8, max_iter=60)),
        )
        m["poisson.newton_iterations"] = solved[-1].n_iterations

    with spans.span("probe:scf"):
        if workload.self_consistent:
            scf = SelfConsistentSolver(built, workload.calculation(state))
        else:
            scf = SelfConsistentSolver(
                built,
                workload.calculation(state, n_energy=SCF_PROBE["n_energy"]),
                max_iterations=SCF_PROBE["max_iterations"],
            )
        with spans.span("core.scf.point") as point:
            scf.run(gate, v_drain)
        m["core.scf.point_s"] = point["end"] - point["start"]

    with spans.span("probe:parallel"):
        def start_pool(i):
            get_backend("process", 2).map(noop, [0, 1])

        for _ in range(3):
            shutdown_pools()
            with spans.span("parallel.pool_start"):
                start_pool(0)
        m["parallel.pool_start_s"] = statistics.median(
            spans.durations("parallel.pool_start")
        )
        m["parallel.map_roundtrip_s"] = spans.median(
            "parallel.map_roundtrip", CALLS, start_pool
        )
        distributed = DistributedTransport(
            workload.calculation(
                state, energy_mode="uniform", backend="serial", workers=None
            ),
            backend="process", workers=2,
        )
        with spans.span("core.distributed.solve_bias") as solve:
            distributed.solve_bias(pot, v_drain, SerialComm(), n_ranks=2)
        m["core.distributed.solve_bias_s"] = solve["end"] - solve["start"]
    return m


def probe_variants(workload, state, spans: Spans, seconds: float) -> dict:
    """Whole executions under each safety net / backend, interleaved.

    Round-robins the plain execution with the same execution under a live
    tracer + metrics registry, with the health sentinel off, and (pooled
    workloads) on the serial backend, so that machine drift hits every
    variant alike; ratios are of medians.
    """
    task_bytes = []

    def observed():
        registry = MetricsRegistry()
        with use_tracer(Tracer()), use_metrics(registry):
            workload.execute(state)
        task_bytes.extend(
            h.total / h.count
            for key, h in registry.snapshot().histograms.items()
            if key.startswith("ipc.task_bytes") and "pickled" in key and h.count
        )

    def sentinel_off():
        with use_sentinel(HealthSentinel("off")):
            workload.execute(state)

    variants = {
        "execute": lambda: workload.execute(state),
        "execute:observed": observed,
        "execute:sentinel_off": sentinel_off,
    }
    if workload.backend_kwargs:
        variants["execute:serial_twin"] = lambda: workload.execute(
            state, backend="serial", workers=None
        )
    if workload.self_consistent:
        # one bias solve is not the whole execution
        calc, pot = state["calc"], workload.potential(state)
        variants["core.transport.solve_bias"] = lambda: calc.solve_bias(
            pot, state["inputs"]["v_drain"]
        )
    deadline = spans.clock() + seconds
    rounds = 0
    with spans.span("variants"):
        while rounds < 2 or spans.clock() < deadline:
            for name, fn in variants.items():
                with spans.span(name):
                    fn()
            rounds += 1
    wall = {
        name: statistics.median(spans.durations(name)) for name in variants
    }
    plain = wall["execute"]
    return {
        "wall_s": plain,
        "observability.trace_overhead_x": wall["execute:observed"] / plain,
        "resilience.sentinel_cost_x": plain / wall["execute:sentinel_off"],
        "parallel.speedup_x": wall.get("execute:serial_twin", plain) / plain,
        "core.transport.solve_bias_s": wall.get(
            "core.transport.solve_bias", wall.get("execute:serial_twin", plain)
        ),
        "parallel.task_bytes": (
            statistics.median(task_bytes) if task_bytes else 0.0
        ),
    }


def layer_budget(workload, outcome, m: dict, wall_s: float) -> dict:
    """Attribute one execution's wall time to layers: calls x per-call cost.

    The kernel share of a solve is the point solve minus the two surface
    GFs it contains; on a pooled workload the per-call costs run on
    ``workers`` processes at once.  What is left over is the Python
    driver around the layers (and dispatch/IPC, on a pool).
    """
    solves = outcome.solves
    iterations = outcome.exact_counts()["core.scf.iterations"]
    # one energy_grid + one per-k Hamiltonian build per transport solve
    transport_solves = (iterations + len(outcome.values)) if iterations else 1
    point = m["wf.solve_point_s" if workload.method == "wf" else "negf.rgf_point_s"]
    floor = min(
        point,
        m["wf.solve_batch_s_per_pt" if workload.method == "wf"
          else "negf.rgf_batch_s_per_pt"],
    )
    lanes = workload.backend_kwargs.get("workers", 1)
    surface = 2 * solves * m["negf.surface_gf_point_s"] / lanes
    budget = {
        "budget.surface_gf_s": surface,
        "budget.kernel_s": max(solves * point / lanes - surface, 0.0),
        "budget.hamiltonian_s": transport_solves * m["tb.hamiltonian_build_s"],
        "budget.energy_grid_s": transport_solves * m["core.transport.energy_grid_s"],
        "budget.poisson_s": iterations * m["poisson.solve_s"],
    }
    budget["budget.unattributed_s"] = wall_s - sum(budget.values())
    budget["core.transport.overhead_x"] = wall_s / (solves * floor)
    return budget
