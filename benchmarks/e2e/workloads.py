"""Workloads of the end-to-end benchmark.

Four closed-loop, single-client workloads, each driving only public APIs
in their *default configuration* (no ``batch_energies``, ``zero_copy``,
``sigma_cache`` or ``precision`` argument), chosen so that they stress
different layers (see ``README.md`` for the interaction table):

``scf_sweep_wf``             Poisson + SCF + Hamiltonian rebuilds + surface GF, WF kernel
``transport_uniform_chain``  one large uniform grid at m=1: per-point Python overhead
``transport_adaptive_chain`` the same layers as many small dependent waves
``transport_wide_process``   m=25 blocks on the process backend: LAPACK + dispatch/IPC

A workload turns a seed into JSON-able *inputs*, builds its *state* from
them (the part reported as ``setup_s``), *executes* one time-to-solution
run on that state and knows an independent *reference* for its outputs.
Seed 0 gives the canonical inputs; other seeds jitter them so slightly
that the amount of work stays within a few percent (a +-0.1 eV barrier
jitter moves the adaptive solve count by 2x and would turn every
end-to-end number into a function of the seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    DeviceSpec,
    IVSweep,
    SelfConsistentSolver,
    TransportCalculation,
    build_device,
)
from repro.negf import RGFSolver, dense_transmission, landauer_current
from repro.physics.grids import uniform_grid

#: Jitter amplitudes of the non-canonical seeds.
BARRIER_JITTER_EV = 0.0005
GATE_JITTER_V = 0.0005

_GRID_MATERIAL = {"m_rel": 0.3}
FET_SPEC = dict(
    name="e2e-fet", n_x=12, n_y=2, n_z=2, spacing_nm=0.25, source_cells=4,
    drain_cells=4, gate_cells=(4, 8), donor_density_nm3=0.05,
    material_params=_GRID_MATERIAL,
)
CHAIN_SPEC = dict(
    name="e2e-chain", n_x=40, n_y=1, n_z=1, spacing_nm=0.25, source_cells=4,
    drain_cells=4, gate_cells=(12, 28), donor_density_nm3=0.05,
    material_params=_GRID_MATERIAL,
)
WIDE_SPEC = dict(
    name="e2e-wide", n_x=48, n_y=5, n_z=5, spacing_nm=0.25, source_cells=8,
    drain_cells=8, gate_cells=(16, 32), donor_density_nm3=0.05,
    material_params=_GRID_MATERIAL,
)
#: Broadening of the chain: small enough that tunnelling sets the
#: resonance width (``bench_t7``'s device).
CHAIN_ETA = 5e-5


@dataclass
class Outcome:
    """Outputs and exact work counts of one execution."""

    values: list          # checked against the reference
    unchecked: list       # outputs without an oracle; must still repeat exactly
    solves: int           # (k, E) transport solves completed
    flops: float          # exact analytic FlopCounter total
    units: int            # bias points + energy nodes attempted
    failed: int           # unconverged points + quarantined/excluded nodes
    counts: dict = field(default_factory=dict)   # exact counts of its layers

    def exact_counts(self) -> dict:
        """Every count that must repeat exactly, by per-layer metric name."""
        return {
            "perf.flops_total": self.flops, "perf.solves_total": self.solves,
            "core.scf.iterations": 0, "physics.adaptive_waves": 0,
            "physics.adaptive_solved": 0, **self.counts,
        }

    def fingerprint(self) -> tuple:
        """Everything that must repeat exactly from execution to execution."""
        return (tuple(self.values), tuple(self.unchecked), self.units,
                self.failed, tuple(sorted(self.exact_counts().items())))


def noop(x):
    """The task of the pool-start and dispatch probes."""
    return x


def _jitter(seed: int, amplitude: float, n: int = 1) -> list:
    if seed == 0:
        return [0.0] * n
    rng = random.Random(seed)
    return [rng.uniform(-amplitude, amplitude) for _ in range(n)]


def _transport_outcome(result) -> Outcome:
    adaptive = result.adaptive or {}
    solves = int(adaptive.get("solved", result.transmission.size))
    quarantined = len(result.degradation.quarantined_points)
    return Outcome(
        values=[float(result.current_a)],
        unchecked=[],
        solves=solves,
        flops=float(result.flops.total),
        units=solves + 1,
        failed=quarantined + int(adaptive.get("excluded", 0)),
        counts={
            "physics.adaptive_waves": int(adaptive.get("waves", 0)),
            "physics.adaptive_solved": int(adaptive.get("solved", 0)),
        },
    )


class Workload:
    """Interface of one workload (see the module docstring)."""

    name = ""
    why = ""
    #: Largest relative deviation from the reference that still counts
    #: as correct.
    tolerance = 0.0
    method = "rgf"
    #: Backend arguments of the calculation; empty = the default (serial).
    backend_kwargs: dict = {}
    #: Whether an execution runs the SCF loop (else: one bias solve).
    self_consistent = False

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def build(self, inputs: dict) -> dict:
        return {"inputs": inputs, "built": build_device(DeviceSpec(**inputs["spec"]))}

    def setup(self, inputs: dict) -> dict:
        """``build_device`` + calculation construction + pool acquire."""
        state = self.build(inputs)
        state["calc"] = self.calculation(state)
        workers = self.backend_kwargs.get("workers")
        if workers:
            # the pool starts its workers on first use; a user pays that
            # before the first solve, so it belongs to set-up
            state["calc"].backend.map(noop, list(range(workers)))
        return state

    def calculation(self, state: dict, **overrides) -> TransportCalculation:
        kwargs = dict(method=self.method, **state["inputs"]["calc"])
        kwargs.update(self.backend_kwargs)
        kwargs.update(overrides)
        return TransportCalculation(state["built"], **kwargs)

    def potential(self, state: dict) -> np.ndarray:
        """Per-atom potential energy (eV) the transport layers are probed at."""
        raise NotImplementedError

    def execute(self, state: dict, **overrides) -> Outcome:
        """One time-to-solution run; ``overrides`` build the serial twin."""
        calc = self.calculation(state, **overrides)
        result = calc.solve_bias(self.potential(state), state["inputs"]["v_drain"])
        return self.outcome(result)

    def outcome(self, result) -> Outcome:
        return _transport_outcome(result)

    def reference(self, state: dict) -> list:
        """Oracle outputs for ``state["inputs"]``, by an independent path."""
        raise NotImplementedError

    def rel_error(self, outcome: Outcome, reference: list) -> float:
        return max(
            abs(v - r) / max(abs(r), 1e-300)
            for v, r in zip(outcome.values, reference, strict=True)
        )


class ScfSweepWF(Workload):
    name = "scf_sweep_wf"
    why = ("SCF transfer sweep on the WF kernel: the only workload where poisson, "
           "core.scf, tb Hamiltonian rebuilds and Sancho-Rubio carry the time")
    tolerance = 1e-2
    method = "wf"
    self_consistent = True

    def inputs(self, seed):
        gates = [-0.4, -0.3, -0.2]
        return {
            "spec": FET_SPEC,
            "calc": {"n_energy": 41},
            "gate_voltages": [
                v + dv for v, dv in zip(gates, _jitter(seed, GATE_JITTER_V, 3))
            ],
            "v_drain": 0.05,
        }

    def potential(self, state):
        if "potential" not in state:
            inp = state["inputs"]
            scf = SelfConsistentSolver(state["built"], self.calculation(state))
            state["potential"] = scf.run(
                inp["gate_voltages"][0], inp["v_drain"]
            ).potential_ev
        return state["potential"]

    def sweep(self, built, calc, inputs, **scf_kwargs):
        scf = SelfConsistentSolver(built, calc, **scf_kwargs)
        return IVSweep(scf).transfer_curve(
            inputs["gate_voltages"], v_drain=inputs["v_drain"]
        )

    def execute(self, state, **overrides):
        curve = self.sweep(
            state["built"], self.calculation(state, **overrides), state["inputs"]
        )
        # every SCF iteration and the final report are one transport solve
        solves = sum(
            (p.n_iterations + 1) * p.n_energy_nodes for p in curve.points
        )
        unconverged = sum(not p.converged for p in curve.points)
        return Outcome(
            values=[float(i) for i in curve.currents()],
            unchecked=[],
            solves=solves,
            flops=float(curve.flops.total),
            units=solves + len(curve.points),
            failed=unconverged + len(curve.degradation.quarantined_points),
            counts={
                "core.scf.iterations": sum(p.n_iterations for p in curve.points),
            },
        )

    def reference(self, state):
        """The same sweep on the other kernel (RGF), converged 10x tighter."""
        built, inputs = state["built"], state["inputs"]
        calc = TransportCalculation(built, method="rgf", **inputs["calc"])
        curve = self.sweep(built, calc, inputs, tol_v=2e-5)
        return [float(i) for i in curve.currents()]


class _Chain(Workload):
    """The 40-block m=1 double-barrier resonant chain of ``bench_t7``."""

    #: Nodes of the dense oracle grid (a 2^k + 1 uniform grid is converged
    #: to 1e-8 from 16385 nodes on this device, BENCH_adaptive.json).
    n_oracle = 16385
    calc_kwargs: dict = {}

    def inputs(self, seed):
        return {
            "spec": CHAIN_SPEC,
            "calc": dict(eta=CHAIN_ETA, **self.calc_kwargs),
            "barrier_ev": 0.7 + _jitter(seed, BARRIER_JITTER_EV)[0],
            "v_drain": 0.05,
        }

    def potential(self, state):
        """Two 6-site barriers around a 10-site well."""
        pot = np.zeros(state["built"].n_atoms)
        pot[9:15] = pot[25:31] = state["inputs"]["barrier_ev"]
        return pot

    def reference(self, state):
        """Batched-kernel transmissions on the oracle grid + Landauer."""
        built, inputs = state["built"], state["inputs"]
        calc = TransportCalculation(
            built, method="rgf", eta=CHAIN_ETA,
            n_energy=inputs["calc"]["n_energy"],
        )
        pot, v_drain = self.potential(state), inputs["v_drain"]
        window = calc.energy_grid(pot, v_drain).energies
        grid = uniform_grid(
            float(window[0]), float(window[-1]),
            self.n_oracle or len(window),
        )
        solver = RGFSolver(calc.hamiltonian(pot), eta=calc.eta)
        batch = solver.solve_batch([float(e) for e in grid.energies])
        return [float(landauer_current(
            grid, np.array([r.transmission for r in batch]),
            built.contact_mu("source"), built.contact_mu("drain", v_drain),
            built.spec.kT, spin_degeneracy=calc.spin_degeneracy,
        ))]


class TransportUniformChain(_Chain):
    name = "transport_uniform_chain"
    why = ("one large uniform energy grid at block size 1: pure per-point Python and "
           "solver-construction overhead, where kernel-flop work shows nothing")
    # checked against the batched kernel on the *same* grid: a 513-node
    # trapezoid is 40% from the converged current of this resonant
    # device, which is a property of the grid, not of the code
    tolerance = 1e-9
    n_oracle = 0
    calc_kwargs = {"n_energy": 513}


class TransportAdaptiveChain(_Chain):
    name = "transport_adaptive_chain"
    why = ("same device and layers as many small dependent waves: a gain bought with "
           "large-batch assumptions or per-dispatch set-up cost shows here as a loss")
    tolerance = 2e-3
    calc_kwargs = {
        "n_energy": 128, "energy_mode": "adaptive", "adaptive_tol": 1e-3,
        "adaptive_max_passes": 12, "max_energy_points": 16384,
    }


class TransportWideProcess(Workload):
    name = "transport_wide_process"
    why = ("m=25 blocks on two worker processes: LAPACK time and dispatch/IPC dominate, "
           "per-point Python is small, naive wide batching regresses")
    tolerance = 1e-9
    backend_kwargs = {"backend": "process", "workers": 2}
    #: Grid nodes whose transmission is checked against dense inversion.
    n_checked = 2

    def inputs(self, seed):
        return {
            "spec": WIDE_SPEC,
            "calc": {"n_energy": 129},
            "gate_bump_ev": _jitter(seed, BARRIER_JITTER_EV)[0],
            "v_drain": 0.05,
        }

    def potential(self, state):
        """Flat, plus the seed's bump under the gate."""
        built = state["built"]
        x = built.device.structure.positions[:, 0]
        lo, hi = (c * built.spec.spacing_nm for c in built.spec.gate_cells)
        under_gate = (x >= lo - 1e-9) & (x < hi - 1e-9)
        return np.where(under_gate, state["inputs"]["gate_bump_ev"], 0.0)

    def _checked_nodes(self, n_energy):
        return [int(i) for i in np.linspace(0, n_energy - 1, self.n_checked + 2)[1:-1]]

    def outcome(self, result):
        outcome = _transport_outcome(result)
        # the current has no independent oracle at this size: check T(E)
        outcome.unchecked = outcome.values
        outcome.values = [
            float(result.transmission[0, i])
            for i in self._checked_nodes(len(result.energy_grid))
        ]
        return outcome

    def reference(self, state):
        """Dense-inversion transmission at the checked nodes."""
        inputs = state["inputs"]
        calc = TransportCalculation(state["built"], method="rgf", **inputs["calc"])
        pot = self.potential(state)
        grid = calc.energy_grid(pot, inputs["v_drain"])
        H = calc.hamiltonian(pot)
        leads = (H.diagonal[0], H.upper[0]), (H.diagonal[-1], H.upper[-1])
        return [
            dense_transmission(H, float(grid.energies[i]), *leads, eta=calc.eta)
            for i in self._checked_nodes(len(grid))
        ]


WORKLOADS = {
    w.name: w for w in (
        ScfSweepWF(), TransportUniformChain(), TransportAdaptiveChain(),
        TransportWideProcess(),
    )
}
