"""Self-consistent Poisson-transport (Gummel) loop.

One bias point of a transistor is a fixed point between two solvers:

    transport(phi)  ->  electron density  n
    Poisson(n)      ->  electrostatic potential  phi

The loop implemented here is the standard quantum-device Gummel iteration:
the quantum density from the transport kernel is wrapped in an exponential
predictor (:class:`repro.poisson.QuantumCorrectedCharge`) so each Poisson
solve is a damped Newton step on the *coupled* system, and the outer
update is Anderson-accelerated.  Convergence histories (residual vs
iteration, Anderson vs plain mixing) are experiment F7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SCFConvergenceError
from ..observability.telemetry import get_metrics, get_monitor
from ..perf.flops import FlopCounter
from ..poisson.charge import QuantumCorrectedCharge, SemiclassicalCharge
from ..poisson.nonlinear import AndersonMixer, NonlinearPoisson
from ..resilience.degrade import DegradationReport
from ..resilience.health import get_sentinel
from .device import BuiltDevice
from .transport import TransportCalculation, TransportResult

__all__ = ["SCFResult", "SelfConsistentSolver"]


@dataclass
class SCFResult:
    """Converged (or last) state of one bias point.

    Attributes
    ----------
    phi : ndarray
        Electrostatic potential per Poisson node (V).
    potential_ev : ndarray
        Electron potential energy per atom (eV).
    transport : TransportResult
        The final transport solve (current, T(E), density).
    residuals : list of float
        max|phi_new - phi_old| per iteration (V).
    converged : bool
    n_iterations : int
    flops : FlopCounter
        Accumulated over the transport solves this bias point ran
        (continuation-ramp stages included; a first iterate taken over
        from the previous point's report was charged there).
    degradation : DegradationReport or None
        Merged self-healing account over every transport solve of the
        bias point (including continuation-ramp stages).
    """

    phi: np.ndarray
    potential_ev: np.ndarray
    transport: TransportResult
    residuals: list
    converged: bool
    n_iterations: int
    flops: FlopCounter
    degradation: DegradationReport | None = None


class SelfConsistentSolver:
    """Gummel-type Poisson-transport iteration for one device.

    Built once per solver: the :class:`repro.poisson.NonlinearPoisson`
    operator (:attr:`poisson` — mesh, permittivity and gate *mask*; the
    gate value is data of each Poisson solve) and the atom↔node map
    (:attr:`atoms`, a :class:`repro.poisson.AtomMap`: every deposit of a
    density and read-back of a potential).  Kept between runs: the last
    report (potential, drain bias, transport result).  A run whose
    first iterate is exactly that potential at that drain bias — point
    n + 1 of a warm-started transfer sweep — takes the result over
    instead of solving it a second time.

    Parameters
    ----------
    built : BuiltDevice
    transport : TransportCalculation or None
        Defaults to a WF calculation with standard settings.
    tol_v : float
        Convergence threshold on max|delta phi| (V); must be > 0.
    max_iterations : int
        Outer-iteration budget; must be >= 1.
    mixing : {"anderson", "linear"}
        Outer-loop accelerator (ablated in experiment F7).
    beta : float
        Mixing damping; must be > 0.
    """

    def __init__(
        self,
        built: BuiltDevice,
        transport: TransportCalculation | None = None,
        tol_v: float = 2e-4,
        max_iterations: int = 60,
        mixing: str = "anderson",
        beta: float = 0.6,
    ):
        if mixing not in ("anderson", "linear"):
            raise ValueError("mixing must be 'anderson' or 'linear'")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not tol_v > 0:
            raise ValueError("tol_v must be positive")
        if not beta > 0:
            raise ValueError("beta must be positive")
        self.built = built
        self.transport = transport or TransportCalculation(built)
        self.tol_v = tol_v
        self.max_iterations = max_iterations
        self.mixing = mixing
        self.beta = beta
        grid = built.poisson_grid
        self.atoms = grid.atom_map(built.device.structure.positions)
        donor_nodes = (
            self.atoms.deposit(built.donors_per_atom) / grid.node_volume()
        )
        self.poisson = NonlinearPoisson(
            grid, built.eps_r, donor_nodes, dirichlet_mask=built.gate_mask
        )
        # (calculation, potential_ev, v_drain, TransportResult) of the last
        # report; taken (and cleared) by the next run
        self._report = None

    # ------------------------------------------------------------------
    def initial_potential(self, v_gate: float, v_drain: float) -> np.ndarray:
        """Semiclassical equilibrium guess plus a linear drain ramp."""
        built = self.built
        model = SemiclassicalCharge(
            mu=built.contact_mu("source"),
            band_edge=built.band_edge,
            m_rel=built.m_dos,
            kT=built.spec.kT,
            semiconductor_mask=built.semiconductor_mask,
        )
        res = self.poisson.solve(
            model, tol=1e-8, max_iter=60, dirichlet_values=v_gate
        )
        phi = res.phi
        # drain ramp: the drain floats up by v_drain (electron energy down)
        x = built.poisson_grid.coordinates()[:, 0]
        x0, x1 = x.min(), x.max()
        ramp = v_drain * np.clip((x - x0) / max(x1 - x0, 1e-12), 0.0, 1.0)
        phi = phi + np.where(self.built.gate_mask, 0.0, ramp)
        return phi

    def atom_potential_ev(self, phi: np.ndarray) -> np.ndarray:
        """Electron potential energy per atom: U = -phi(atom) (eV)."""
        return -self.atoms.interpolate(phi)

    # ------------------------------------------------------------------
    def _solve_transport(self, potential_ev, v_drain, flops, degradation):
        """One transport solve, charged to ``flops`` and ``degradation``."""
        # integrate on the explicit uniform window grid: adaptive
        # refinement re-selects its nodes as the potential moves, which
        # injects non-smooth quadrature noise into the fixed-point map and
        # stalls the mixer (and a refined grid would report observables
        # of a *different* quadrature than the one the converged
        # density/potential pair satisfies).  Passing the grid is
        # bit-identical to the default in uniform mode.
        result = self.transport.solve_bias(
            potential_ev, v_drain,
            energy_grid=self.transport.energy_grid(potential_ev, v_drain),
        )
        flops.merge(result.flops)
        if result.degradation is not None:
            degradation.merge(result.degradation)
        get_metrics().inc("scf.transport_solves", 1.0)
        return result

    def _iterate(self, v_gate, v_drain, phi0, flops, degradation, handed=None):
        """Fixed-point loop at one bias: ``(phi, residuals, converged)``.

        Ends at convergence (or the iteration budget) without a report
        solve — all a continuation-ramp stage needs.  ``handed`` is the
        previous run's report; when it was solved by the same calculation
        at exactly the first iterate's potential and drain bias it *is*
        that iterate's transport solve, already charged where it ran.
        """
        built = self.built
        vol = built.poisson_grid.node_volume()
        calc, u_report, vd_report, report = handed or (None,) * 4
        phi = (
            self.initial_potential(v_gate, v_drain)
            if phi0 is None
            else np.array(phi0, dtype=float)
        )
        mixer = AndersonMixer(depth=4 if self.mixing == "anderson" else 0,
                              beta=self.beta)
        residuals: list[float] = []
        converged = False
        metrics = get_metrics()
        bias_labels = {"vg": f"{v_gate:.4g}", "vd": f"{v_drain:.4g}"}
        if metrics.enabled:
            metrics.gauge("scf.damping_beta", self.beta)

        for iteration in range(self.max_iterations):
            u_atoms = self.atom_potential_ev(phi)
            if (
                iteration == 0
                and calc is self.transport
                and vd_report == v_drain
                and np.array_equal(u_report, u_atoms)
            ):
                transport_result = report
                metrics.inc("scf.transport_reused", 1.0)
            else:
                transport_result = self._solve_transport(
                    u_atoms, v_drain, flops, degradation
                )
            n_nodes = self.atoms.deposit(transport_result.density_per_atom) / vol
            model = QuantumCorrectedCharge(
                n_reference=n_nodes, phi_reference=phi, kT=built.spec.kT
            )
            poisson_result = self.poisson.solve(
                model, phi0=phi, tol=1e-9, max_iter=40,
                dirichlet_values=v_gate,
            )
            phi_new = poisson_result.phi
            residual = float(np.abs(phi_new - phi).max())
            residuals.append(residual)
            if metrics.enabled:
                metrics.record(
                    "scf.residual_v", residual, step=iteration, **bias_labels
                )
                metrics.record(
                    "scf.poisson_iterations",
                    float(getattr(poisson_result, "n_iterations", 0)),
                    step=iteration, **bias_labels,
                )
                metrics.inc("scf.iterations", 1.0)
                metrics.observe("scf.residual_hist", residual)
            phi = mixer.update(phi, phi_new)
            phi[built.gate_mask] = v_gate
            if residual < self.tol_v:
                converged = True
                break

        # max_iterations >= 1 is validated in __init__, so at least one
        # iteration ran (no assert — those vanish under python -O)
        if not residuals:
            raise SCFConvergenceError(
                "SCF loop executed zero iterations",
                v_gate=v_gate,
                v_drain=v_drain,
            )
        return phi, residuals, converged

    def run(
        self,
        v_gate: float,
        v_drain: float,
        phi0: np.ndarray | None = None,
        continuation_step: float = 0.12,
    ) -> SCFResult:
        """Iterate to self-consistency at one (V_G, V_D) bias point.

        Cold starts at large drain bias are ramped: the bias is applied in
        steps of at most ``continuation_step`` volts, each warm-starting
        the next (standard bias stepping — the high-bias fixed point is
        only reachable from nearby potentials).  Pass
        ``continuation_step=0`` to disable.
        """
        sentinel = get_sentinel()
        degradation = DegradationReport()
        marker0 = sentinel.marker()
        flops = FlopCounter()
        # a run that fails leaves the slot empty, so a retry solves
        handed, self._report = self._report, None
        ramp_iterations = 0
        if (
            phi0 is None
            and continuation_step > 0
            and abs(v_drain) > continuation_step
        ):
            n_steps = int(np.ceil(abs(v_drain) / continuation_step))
            phi_ramp = None
            for step in range(1, n_steps):
                phi_ramp, stage_residuals, _ = self._iterate(
                    v_gate, v_drain * step / n_steps, phi_ramp, flops,
                    degradation
                )
                ramp_iterations += len(stage_residuals)
            phi0 = phi_ramp
        phi, residuals, converged = self._iterate(
            v_gate, v_drain, phi0, flops, degradation, handed
        )
        # final transport at the converged potential for reporting
        u_final = self.atom_potential_ev(phi)
        final = self._solve_transport(u_final, v_drain, flops, degradation)
        self._report = (self.transport, u_final, v_drain, final)
        # the outer window contains every transport window above, so the
        # authoritative trip counts come from the sweep-level ledger
        degradation.set_trips(sentinel.trips_since(marker0))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("scf.bias_points", 1.0)
            metrics.inc(
                "scf.converged" if converged else "scf.unconverged", 1.0
            )
            metrics.observe(
                "scf.iterations_per_bias", float(len(residuals))
            )
        monitor = get_monitor()
        labels = {"v_gate": f"{v_gate:.4g}", "v_drain": f"{v_drain:.4g}"}
        monitor.check_density(final.density_per_atom, **labels)
        monitor.check_charge_neutrality(
            float(np.sum(final.density_per_atom)),
            float(np.sum(self.built.donors_per_atom)),
            **labels,
        )
        return SCFResult(
            phi=phi,
            # not u_final: the slot's copy must not alias a caller's array
            potential_ev=self.atom_potential_ev(phi),
            transport=final,
            residuals=residuals,
            converged=converged,
            n_iterations=len(residuals) + ramp_iterations,
            flops=flops,
            degradation=degradation,
        )
