"""Recovery policies: the surface-GF degradation ladder and SCF rescue.

Two families of recovery, cheapest first (re-attempting a bias point
that raised is the retry loop of :class:`repro.core.IVSweep`):

* :func:`robust_surface_gf` — the surface-GF degradation ladder: when
  Sancho-Rubio stalls at a band edge, escalate ``eta`` by decades, and if
  decimation never contracts fall back to the complex-band
  :func:`repro.negf.eigen_surface_gf` construction.
* :class:`SCFRescue` — the bias-point rescue ladder: cold restart (drop
  the possibly-poisoned warm start), halve the mixing damping, switch
  Anderson -> linear mixing, shrink the bias-continuation step.  Each rung
  trades speed for robustness, mirroring what an operator does by hand
  when a production bias point refuses to converge.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import NumericalBreakdownError, SurfaceGFConvergenceError

__all__ = ["robust_surface_gf", "SCFRescue"]


# ----------------------------------------------------------------------
def robust_surface_gf(
    energy: float,
    h00,
    h01,
    side: str = "left",
    eta: float = 1e-6,
    tol: float = 1e-14,
    max_iter: int = 200,
    eta_ladder: tuple = (10.0, 100.0),
):
    """Surface GF with the eta-escalation / eigen-fallback ladder.

    Tries Sancho-Rubio at the nominal ``eta``; on
    :class:`SurfaceGFConvergenceError` escalates ``eta`` by each factor of
    ``eta_ladder`` (a slightly-degraded but finite answer beats an aborted
    sweep), and as a last resort switches to the complex-band
    :func:`repro.negf.eigen_surface_gf` construction, which has no fixed
    point to stall.

    Returns
    -------
    (g, path) : (ndarray, str)
        The surface GF and the recovery path taken (``"sancho"``,
        ``"sancho-eta*10"``, ..., ``"eigen"``).
    """
    from ..negf.surface_gf import eigen_surface_gf, sancho_rubio
    from ..observability.telemetry import get_metrics

    metrics = get_metrics()
    for factor in (None, *eta_ladder):  # None: the nominal eta
        if factor is not None and metrics.enabled:
            metrics.inc(
                "surface_gf.eta_escalations", 1.0, factor=f"{factor:g}"
            )
        try:
            g, _ = sancho_rubio(
                energy, h00, h01, side=side,
                eta=eta if factor is None else eta * factor,
                tol=tol, max_iter=max_iter,
            )
        except SurfaceGFConvergenceError:
            continue
        return g, "sancho" if factor is None else f"sancho-eta*{factor:g}"
    if metrics.enabled:
        metrics.inc("surface_gf.eigen_fallbacks", 1.0)
    try:
        g = eigen_surface_gf(energy, h00, h01, side=side, eta=max(eta, 1e-9))
    except (np.linalg.LinAlgError, ValueError) as exc:
        # poisoned lead blocks break the generalized eigensolver too;
        # surface the whole exhausted ladder as one typed error so the
        # transport degradation ladder can quarantine the point
        raise SurfaceGFConvergenceError(
            f"surface-GF ladder exhausted (eigen fallback failed: {exc}) "
            f"at E = {energy}, eta = {eta}",
            energy=energy,
            eta=eta,
        ) from exc
    return g, "eigen"


# ----------------------------------------------------------------------
@contextlib.contextmanager
def _overridden(obj, overrides: dict):
    """Temporarily set attributes on ``obj`` (restored on exit)."""
    saved = {name: getattr(obj, name) for name in overrides}
    try:
        for name, value in overrides.items():
            setattr(obj, name, value)
        yield obj
    finally:
        for name, value in saved.items():
            setattr(obj, name, value)


class SCFRescue:
    """Rescue ladder for a non-converged SCF bias point.

    The rungs, in order (first convergence wins):

    1. ``cold-restart`` — drop the warm start (only when one was used);
    2. ``beta-halved`` — halve the mixing damping;
    3. ``linear-mixing`` — Anderson -> plain linear mixing at halved beta
       (Anderson's least-squares history can amplify a noisy density);
    4. ``continuation-halved`` — halve the drain-bias continuation step
       (finer ramp, each stage closer to the previous fixed point), down
       to :attr:`MIN_CONTINUATION_STEP`.
    """

    #: Floor of rung 4's continuation step (V).
    MIN_CONTINUATION_STEP = 0.03

    def stages(self, solver, used_warm_start: bool, continuation_step: float):
        """The (name, attr-overrides, continuation_step) rungs to try."""
        half_beta = 0.5 * solver.beta
        out = []
        if used_warm_start:
            out.append(("cold-restart", {}, continuation_step))
        out.append(("beta-halved", {"beta": half_beta}, continuation_step))
        if solver.mixing != "linear":
            out.append(
                (
                    "linear-mixing",
                    {"beta": half_beta, "mixing": "linear"},
                    continuation_step,
                )
            )
        shrunk = max(0.5 * continuation_step, self.MIN_CONTINUATION_STEP)
        if continuation_step > 0 and shrunk < continuation_step:
            out.append(
                (
                    "continuation-halved",
                    {"beta": half_beta, "mixing": "linear"},
                    shrunk,
                )
            )
        return out

    def run(
        self,
        solver,
        v_gate: float,
        v_drain: float,
        used_warm_start: bool = False,
        continuation_step: float = 0.12,
    ):
        """Climb the ladder at one bias point; returns (result, path).

        ``result`` is the first converged :class:`repro.core.SCFResult`,
        or the best (lowest final residual) attempt if every rung fails;
        ``path`` is the tuple of rung names tried.
        """
        path: list[str] = []
        best = None
        for name, overrides, step in self.stages(
            solver, used_warm_start, continuation_step
        ):
            path.append(name)
            with _overridden(solver, overrides):
                result = solver.run(
                    v_gate, v_drain, phi0=None, continuation_step=step
                )
            if result.converged:
                return result, tuple(path)
            if best is None or (
                result.residuals
                and best.residuals
                and result.residuals[-1] < best.residuals[-1]
            ):
                best = result
        if best is None:
            raise NumericalBreakdownError(
                f"SCF rescue ladder has no rungs at V_G={v_gate}, V_D={v_drain}"
            )
        return best, tuple(path)
