"""Generalized Ricci flow reduced to left-invariant data on SU(2):
dg/dt = -2 Rc + (1/2) H^2, integrated by RK4. Invariant 2-forms on SU(2) are
closed and *H of an invariant 3-form is a constant function, so d*H = 0: the
torsion stays H0 vol and the flow is an ODE in g alone. ``grf_rhs`` returns
dg/dt; the CLI still prints b11..b33 as 0.0, for its output contract.

One float64 ``Geometry`` serves each state, built once on first use:
``run_flow``'s range check on det g, the first RK4 stage, the dual-path check
``dual_path_residual`` (which adds the cached d*H in), the soliton residual
and ``flow_lambda``, the constant potential R - |H|^2/12, all read it."""

from dataclasses import dataclass

import numpy as np

from .tensors import Geometry, SingularMetric, cached
from .variational import lambda_min


class FlowBlowup(RuntimeError):
    def __init__(self, message, samples):
        super().__init__(message)
        self.samples = samples  # the samples taken before the blowup


@dataclass(frozen=True, eq=False)
class FlowState:
    """One point of the flow. g is a float64 array, kept without a copy when
    it is one, as step_rk4 makes. A state and its array are not changed after
    it is made, so its Geometry is built once. States compare by identity."""

    g: np.ndarray
    H0_coeff: float
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))

    @cached
    def geometry(self):
        """The float64 Geometry of (g, H0 vol)."""
        return Geometry(self.g, self.H0_coeff)


def _g_rate(geo):
    """dg/dt = -2 Rc + H^2/2 of geo. Its metric must pass Sylvester's test, on
    the leading minors the Geometry has computed."""
    if any(d <= 0 for d in geo.minors):
        raise SingularMetric("metric is not positive definite")
    return -2.0 * geo.Rc + 0.5 * geo.H2


def grf_rhs(state):
    """Right side dg/dt of the flow."""
    return _g_rate(state.geometry)


def dual_path_residual(state):
    """Max-norm of (dg + d*H) + 2 Rc+, which must vanish identically."""
    geo = state.geometry
    return float(np.abs((_g_rate(geo) + geo.dstar_H) + 2.0 * geo.Rc_plus).max())


def soliton_residual(state):
    """Frobenius norm of Rc - H^2/4 (constant f)."""
    geo = state.geometry
    return float(np.linalg.norm(geo.Rc - geo.H2 / 4.0))


def flow_lambda(state):
    """lambda of the current state: the constant potential R - |H|^2/12 of
    its float64 Geometry."""
    return float(lambda_min(state.geometry))


def step_rk4(state, dt):
    """One classical fourth-order Runge-Kutta step of g."""
    g0, h0 = state.g, state.H0_coeff

    def rate(g):
        return _g_rate(Geometry(g, h0))

    k1 = _g_rate(state.geometry)
    k2 = rate(g0 + dt / 2 * k1)
    k3 = rate(g0 + dt / 2 * k2)
    k4 = rate(g0 + dt * k3)
    return FlowState(g0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), h0, state.t + dt)


def run_flow(initial, dt, steps, sample_every=1):
    """Integrate the flow and return its samples (t, state, lambda, soliton residual)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    samples = []
    state = initial

    def sample(s):
        # the residual is read first: an initial state whose curvature overflows
        # is reported as such, not as a lambda that does not fit
        residual = soliton_residual(s)
        if not samples and not np.isfinite(residual):
            raise ValueError("curvature of the initial state does not fit in a float64")
        samples.append((s.t, s, flow_lambda(s), residual))

    # float64 overflow is reported as an error, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sample(state)
        for n in range(1, steps + 1):
            # the new state's Geometry, which the next step's k1 reads, holds
            # det g; an exactly singular g fails to build it
            try:
                state = step_rk4(state, dt)
                det = state.geometry.det
            except SingularMetric:
                raise FlowBlowup(f"metric degenerated at step {n}", samples)
            if not np.isfinite(det):
                raise FlowBlowup(f"metric left float64 range at step {n}", samples)
            if np.linalg.eigvalsh(state.g).min() < 1e-10:
                raise FlowBlowup(f"metric degenerated at step {n}", samples)
            if n % sample_every == 0 or n == steps:
                sample(state)
    return samples
