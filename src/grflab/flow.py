"""Generalized Ricci flow reduced to left-invariant data on SU(2):
dg/dt = -2 Rc + (1/2) H^2, db/dt = -d*H, integrated by RK4. Invariant
2-forms on SU(2) are closed, so H = H0 + db is the constant H0 vol.

*H of an invariant 3-form is a constant function, so d*H = 0 and b never
moves: ``step_rk4`` integrates g alone and carries b as it is. d*H is still
evaluated where it is checked, each time read from the one cached
``Geometry.dstar_H``: ``grf_rhs`` returns -d*H as db/dt, the dual-path check
``dual_path_residual`` adds it in, and ``soliton_residual`` adds its norm once
per sample.

lambda is the constant potential R - |H|^2/12 of the invariant data, so
``flow_lambda`` reads it off the state's float64 ``Geometry`` like every
other quantity of the flow."""

from dataclasses import dataclass

import numpy as np

from .tensors import Geometry, SingularMetric
from .variational import lambda_min


class FlowBlowup(RuntimeError):
    def __init__(self, message, samples):
        super().__init__(message)
        self.samples = samples  # the samples taken before the blowup


@dataclass
class FlowState:
    g: np.ndarray
    b: np.ndarray
    H0_coeff: float
    t: float = 0.0

    def __post_init__(self):
        self.g = np.array(self.g, dtype=float)
        self.b = np.array(self.b, dtype=float)

    def geometry(self):
        """The float64 Geometry of (g, H0 vol); b does not enter, since db = 0."""
        return Geometry(self.g, self.H0_coeff)

    def copy_with(self, g, b, t):
        return FlowState(g=g, b=b, H0_coeff=self.H0_coeff, t=t)


def _g_rate(g, h0):
    """(Geometry of (g, h0 vol), dg/dt = -2 Rc + H^2/2). g must pass
    Sylvester's test, on the leading minors the Geometry has computed."""
    geo = Geometry(g, h0)
    if any(d <= 0 for d in geo.minors):
        raise SingularMetric("metric is not positive definite")
    return geo, -2.0 * geo.Rc + 0.5 * geo.H2


def grf_rhs(state):
    """Right side (dg/dt, db/dt) of the flow, with db/dt = -d*H computed."""
    geo, dg = _g_rate(state.g, state.H0_coeff)
    return dg, -geo.dstar_H


def dual_path_residual(state):
    """Max-norm of (dg - db) + 2 Rc+, which must vanish identically."""
    geo, dg = _g_rate(state.g, state.H0_coeff)
    return float(np.abs((dg + geo.dstar_H) + 2.0 * geo.Rc_plus).max())


def soliton_residual(state):
    """Frobenius norm of Rc - H^2/4 plus the norm of d*H (constant f)."""
    geo = state.geometry()
    return float(np.linalg.norm(geo.Rc - geo.H2 / 4.0) + np.linalg.norm(geo.dstar_H))


def flow_lambda(state):
    """lambda of the current state: the constant potential R - |H|^2/12 of
    its float64 Geometry."""
    return float(lambda_min(state.geometry()))


def step_rk4(state, dt):
    """One classical fourth-order Runge-Kutta step of g; b is carried as it
    is, since db/dt = -d*H = 0 on invariant data."""
    g0, h0 = state.g, state.H0_coeff

    def rate(g):
        return _g_rate(g, h0)[1]

    k1 = rate(g0)
    k2 = rate(g0 + dt / 2 * k1)
    k3 = rate(g0 + dt / 2 * k2)
    k4 = rate(g0 + dt * k3)
    return state.copy_with(g0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), state.b, state.t + dt)


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
            try:
                state = step_rk4(state, dt)
            except SingularMetric:
                raise FlowBlowup(f"metric degenerated at step {n}", samples)
            if not np.isfinite(np.linalg.det(state.g)):
                raise FlowBlowup(f"metric left float64 range at step {n}", samples)
            if np.linalg.eigvalsh(state.g).min() < 1e-10:
                raise FlowBlowup(f"metric degenerated at step {n}", samples)
            if n % sample_every == 0 or n == steps:
                sample(state)
    return samples
