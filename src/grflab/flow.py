"""Generalized Ricci flow reduced to left-invariant data on SU(2):
dg/dt = -2 Rc + (1/2) H^2, db/dt = -d*H, integrated by RK4. Invariant
2-forms on SU(2) are closed, so H = H0 + db is the constant H0 vol."""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .frames import EPS, STRUCTURE
from .tensors import SingularMetric, christoffel, riemann
from .variational import lambda_min


class FlowBlowup(RuntimeError):
    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


_VOL = np.array(EPS, dtype=float)
_C = np.array(STRUCTURE, dtype=float)


@dataclass
class FlowState:
    g: np.ndarray
    b: np.ndarray
    H0_coeff: float
    t: float = 0.0

    def __post_init__(self):
        self.g = np.array(self.g, dtype=float)
        self.b = np.array(self.b, dtype=float)

    def torsion(self):
        """H = H0 vol: db vanishes for every invariant 2-form b."""
        return self.H0_coeff * _VOL

    def copy_with(self, g, b, t):
        return FlowState(g=g, b=b, H0_coeff=self.H0_coeff, t=t)


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)  # (t, FlowState, lambda, residual)

    def times(self):
        return [s[0] for s in self.samples]

    def lambdas(self):
        return [s[2] for s in self.samples]

    def residuals(self):
        return [s[3] for s in self.samples]


def _covd3(gamma, H):
    """Covariant derivative of an invariant 3-tensor, derivative index first."""
    return -(np.einsum("mip,pjk->mijk", gamma, H)
             + np.einsum("mjp,ipk->mijk", gamma, H)
             + np.einsum("mkp,ijp->mijk", gamma, H))


def curvature_quantities(g, H):
    """Rc, H^2, d*H, Rc+ for invariant (g, H), all as frame matrices."""
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(str(exc)) from exc
    gamma = christoffel(_C, g, ginv)
    rc = np.einsum("ijkl,il->jk", riemann(_C, gamma, g), ginv)
    h2 = np.einsum("ipq,jrs,pr,qs->ij", H, H, ginv, ginv)
    dstar_h = -np.einsum("mnjk,mn->jk", _covd3(gamma, H), ginv)
    hup = np.einsum("mik,pk->mip", H, ginv)
    rcp = np.einsum("ijkl,il->jk", riemann(_C, gamma + hup / 2.0, g), ginv)
    return {"Rc": rc, "H2": h2, "dstarH": dstar_h, "Rc+": rcp, "ginv": ginv}


def grf_rhs(state):
    """Right side (dg/dt, db/dt) of the flow, checked against the -2 Rc+ path."""
    eig = np.linalg.eigvalsh(state.g)
    if eig.min() <= 0:
        raise SingularMetric("metric is not positive definite")
    H = state.torsion()
    q = curvature_quantities(state.g, H)
    dg = -2.0 * q["Rc"] + 0.5 * q["H2"]
    db = -q["dstarH"]
    return dg, db


def dual_path_residual(state):
    """Max-norm of (dg - db) + 2 Rc+, which must vanish identically."""
    H = state.torsion()
    q = curvature_quantities(state.g, H)
    dg = -2.0 * q["Rc"] + 0.5 * q["H2"]
    db = -q["dstarH"]
    return float(np.abs((dg - db) + 2.0 * q["Rc+"]).max())


def soliton_residual(state):
    """Frobenius norm of Rc - H^2/4 plus the norm of d*H (constant f)."""
    H = state.torsion()
    q = curvature_quantities(state.g, H)
    return float(np.linalg.norm(q["Rc"] - q["H2"] / 4.0) + np.linalg.norm(q["dstarH"]))


def flow_lambda(state):
    """lambda of the current state via the exact eigenproblem assembly.

    The potential of invariant data is constant, so degree 0 is exact.
    """
    g = [[Fraction(float(x)) for x in row] for row in state.g]
    return lambda_min(g, Fraction(state.H0_coeff), 0).value


def step_rk4(state, dt):
    """One classical fourth-order Runge-Kutta step."""
    g0, b0, t0 = state.g, state.b, state.t

    def rhs(g, b):
        return grf_rhs(state.copy_with(g, b, t0))

    k1g, k1b = rhs(g0, b0)
    k2g, k2b = rhs(g0 + dt / 2 * k1g, b0 + dt / 2 * k1b)
    k3g, k3b = rhs(g0 + dt / 2 * k2g, b0 + dt / 2 * k2b)
    k4g, k4b = rhs(g0 + dt * k3g, b0 + dt * k3b)
    g = g0 + dt / 6 * (k1g + 2 * k2g + 2 * k3g + k4g)
    b = b0 + dt / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
    return state.copy_with(g, b, t0 + dt)


def run_flow(initial, dt, steps, sample_every=1):
    """Integrate the flow, sampling (t, state, lambda, soliton residual)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    traj = Trajectory()
    state = initial

    def sample(s):
        traj.samples.append((s.t, s, flow_lambda(s), soliton_residual(s)))

    # float64 overflow is reported as an error, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sample(state)
        if not np.isfinite(traj.residuals()[0]):
            raise ValueError("curvature of the initial state does not fit in a float64")
        for n in range(1, steps + 1):
            try:
                state = step_rk4(state, dt)
            except SingularMetric:
                raise FlowBlowup(f"metric degenerated at step {n}", traj)
            if not np.isfinite(np.linalg.det(state.g)):
                raise FlowBlowup(f"metric left float64 range at step {n}", traj)
            if np.linalg.eigvalsh(state.g).min() < 1e-10:
                raise FlowBlowup(f"metric degenerated at step {n}", traj)
            if n % sample_every == 0 or n == steps:
                sample(state)
    return traj
