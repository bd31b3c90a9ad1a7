"""Frame-indexed tensor calculus: Levi-Civita and Bismut connections,
curvature suites, the mixed connection on 2-tensors, twisted divergences,
the mixed Laplacian, and the twisted Bakry-Emery curvature."""

from fractions import Fraction

import numpy as np

from . import frames, linalg
from .frames import frame_derive
from .poly import JetScalar, Polynomial, as_jet, as_poly


class BadRank(ValueError):
    pass


class SingularMetric(ValueError):
    pass


def _coerce_scalar(x):
    if isinstance(x, (Polynomial, JetScalar)):
        return x
    p = as_poly(x)
    if p is NotImplemented:
        raise TypeError(f"cannot use {type(x).__name__} as a tensor component")
    return p


def obj_array(nested):
    """Build an object ndarray of scalars from nested sequences."""
    arr = np.array(nested, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = _coerce_scalar(x)
    return flat.reshape(arr.shape)


def zeros(shape):
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [Polynomial.zero()] * arr.size
    return arr


class TensorField:
    """Covariant tensor with frame indices 1..3 and polynomial/jet components."""

    __slots__ = ("comps",)

    def __init__(self, comps):
        if not isinstance(comps, np.ndarray) or comps.dtype != object:
            comps = obj_array(comps)
        if any(s != 3 for s in comps.shape):
            raise BadRank("every frame index must have size 3")
        self.comps = comps

    @classmethod
    def zero(cls, rank):
        return cls(zeros((3,) * rank))

    @property
    def rank(self):
        return self.comps.ndim

    def __getitem__(self, idx):
        return self.comps[idx]

    def __add__(self, other):
        return TensorField(self.comps + other.comps)

    def __sub__(self, other):
        return TensorField(self.comps - other.comps)

    def __neg__(self):
        return TensorField(-self.comps)

    def __mul__(self, s):
        return TensorField(self.comps * _coerce_scalar(s))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TensorField) or self.rank != other.rank:
            return NotImplemented
        return all(a == b for a, b in zip(self.comps.reshape(-1), other.comps.reshape(-1)))

    @property
    def is_zero(self):
        return all(x.is_zero for x in self.comps.reshape(-1))

    def transpose(self, axes=None):
        return TensorField(np.transpose(self.comps, axes))

    def sym(self):
        if self.rank != 2:
            raise BadRank("sym is defined for rank 2")
        return TensorField((self.comps + self.comps.T) * Fraction(1, 2))

    def antisym(self):
        if self.rank != 2:
            raise BadRank("antisym is defined for rank 2")
        return TensorField((self.comps - self.comps.T) * Fraction(1, 2))

    def map(self, fn):
        out = np.empty(self.comps.shape, dtype=object)
        flat_in = self.comps.reshape(-1)
        flat_out = out.reshape(-1)
        for i, x in enumerate(flat_in):
            flat_out[i] = fn(x)
        return TensorField(out)

    def jet_part(self, order):
        """Extract c0/c1/c2 componentwise (components must be jets or polynomials)."""
        def pick(x):
            x = as_jet(x)
            return (x.c0, x.c1, x.c2)[order]
        return self.map(pick)

    def to_json(self):
        if self.rank == 2:
            return {"rank": 2, "components": [[self.comps[i, j].to_json() for j in range(3)]
                                              for i in range(3)]}
        raise BadRank("JSON export implemented for rank 2")

    def __repr__(self):
        return f"TensorField(rank={self.rank})"


def tensor(nested):
    return TensorField(nested)


EPS = obj_array(frames.EPS)


def volume_form(coeff=1):
    """The invariant 3-form coeff * e^1 ^ e^2 ^ e^3, components coeff*eps_{ijk}."""
    return TensorField(EPS * _coerce_scalar(coeff))


def _is_jet(arr):
    return any(isinstance(x, JetScalar) for x in arr.reshape(-1))


def _constant_matrix(arr):
    """Extract the constant Fraction matrix, or None if any entry is non-constant."""
    out = []
    for row in arr:
        r = []
        for x in row:
            if isinstance(x, JetScalar):
                return None
            if not x.is_constant:
                return None
            r.append(x.constant_value())
        out.append(r)
    return out


def _invert_metric(g):
    """Exact inverse of a 3x3 metric with constant or jet components."""
    if _is_jet(g):
        g0 = [[as_jet(x).c0 for x in row] for row in g]
        const = _constant_matrix(obj_array(g0))
        if const is None:
            raise SingularMetric("jet metric needs a constant t=0 part")
        try:
            g0inv = linalg.mat_inv(const)
        except ValueError:
            raise SingularMetric("t=0 metric is singular")
        g0inv = obj_array(g0inv)
        delta = g - obj_array([[as_jet(g[i][j]).c0 for j in range(3)] for i in range(3)])
        # order-2 Neumann series around the exact t=0 inverse
        n = np.einsum("ij,jk->ik", g0inv, delta)
        n2 = np.einsum("ij,jk->ik", n, n)
        eye = obj_array([[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)])
        return np.einsum("ij,jk->ik", eye - n + n2, g0inv)
    const = _constant_matrix(g)
    if const is None:
        raise SingularMetric("only constant-coefficient metrics are invertible exactly")
    try:
        inv = linalg.mat_inv(const)
    except ValueError:
        raise SingularMetric("metric matrix is singular")
    return obj_array(inv)


def christoffel(c, g, ginv, dg=None):
    """Levi-Civita symbols Gamma[m, i, p], nabla_{E_m} E_i = Gamma[m, i, p] E_p.

    c[i, j, k] is the structure constant c^k_{ij}, g the metric and ginv its
    inverse, as float64 or object ndarrays. dg[m, i, k] = E_m(g_ik); None
    for invariant data, whose components have no frame derivatives.
    """
    a = (np.einsum("mip,pk->mik", c, g)
         - np.einsum("mkp,ip->mik", c, g)
         - np.einsum("ikp,mp->mik", c, g))
    if dg is not None:
        a = a + dg + np.einsum("imk->mik", dg) - np.einsum("kmi->mik", dg)
    # 0.5 would turn exact components into floats, Fraction would turn a
    # float array into an object array.
    a = a * (Fraction(1, 2) if a.dtype == object else 0.5)
    return np.einsum("mik,pk->mip", a, ginv)


def riemann(c, conn, g, dconn=None):
    """Lowered curvature Rm[i, j, k, l] = <R(E_i, E_j) E_k, E_l> of the symbols conn.

    c, conn and g as in ``christoffel``. dconn[i, j, k, l] = E_i(conn[j, k, l]);
    None for invariant data.
    """
    coef = (np.einsum("jkm,iml->ijkl", conn, conn)
            - np.einsum("ikm,jml->ijkl", conn, conn)
            - np.einsum("ijm,mkl->ijkl", c, conn))
    if dconn is not None:
        coef = coef + dconn - np.einsum("jikl->ijkl", dconn)
    return np.einsum("ijkp,pl->ijkl", coef, g)


_STRUCTURE = obj_array(frames.STRUCTURE)


class Geometry:
    """Invariant-frame geometry data (g, H, f) with exact connections.

    g is a 3x3 symmetric matrix of scalars, H either a rank-3 TensorField or
    a number s standing for s * e^1^e^2^e^3, f a scalar potential (default 0).
    """

    def __init__(self, g, H=0, f=0):
        self.g = g.comps if isinstance(g, TensorField) else obj_array(g)
        if isinstance(H, TensorField):
            self.H = H.comps
        elif isinstance(H, np.ndarray):
            self.H = H
        else:
            self.H = volume_form(H).comps
        self.f = _coerce_scalar(f)
        self.ginv = _invert_metric(self.g)
        self.c = _STRUCTURE
        self.gamma = self._levi_civita()
        half = Fraction(1, 2)
        hup = np.einsum("mik,pk->mip", self.H, self.ginv)
        self.gamma_p = self.gamma + hup * half
        self.gamma_m = self.gamma - hup * half

    # -- scalar helpers ---------------------------------------------------

    def E(self, s, m):
        """Frame derivative E_{m+1}(s) for m in 0..2."""
        return frame_derive(s, m + 1)

    def _frame_gradient(self, arr):
        """out[m, ...] = E_{m+1}(arr[...]), one frame derivative per component."""
        out = np.empty((3,) + arr.shape, dtype=object)
        for m in range(3):
            for idx in np.ndindex(*arr.shape):
                out[(m,) + idx] = self.E(arr[idx], m)
        return out

    def grad_up(self, s):
        """Raised gradient (nabla s)^m as a length-3 object array."""
        return np.einsum("mn,n->m", self.ginv, self.covd_scalar(s).comps)

    # -- connections ------------------------------------------------------

    def _levi_civita(self):
        return christoffel(self.c, self.g, self.ginv, self._frame_gradient(self.g))

    def torsion(self, conn):
        """Lowered torsion tensor T_{ijk} of a connection symbol array."""
        t = zeros((3, 3, 3))
        for i in range(3):
            for j in range(3):
                for p in range(3):
                    t[i, j, p] = conn[i, j, p] - conn[j, i, p] - self.c[i, j, p]
        return TensorField(np.einsum("ijp,pk->ijk", t, self.g))

    # -- covariant derivatives --------------------------------------------

    def covd(self, T, conn=None):
        """Covariant derivative; the new (derivative) index comes first.

        conn is one symbol array for every slot (Levi-Civita if None) or a
        tuple with one symbol array per slot of T.
        """
        arr = T.comps if isinstance(T, TensorField) else T
        rank = arr.ndim
        if not isinstance(conn, tuple):
            conn = (self.gamma if conn is None else conn,) * rank
        out = zeros((3,) * (rank + 1))
        for m in range(3):
            for idx in np.ndindex(*(3,) * rank):
                val = self.E(arr[idx], m)
                for s in range(rank):
                    for p in range(3):
                        jdx = idx[:s] + (p,) + idx[s + 1:]
                        val = val - conn[s][m, idx[s], p] * arr[jdx]
                out[(m,) + idx] = val
        return TensorField(out)

    def covd_scalar(self, s):
        return TensorField(obj_array([self.E(s, m) for m in range(3)]))

    def hessian(self, s, conn=None):
        """Second covariant derivative of a scalar, Levi-Civita unless conn is given."""
        return self.covd(self.covd_scalar(s), conn)

    # -- divergences -------------------------------------------------------

    def div(self, T, conn=None):
        """g^{mn} (nabla^conn T)_{mn...}: the derivative index against T's first slot.

        Returns the contracted component array, a scalar for a 1-form.
        """
        return np.einsum("mn...,mn->...", self.covd(T, conn).comps, self.ginv)

    def div_f(self, T, conn=None):
        """The f-twisted divergence div(T, conn) - (grad f)^m T_{m...}."""
        arr = T.comps if isinstance(T, TensorField) else T
        return self.div(arr, conn) - np.einsum("m,m...->...", self.grad_up(self.f), arr)

    def laplacian_f(self, s):
        return self.div_f(self.covd_scalar(s))

    def rough_laplacian_f(self, T, conn=None):
        """Connection f-Laplacian g^{mn} (nabla nabla T)_{mn...} - (grad f)^m (nabla T)_{m...}."""
        return TensorField(self.div_f(self.covd(T, conn), conn))

    # -- curvature ---------------------------------------------------------

    def curvature(self, conn):
        """Lowered curvature Rm_{ijkl} = <R(E_i,E_j)E_k, E_l> of the connection."""
        return TensorField(riemann(self.c, conn, self.g, self._frame_gradient(conn)))

    def ricci(self, rm):
        arr = rm.comps if isinstance(rm, TensorField) else rm
        return TensorField(np.einsum("ijkl,il->jk", arr, self.ginv))

    def scalar_curvature(self, rc):
        arr = rc.comps if isinstance(rc, TensorField) else rc
        return np.einsum("jk,jk->", arr, self.ginv)

    def h_squared(self):
        """H^2_{ij} = H_{ipq} H_{jrs} g^{pr} g^{qs}."""
        return TensorField(np.einsum("ipq,jrs,pr,qs->ij", self.H, self.H, self.ginv, self.ginv))

    def norm_h_squared(self):
        """|H|^2, full contraction without combinatorial factor."""
        return np.einsum("ijk,pqr,ip,jq,kr->", self.H, self.H, self.ginv, self.ginv, self.ginv)

    def dstar(self, T):
        """Codifferential of a 2- or 3-form: (d*T)_... = -g^{mn} (nabla T)_{mn...}."""
        return TensorField(-self.div(T))

    def i_grad(self, s, T):
        """Interior product i_{grad s} T for a form T (contracts the first slot)."""
        arr = T.comps if isinstance(T, TensorField) else T
        return TensorField(np.einsum("m,m...->...", self.grad_up(s), arr))

    def dstar_f(self, T):
        return TensorField(-self.div_f(T))

    def curvature_suite(self):
        rm = self.curvature(self.gamma)
        rc = self.ricci(rm)
        rmp = self.curvature(self.gamma_p)
        rcp = self.ricci(rmp)
        return {
            "Rm": rm,
            "Rc": rc,
            "R": self.scalar_curvature(rc),
            "Rm+": rmp,
            "Rc+": rcp,
            "R+": self.scalar_curvature(rcp),
            "H2": self.h_squared(),
            "dstarH": self.dstar(self.H),
        }

    def bismut_curvature_rhs(self):
        """Rm+ from the Riemannian data: Rm + (1/2)(nabla H terms) - (1/4)(H o H terms)."""
        rm = self.curvature(self.gamma).comps
        dh = self.covd(self.H, self.gamma).comps
        q = Fraction(1, 4)
        hh1 = np.einsum("ila,jkb,ab->ijkl", self.H, self.H, self.ginv)
        hh2 = np.einsum("jla,ikb,ab->ijkl", self.H, self.H, self.ginv)
        half = Fraction(1, 2)
        out = (rm + np.einsum("ijkl->ijkl", dh) * half
               - np.transpose(dh, (1, 0, 2, 3)) * half - hh1 * q + hh2 * q)
        return TensorField(out)

    # -- Bakry-Emery -------------------------------------------------------

    def bakry_emery(self, soliton_normalization=True):
        """Rc^{H,f}: Rc - H^2/4 + c*hess(f) - (d*H + i_{grad f}H)/2, c = 1 or 1/2."""
        rc = self.ricci(self.curvature(self.gamma))
        h2 = self.h_squared()
        hess = self.hessian(self.f)
        c = Fraction(1) if soliton_normalization else Fraction(1, 2)
        return rc - Fraction(1, 4) * h2 + c * hess - Fraction(1, 2) * self.dstar_f(self.H)

    def generalized_scalar(self):
        """R^{H,f} = R - |H|^2/12 + 2 laplacian f - |grad f|^2."""
        r = self.scalar_curvature(self.ricci(self.curvature(self.gamma)))
        df = self.covd_scalar(self.f)
        norm2 = np.einsum("m,m->", self.grad_up(self.f), df.comps)
        return r - Fraction(1, 12) * self.norm_h_squared() + 2 * self.div(df) - norm2

    # -- mixed connection suite ---------------------------------------------

    def mixed_covd(self, gamma):
        """nabla-bar: first slot with the minus connection, second with plus."""
        arr = gamma.comps if isinstance(gamma, TensorField) else gamma
        if arr.ndim != 2:
            raise BadRank("mixed connection acts on rank-2 tensors")
        return self.covd(arr, (self.gamma_m, self.gamma_p))

    def twisted_divergence(self, gamma):
        """The pair ((nabla+)^m gamma_{ml} - f_m gamma_{ml}, (nabla-)^m gamma_{lm} - f_m gamma_{lm})."""
        arr = gamma.comps if isinstance(gamma, TensorField) else gamma
        if arr.ndim != 2:
            raise BadRank("twisted divergence acts on rank-2 tensors")
        return (TensorField(self.div_f(arr, self.gamma_p)),
                TensorField(self.div_f(arr.T, self.gamma_m)))

    def pair_divergence(self, pair):
        u, v = pair
        return Fraction(1, 2) * (self.div_f(u) + self.div_f(v))

    def divergence_adjoint(self, pair):
        """Formal adjoint: (u,v) -> -(nabla+ u)_{ij} - (nabla- v)_{ji}."""
        u, v = pair
        du = self.covd(u.comps if isinstance(u, TensorField) else u, self.gamma_p).comps
        dv = self.covd(v.comps if isinstance(v, TensorField) else v, self.gamma_m).comps
        return TensorField(-(du + dv.T))

    def mixed_laplacian_formula(self, gamma):
        """The componentwise formula for the mixed Laplacian on 2-tensors."""
        arr = gamma.comps if isinstance(gamma, TensorField) else gamma
        if arr.ndim != 2:
            raise BadRank("mixed Laplacian acts on rank-2 tensors")
        d = self.covd(arr).comps
        base = self.div_f(d)
        t2 = -np.einsum("ajb,ma,kb,mik->ij", self.H, self.ginv, self.ginv, d)
        t3 = np.einsum("aib,ma,kb,mkj->ij", self.H, self.ginv, self.ginv, d)
        h2 = self.h_squared().comps
        q = Fraction(1, 4)
        t4 = -(np.einsum("jl,la,ia->ij", h2, self.ginv, arr)
               + np.einsum("il,la,aj->ij", h2, self.ginv, arr)) * q
        t5 = -Fraction(1, 2) * np.einsum(
            "abj,cdi,ef,ac,bf,de->ij",
            self.H, self.H, arr, self.ginv, self.ginv, self.ginv,
        )
        return TensorField(base + t2 + t3 + t4 + t5)

    def mixed_laplacian_definition(self, gamma):
        """-(adjoint of nabla-bar) applied to nabla-bar gamma."""
        T = self.mixed_covd(gamma).comps
        out = -self.div_f(T)
        out = out + Fraction(1, 2) * np.einsum("abi,ac,bd,cdj->ij",
                                               self.H, self.ginv, self.ginv, T)
        out = out - Fraction(1, 2) * np.einsum("abj,ac,bd,cid->ij",
                                               self.H, self.ginv, self.ginv, T)
        return TensorField(-out)

    # -- inner products ------------------------------------------------------

    def inner(self, A, B):
        """Pointwise full contraction <A, B>_g for tensors of equal rank."""
        a = A.comps if isinstance(A, TensorField) else A
        b = B.comps if isinstance(B, TensorField) else B
        if a.ndim != b.ndim:
            raise BadRank("inner product needs equal ranks")
        letters = "ijkl"[: a.ndim]
        letters2 = "pqrs"[: a.ndim]
        spec = (letters + "," + letters2 + ","
                + ",".join(x + y for x, y in zip(letters, letters2)) + "->")
        return np.einsum(spec, a, b, *([self.ginv] * a.ndim))
