"""Frame-indexed tensor calculus: Levi-Civita and Bismut connections,
their curvature, the mixed connection on 2-tensors, twisted divergences,
the mixed Laplacian, and the twisted Bakry-Emery curvature. A tensor is an
object ndarray of scalars with one size-3 axis per frame index."""

from fractions import Fraction
from functools import cached_property

import numpy as np

from . import frames
from .frames import frame_derive
from .poly import JetScalar, NonInvertibleJet, Polynomial, as_jet, as_poly


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
    """Build an object ndarray of scalars from nested sequences (0-d for one scalar)."""
    arr = np.array(nested, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = _coerce_scalar(x)
    return flat.reshape(arr.shape)


def zeros(shape):
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [Polynomial.zero()] * arr.size
    return arr


def is_zero(a):
    """True when every entry of a (an array or one scalar) is zero."""
    return all(x == 0 for x in np.ravel(a))


def sym(a):
    if a.ndim != 2:
        raise BadRank("sym is defined for rank 2")
    return (a + a.T) * Fraction(1, 2)


def antisym(a):
    if a.ndim != 2:
        raise BadRank("antisym is defined for rank 2")
    return (a - a.T) * Fraction(1, 2)


def jet_part(a, order):
    """The t-derivative of order 0, 1 or 2 at t=0 of every entry; entries
    that are not jets are constant in t."""
    out = np.empty(a.shape, dtype=object)
    out.reshape(-1)[:] = [(x.c0, x.c1, x.c2)[order] for x in map(as_jet, a.reshape(-1))]
    return out


EPS = obj_array(frames.EPS)


def volume_form(coeff=1):
    """The invariant 3-form coeff * e^1 ^ e^2 ^ e^3, components coeff*eps_{ijk}."""
    return EPS * _coerce_scalar(coeff)


def _adjugate(m):
    """adj(m) of a 3x3 object array, m adj(m) = det(m) I: entry (i, j) is the
    cofactor of m[j, i], written with cyclic indices."""
    def cof(a, b):
        a1, a2, b1, b2 = (a + 1) % 3, (a + 2) % 3, (b + 1) % 3, (b + 2) % 3
        return m[a1, b1] * m[a2, b2] - m[a1, b2] * m[a2, b1]
    return obj_array([[cof(j, i) for j in range(3)] for i in range(3)])


def _reciprocal(det):
    """1/det for a jet with a nonzero constant t=0 part or a nonzero constant."""
    if isinstance(det, JetScalar):
        try:
            return det.inverse()
        except NonInvertibleJet as exc:
            raise SingularMetric(f"metric determinant: {exc}") from exc
    if not det.is_constant or det.is_zero:
        raise SingularMetric("metric determinant is not a nonzero constant")
    return Fraction(1) / det.constant_value()


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

    g is a 3x3 symmetric matrix of scalars, H either a 3x3x3 array or a
    number s standing for s * e^1^e^2^e^3, f a scalar potential (default 0).
    g^-1 = adj(g) / det g for constant and jet metrics alike, so det g must be
    a nonzero constant or a jet with a nonzero constant t=0 part. Tensors go
    in and come out as object ndarrays indexed by the frame.
    """

    def __init__(self, g, H=0, f=0):
        self.g = obj_array(g)
        H = obj_array(H)
        self.H = volume_form(H[()]) if H.ndim == 0 else H
        if self.g.shape != (3, 3) or self.H.shape != (3, 3, 3):
            raise BadRank("g must be 3x3 and H 3x3x3 or a number")
        self.f = _coerce_scalar(f)
        adj = _adjugate(self.g)
        self.det = sum(self.g[0, k] * adj[k, 0] for k in range(3))
        self.ginv = adj * _reciprocal(self.det)
        self.c = _STRUCTURE
        self.gamma = christoffel(self.c, self.g, self.ginv, self._frame_gradient(self.g))
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
        return np.einsum("mn,n->m", self.ginv, self.covd_scalar(s))

    # -- connections ------------------------------------------------------

    def torsion(self, conn):
        """Lowered torsion tensor T_{ijk} of a connection symbol array."""
        t = conn - np.transpose(conn, (1, 0, 2)) - self.c
        return np.einsum("ijp,pk->ijk", t, self.g)

    # -- covariant derivatives --------------------------------------------

    def covd(self, T, conn=None):
        """Covariant derivative; the new (derivative) index comes first.

        conn is one symbol array for every slot (Levi-Civita if None) or a
        tuple with one symbol array per slot of T.
        """
        rank = T.ndim
        if not isinstance(conn, tuple):
            conn = (self.gamma if conn is None else conn,) * rank
        out = zeros((3,) * (rank + 1))
        for m in range(3):
            for idx in np.ndindex(*(3,) * rank):
                val = self.E(T[idx], m)
                for s in range(rank):
                    for p in range(3):
                        jdx = idx[:s] + (p,) + idx[s + 1:]
                        val = val - conn[s][m, idx[s], p] * T[jdx]
                out[(m,) + idx] = val
        return out

    def covd_scalar(self, s):
        return obj_array([self.E(s, m) for m in range(3)])

    def hessian(self, s, conn=None):
        """Second covariant derivative of a scalar, Levi-Civita unless conn is given."""
        return self.covd(self.covd_scalar(s), conn)

    # -- divergences -------------------------------------------------------

    def div(self, T, conn=None):
        """g^{mn} (nabla^conn T)_{mn...}: the derivative index against T's first slot.

        Returns the contracted component array, a scalar for a 1-form.
        """
        return np.einsum("mn...,mn->...", self.covd(T, conn), self.ginv)

    def div_f(self, T, conn=None):
        """The f-twisted divergence div(T, conn) - (grad f)^m T_{m...}."""
        return self.div(T, conn) - np.einsum("m,m...->...", self.grad_up(self.f), T)

    def laplacian_f(self, s):
        return self.div_f(self.covd_scalar(s))

    def rough_laplacian_f(self, T, conn=None):
        """Connection f-Laplacian g^{mn} (nabla nabla T)_{mn...} - (grad f)^m (nabla T)_{m...}."""
        return self.div_f(self.covd(T, conn), conn)

    # -- curvature ---------------------------------------------------------

    def curvature(self, conn):
        """Lowered curvature Rm_{ijkl} = <R(E_i,E_j)E_k, E_l> of the connection."""
        return riemann(self.c, conn, self.g, self._frame_gradient(conn))

    # Derived curvature data, each computed on first use: a Geometry is
    # never changed after __init__.

    @cached_property
    def Rm(self):
        """Riemann tensor of the Levi-Civita connection."""
        return self.curvature(self.gamma)

    @cached_property
    def Rm_plus(self):
        """Riemann tensor of the Bismut connection nabla+ = nabla + H/2."""
        return self.curvature(self.gamma_p)

    @cached_property
    def Rc(self):
        """Ricci tensor Rc_{jk} = g^{il} Rm_{ijkl}."""
        return np.einsum("ijkl,il->jk", self.Rm, self.ginv)

    @cached_property
    def Rc_plus(self):
        """Bismut Ricci tensor g^{il} Rm+_{ijkl}."""
        return np.einsum("ijkl,il->jk", self.Rm_plus, self.ginv)

    @cached_property
    def R(self):
        """Scalar curvature g^{jk} Rc_{jk}."""
        return np.einsum("jk,jk->", self.Rc, self.ginv)

    @cached_property
    def H2(self):
        """H^2_{ij} = H_{ipq} H_{jrs} g^{pr} g^{qs}."""
        return np.einsum("ipq,jrs,pr,qs->ij", self.H, self.H, self.ginv, self.ginv)

    @cached_property
    def H2_norm(self):
        """|H|^2, full contraction without combinatorial factor."""
        return np.einsum("ij,ij->", self.H2, self.ginv)

    def dstar(self, T):
        """Codifferential of a 2- or 3-form: (d*T)_... = -g^{mn} (nabla T)_{mn...}."""
        return -self.div(T)

    def i_grad(self, s, T):
        """Interior product i_{grad s} T for a form T (contracts the first slot)."""
        return np.einsum("m,m...->...", self.grad_up(s), T)

    def dstar_f(self, T):
        return -self.div_f(T)

    def bismut_curvature_rhs(self):
        """Rm+ from the Riemannian data: Rm + (1/2)(nabla H terms) - (1/4)(H o H terms)."""
        dh = self.covd(self.H, self.gamma)
        q = Fraction(1, 4)
        hh1 = np.einsum("ila,jkb,ab->ijkl", self.H, self.H, self.ginv)
        hh2 = np.einsum("jla,ikb,ab->ijkl", self.H, self.H, self.ginv)
        half = Fraction(1, 2)
        return (self.Rm + dh * half - np.transpose(dh, (1, 0, 2, 3)) * half
                - hh1 * q + hh2 * q)

    # -- Bakry-Emery -------------------------------------------------------

    def bakry_emery(self, soliton_normalization=True):
        """Rc^{H,f}: Rc - H^2/4 + c*hess(f) - (d*H + i_{grad f}H)/2, c = 1 or 1/2."""
        hess = self.hessian(self.f)
        c = Fraction(1) if soliton_normalization else Fraction(1, 2)
        return self.Rc - Fraction(1, 4) * self.H2 + c * hess - Fraction(1, 2) * self.dstar_f(self.H)

    def generalized_scalar(self):
        """R^{H,f} = R - |H|^2/12 + 2 laplacian f - |grad f|^2."""
        df = self.covd_scalar(self.f)
        norm2 = np.einsum("m,m->", self.grad_up(self.f), df)
        return self.R - Fraction(1, 12) * self.H2_norm + 2 * self.div(df) - norm2

    # -- mixed connection suite ---------------------------------------------

    def mixed_covd(self, gamma):
        """nabla-bar: first slot with the minus connection, second with plus."""
        if gamma.ndim != 2:
            raise BadRank("mixed connection acts on rank-2 tensors")
        return self.covd(gamma, (self.gamma_m, self.gamma_p))

    def twisted_divergence(self, gamma):
        """The pair ((nabla+)^m gamma_{ml} - f_m gamma_{ml}, (nabla-)^m gamma_{lm} - f_m gamma_{lm})."""
        if gamma.ndim != 2:
            raise BadRank("twisted divergence acts on rank-2 tensors")
        return self.div_f(gamma, self.gamma_p), self.div_f(gamma.T, self.gamma_m)

    def pair_divergence(self, pair):
        u, v = pair
        return Fraction(1, 2) * (self.div_f(u) + self.div_f(v))

    def divergence_adjoint(self, pair):
        """Formal adjoint: (u,v) -> -(nabla+ u)_{ij} - (nabla- v)_{ji}."""
        u, v = pair
        return -(self.covd(u, self.gamma_p) + self.covd(v, self.gamma_m).T)

    def mixed_laplacian_formula(self, gamma):
        """The componentwise formula for the mixed Laplacian on 2-tensors."""
        if gamma.ndim != 2:
            raise BadRank("mixed Laplacian acts on rank-2 tensors")
        d = self.covd(gamma)
        base = self.div_f(d)
        t2 = -np.einsum("ajb,ma,kb,mik->ij", self.H, self.ginv, self.ginv, d)
        t3 = np.einsum("aib,ma,kb,mkj->ij", self.H, self.ginv, self.ginv, d)
        q = Fraction(1, 4)
        t4 = -(np.einsum("jl,la,ia->ij", self.H2, self.ginv, gamma)
               + np.einsum("il,la,aj->ij", self.H2, self.ginv, gamma)) * q
        t5 = -Fraction(1, 2) * np.einsum(
            "abj,cdi,ef,ac,bf,de->ij",
            self.H, self.H, gamma, self.ginv, self.ginv, self.ginv,
        )
        return base + t2 + t3 + t4 + t5

    def mixed_laplacian_definition(self, gamma):
        """-(adjoint of nabla-bar) applied to nabla-bar gamma."""
        T = self.mixed_covd(gamma)
        out = -self.div_f(T)
        out = out + Fraction(1, 2) * np.einsum("abi,ac,bd,cdj->ij",
                                               self.H, self.ginv, self.ginv, T)
        out = out - Fraction(1, 2) * np.einsum("abj,ac,bd,cid->ij",
                                               self.H, self.ginv, self.ginv, T)
        return -out

    # -- inner products ------------------------------------------------------

    def inner(self, A, B):
        """Pointwise full contraction <A, B>_g for tensors of equal rank."""
        if A.ndim != B.ndim:
            raise BadRank("inner product needs equal ranks")
        letters = "ijkl"[: A.ndim]
        letters2 = "pqrs"[: A.ndim]
        spec = (letters + "," + letters2 + ","
                + ",".join(x + y for x, y in zip(letters, letters2)) + "->")
        return np.einsum(spec, A, B, *([self.ginv] * A.ndim))
