"""Frame-indexed tensor calculus: Levi-Civita and Bismut connections,
their curvature, the mixed connection on 2-tensors, twisted divergences,
the mixed Laplacian, and the twisted Bakry-Emery curvature. A tensor is an
object ndarray of scalars with one size-3 axis per frame index."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

try:
    # the C function np.einsum calls (optimize=False), without its Python
    # dispatch, which costs more than a contraction of 3x3 float64 operands
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    _einsum = np.einsum

from . import frames
from .frames import Op, frame_derive
from .poly import _ZERO, JetScalar, NonInvertibleJet, Polynomial, as_jet, as_poly


class cached:
    """A non-data descriptor that computes an attribute on its first read and
    stores it in the instance __dict__, which later reads find first: the
    semantics of functools.cached_property, without the lock that Python 3.11
    takes on every first read. func is the wrapped method."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class BadRank(ValueError):
    pass


class SingularMetric(ValueError):
    pass


def _coerce_scalar(x):
    """A tensor component: a Polynomial, JetScalar or Op as it is, an int or
    Fraction as a Fraction."""
    if isinstance(x, (Polynomial, JetScalar, Op)):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as a tensor component")


def obj_array(nested):
    """Build an object ndarray of scalars from nested sequences (0-d for one scalar)."""
    arr = np.array(nested, dtype=object)
    flat = arr.reshape(-1)
    for i, x in enumerate(flat):
        flat[i] = _coerce_scalar(x)
    return flat.reshape(arr.shape)


def zeros(shape):
    arr = np.empty(shape, dtype=object)
    arr.reshape(-1)[:] = [_ZERO] * arr.size
    return arr


def is_zero(a):
    """True when every entry of a (an array or one scalar) is zero. Entries
    are tested by truth value, which builds no Polynomial."""
    return not any(np.ravel(a))


def _lift(a):
    """(numerators, D) of an exact constant operand: an integer array as it
    is over D = 1, an object array of ints and Fractions as Python-int
    numerators over the lcm D of their denominators; None for any other
    operand, such as one with Polynomial or JetScalar entries."""
    if a.dtype != object:
        return (a, 1) if a.dtype.kind in "iu" else None
    flat = a.reshape(-1)
    if not set(map(type, flat)) <= {int, Fraction}:
        return None
    den = math.lcm(*(x.denominator for x in flat))
    num = np.empty(a.shape, dtype=object)
    num.reshape(-1)[:] = [x.numerator * (den // x.denominator) for x in flat]
    return num, den


@lru_cache(maxsize=None)
def _pairwise_plan(spec):
    """The steps (i, j, step spec) that contract a spec of 3 or more operands
    two at a time: each step replaces operands i < j by their contraction,
    appended last, which keeps only the letters that a later operand or the
    output needs. The pair chosen is the one with the smallest result, then
    the fewest products; all axes have one size, so letters count both."""
    inputs, output = spec.split("->")
    subs = inputs.split(",")
    steps = []
    while len(subs) > 2:
        best = None
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                rest = "".join(s for k, s in enumerate(subs) if k not in (i, j)) + output
                joined = dict.fromkeys(subs[i] + subs[j])
                kept = "".join(c for c in joined if c in rest)
                cost = (len(kept), len(joined))
                if best is None or cost < best[0]:
                    best = (cost, i, j, kept)
        _, i, j, kept = best
        steps.append((i, j, f"{subs[i]},{subs[j]}->{kept}"))
        subs = [s for k, s in enumerate(subs) if k not in (i, j)] + [kept]
    steps.append((0, 1, f"{subs[0]},{subs[1]}->{output}"))
    return steps


def contract(spec, *operands):
    """np.einsum(spec, *operands), the one contraction of the package.

    float64 and integer operands go to np.einsum as they are. Exact constant
    operands are contracted as integer numerators, so no product or sum
    builds a Fraction, and the result is divided by the product D of their
    denominators once: an all-constant result becomes Fraction(n, D) per
    entry, one with Polynomial or JetScalar entries is scaled by 1/D when
    D != 1. A spec of 3 or more operands with such an entry is contracted
    two operands at a time (``_pairwise_plan``), as object arrays, so no
    product of more than two entries is formed. Values, entry types and a
    0-d result's scalar kind are those of np.einsum on the operands
    themselves.
    """
    if np.result_type(*operands) != object:  # no operand has object dtype
        return _einsum(spec, *operands)
    lifted = [_lift(a) for a in operands]
    den = math.prod(ld[1] for ld in lifted if ld is not None)
    if any(ld is None for ld in lifted):
        terms = [a if ld is None else ld[0] for a, ld in zip(operands, lifted)]
        if len(terms) > 2 and "..." not in spec and any(
                ld is None and a.dtype == object for a, ld in zip(operands, lifted)):
            terms = [np.asarray(a, dtype=object) for a in terms]
            for i, j, step in _pairwise_plan(spec):
                out = _einsum(step, terms[i], terms[j])
                terms = [a for k, a in enumerate(terms) if k not in (i, j)] + [out]
        else:
            out = _einsum(spec, *terms)
        return out if den == 1 else out * Fraction(1, den)
    out = _einsum(spec, *(ld[0] for ld in lifted))
    if not isinstance(out, np.ndarray):
        return Fraction(out, den)
    res = np.empty(out.shape, dtype=object)
    res.reshape(-1)[:] = [Fraction(n, den) for n in out.reshape(-1)]
    return res


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


# flat indices of m[a + s, b + t] (mod 3) at (a, b), for (s, t) = (1, 1),
# (2, 2), (1, 2), (2, 1): one take reads all four
_COFACTOR_INDEX = np.array([[[3 * ((a + s) % 3) + (b + t) % 3 for b in range(3)]
                             for a in range(3)] for s, t in ((1, 1), (2, 2), (1, 2), (2, 1))])


def _adjugate(m):
    """adj(m) of a 3x3 array, m adj(m) = det(m) I: the transpose of the
    cofactors m[a+1, b+1] m[a+2, b+2] - m[a+1, b+2] m[a+2, b+1]."""
    m11, m22, m12, m21 = m.take(_COFACTOR_INDEX)
    return (m11 * m22 - m12 * m21).T


def leading_minors(m, adj=None):
    """The leading principal minors of a 3x3 array m, read off its adjugate adj
    (computed if None): by Sylvester's criterion a symmetric m is positive
    definite iff m[0, 0], adj[2, 2] and det m are all positive."""
    if adj is None:
        adj = _adjugate(m)
    return m[0, 0], adj[2, 2], m[0, 0] * adj[0, 0] + m[0, 1] * adj[1, 0] + m[0, 2] * adj[2, 0]


def _reciprocal(det):
    """1/det for a nonzero number, a jet with a nonzero constant t=0 part or
    a nonzero constant polynomial."""
    if isinstance(det, (float, Fraction)):
        if det == 0:
            raise SingularMetric("metric determinant is zero")
        return 1 / det
    if isinstance(det, JetScalar):
        try:
            return det.inverse()
        except NonInvertibleJet as exc:
            raise SingularMetric(f"metric determinant: {exc}") from exc
    if not det.is_constant or det.is_zero:
        raise SingularMetric("metric determinant is not a nonzero constant")
    return Fraction(1) / det.constant_value()


def _half(a):
    """a / 2. 0.5 would turn exact components into floats, Fraction would
    turn a float array into an object array."""
    return a * (Fraction(1, 2) if a.dtype == object else 0.5)


# integer tables: against exact data they give Fractions, against float64 data floats
_STRUCTURE = np.array(frames.STRUCTURE)
_VOLUME = np.array(frames.EPS)
# its entries are -1, 0 and 1, so a float64 copy scales a float h0 to the same
# floats without casting the integer table on every Geometry
_VOLUME_FLOAT = _VOLUME.astype(float)


def _christoffel_table():
    """T[m, i, k, p, q] = c^p_mi d_qk - c^p_mk d_qi - c^p_ik d_qm, so that
    T[m, i, k, p, q] g_pq = c^p_mi g_pk - c^p_mk g_pi - c^p_ik g_pm."""
    t = np.zeros((3,) * 5, dtype=int)
    for m, i, k, p in np.ndindex(3, 3, 3, 3):
        t[m, i, k, p, k] += _STRUCTURE[m, i, p]
        t[m, i, k, p, i] -= _STRUCTURE[m, k, p]
        t[m, i, k, p, m] -= _STRUCTURE[i, k, p]
    return t


_CHRISTOFFEL = _christoffel_table()
# the 30 nonzero entries of _CHRISTOFFEL, as ((m, i, k), (p, q), value)
_CHRISTOFFEL_ENTRIES = tuple(((m, i, k), (p, q), int(_CHRISTOFFEL[m, i, k, p, q]))
                             for m, i, k, p, q in np.argwhere(_CHRISTOFFEL).tolist())


def christoffel(g, ginv, dg=None):
    """Levi-Civita symbols Gamma[m, i, p], nabla_{E_m} E_i = Gamma[m, i, p] E_p.

    _STRUCTURE[i, j, k] is the structure constant c^k_{ij}, g the metric and
    ginv its inverse, as float64 or object ndarrays. dg[m, i, k] = E_m(g_ik);
    None for invariant data, whose components have no frame derivatives.
    The three structure terms c^p_mi g_pk - c^p_mk g_ip - c^p_ik g_mp, for g
    symmetric as ``Geometry`` requires, are the contraction of the constant
    table _CHRISTOFFEL with g. A metric with frame derivatives (polynomial or
    jet entries) meets only the nonzero entries of the table instead, and its
    derivative terms join the structure terms. Either way the lowered symbols
    are raised by g^-1 once.
    """
    if dg is None:
        a = contract("mikpq,pq->mik", _CHRISTOFFEL, g)
    else:
        a = dg + contract("imk->mik", dg) - contract("kmi->mik", dg)
        for mik, pq, c in _CHRISTOFFEL_ENTRIES:
            a[mik] = a[mik] + c * g[pq]
    return _half(contract("mik,pk->mip", a, ginv))


def riemann(conn, dconn=None):
    """Curvature endomorphism R[i, j, k, l] of the symbols conn, R(E_i, E_j) E_k
    = R[i, j, k, l] E_l.

    conn as in ``christoffel``. dconn[i, j, k, l] = E_i(conn[j, k, l]); None
    for invariant data.
    """
    # conn[j, k, m] conn[i, m, l] - conn[i, k, m] conn[j, m, l]: Y - Y with i, j swapped
    y = contract("jkm,iml->ijkl", conn, conn)
    coef = y - y.transpose(1, 0, 2, 3) - contract("ijm,mkl->ijkl", _STRUCTURE, conn)
    if dconn is not None:
        coef = coef + dconn - contract("jikl->ijkl", dconn)
    return coef


def _is_invariant(arr):
    """True for an array with no Polynomial, JetScalar or Op entry, which has
    no frame derivatives. A float64 array is invariant by contract, so its
    entries are not scanned."""
    return arr.dtype != object or set(map(type, arr.flat)).isdisjoint((Polynomial, JetScalar, Op))


def _as_data(x):
    """A float64 array or a float as float64, anything else through obj_array."""
    if isinstance(x, float) or (isinstance(x, np.ndarray) and x.dtype == np.float64):
        return np.asarray(x, dtype=float)
    return obj_array(x)


def _frame_div(U):
    """out[...] = sum_m E_{m+1}(U[m, ...]): three frame derivatives per
    component of out, a scalar for U of rank 1."""
    rows = U.reshape(3, -1)
    out = np.empty(rows.shape[1], dtype=object)
    out[:] = [frame_derive(a, 1) + frame_derive(b, 2) + frame_derive(c, 3) for a, b, c in rows.T]
    return out.reshape(U.shape[1:])[()]


class Geometry:
    """Invariant-frame geometry data (g, H, f) with its connections.

    g is a 3x3 symmetric matrix of scalars, H either a 3x3x3 array or a
    number s standing for s * e^1^e^2^e^3, f a scalar potential (default 0).
    g^-1 = adj(g) / det g for constant, jet and float metrics alike, so det g
    must be a nonzero constant, a jet with a nonzero constant t=0 part or a
    nonzero float; ``minors`` holds the leading principal minors of g, the
    last one det g. Tensors go in and come out as object ndarrays indexed by
    the frame. g and H are both exact or both float64 (an int H goes with
    either); float64 data are invariant, and all computed from them stays float64.
    """

    def __init__(self, g, H=0, f=_ZERO):
        self.g = _as_data(g)
        if isinstance(H, int) and self.g.dtype == np.float64:
            H = float(H)
        H = _as_data(H)
        # the coefficient s of H = s vol, which H2 reads; None for an array H
        self.volume_coeff = H[()] if H.ndim == 0 else None
        if H.ndim == 0:
            H = (_VOLUME_FLOAT if H.dtype == np.float64 else _VOLUME) * H[()]
        self.H = H
        if self.g.shape != (3, 3) or self.H.shape != (3, 3, 3):
            raise BadRank("g must be 3x3 and H 3x3x3 or a number")
        if self.g.dtype != self.H.dtype:
            kinds = ("float64", "exact") if self.g.dtype == np.float64 else ("exact", "float64")
            raise TypeError("g is %s and H is %s data; both must be float64 or both exact" % kinds)
        self.f = as_poly(f) if isinstance(f, (int, Fraction)) else _coerce_scalar(f)
        adj = _adjugate(self.g)
        self.minors = leading_minors(self.g, adj)
        self.det = self.minors[2]
        self.det_inv = _reciprocal(self.det)
        self.ginv = adj * self.det_inv
        self.gamma = christoffel(self.g, self.ginv, self._frame_gradient(self.g))

    # -- scalar helpers ---------------------------------------------------

    def _frame_gradient(self, arr):
        """out[m, ...] = E_{m+1}(arr[...]), one frame derivative per component;
        None for invariant data, exact or float64, which have no frame derivatives."""
        if _is_invariant(arr):
            return None
        out = np.empty((3,) + arr.shape, dtype=object)
        for m in range(3):
            for idx in np.ndindex(*arr.shape):
                out[(m,) + idx] = frame_derive(arr[idx], m + 1)
        return out

    @cached
    def ginv_div(self):
        """sum_m E_m(g^{mp}), the frame divergence of g^-1 that ``div`` reads;
        None for invariant metrics."""
        return None if _is_invariant(self.ginv) else _frame_div(self.ginv)

    def grad_up(self, s):
        """Raised gradient (nabla s)^m as a length-3 object array."""
        return contract("mn,n->m", self.ginv, self.covd_scalar(s))

    # -- covariant derivatives --------------------------------------------

    def covd(self, T, conn=None):
        """Covariant derivative; the new (derivative) index comes first.

        conn is one symbol array for every slot (Levi-Civita if None) or a
        tuple with one symbol array per slot of T.
        """
        idx = "abcd"[:T.ndim]
        if not isinstance(conn, tuple):
            conn = (self.gamma if conn is None else conn,) * T.ndim
        out = self._frame_gradient(T)
        for s, cs in enumerate(conn):
            # conn_s[m, i, p] T[..., p, ...] with p in slot s
            term = contract(f"m{idx[s]}p,{idx[:s]}p{idx[s + 1:]}->m{idx}", cs, T)
            out = -term if out is None else out - term
        return out

    def covd_scalar(self, s):
        return obj_array([frame_derive(s, i) for i in (1, 2, 3)])

    def hessian(self, s, conn=None):
        """Second covariant derivative of a scalar, Levi-Civita unless conn is given."""
        return self.covd(self.covd_scalar(s), conn)

    # -- divergences -------------------------------------------------------

    def div(self, T, conn=None):
        """g^{mn} (nabla^conn T)_{mn...}: the derivative index against T's first
        slot, for T of rank 1 to 4 and one symbol array conn (Levi-Civita if None).

        g^-1 meets the connection before T does, so nabla T is never formed:
        with conn^m_ap = g^{mn} conn[n, a, p] (``gamma_up`` for Levi-Civita) and
        its trace v^p = conn^m_mp, the result is g^{mn} E_m T_{n...} - v^p T_{p...}
        - the sum over the slots s >= 1 of conn^m_{a_s p} T_{m...p...}, p in slot s.
        The frame term is derived traced: sum_m E_m(g^{mn} T_{n...}) -
        (E_m g^{mn}) T_{n...}, one derivative per component of T, and its second
        part joins v as ``ginv_div``. Returns the contracted component array, a
        scalar for a 1-form.
        """
        if conn is None or conn is self.gamma:
            conn_up = self.gamma_up
        else:
            conn_up = contract("mn,nap->map", self.ginv, conn)
        v = contract("mmp->p", conn_up)
        frame = None
        if not _is_invariant(T):
            frame = _frame_div(contract("mn,n...->m...", self.ginv, T))
            if self.ginv_div is not None:
                v = v + self.ginv_div
        out = -contract("p,p...->...", v, T)
        if frame is not None:
            out = out + frame
        idx = "abcd"[:T.ndim]
        for s in range(1, T.ndim):
            out = out - contract(f"m{idx[s]}p,m{idx[1:s]}p{idx[s + 1:]}->{idx[1:]}", conn_up, T)
        return out

    def div_f(self, T, conn=None):
        """The f-twisted divergence div(T, conn) - (grad f)^m T_{m...}."""
        if isinstance(self.f, Polynomial) and self.f.is_zero:
            return self.div(T, conn)
        return self.div(T, conn) - contract("m,m...->...", self.grad_up(self.f), T)

    def rough_laplacian_f(self, T, conn=None):
        """Connection f-Laplacian g^{mn} (nabla nabla T)_{mn...} - (grad f)^m (nabla T)_{m...}."""
        return self.div_f(self.covd(T, conn), conn)

    # -- curvature ---------------------------------------------------------

    def curvature(self, conn):
        """Curvature endomorphism R_ijk^l, R(E_i,E_j)E_k = R_ijk^l E_l, of the connection."""
        return riemann(conn, self._frame_gradient(conn))

    # Derived connection and curvature data, each computed on first use: a
    # Geometry is never changed after __init__.

    @cached
    def gamma_p(self):
        """Symbols of the Bismut connection nabla+ = nabla + H/2."""
        return self.gamma + _half(self.H_ddu)

    @cached
    def gamma_m(self):
        """Symbols of the Bismut connection nabla- = nabla - H/2."""
        return self.gamma - _half(self.H_ddu)

    @cached
    def gamma_up(self):
        """Gamma^m_ap = g^{mn} Gamma[n, a, p]: the Levi-Civita symbols with their
        first slot raised, as ``div`` contracts them. Its trace Gamma^m_mp is
        also the trace of the Bismut symbols when H is a 3-form, since
        g^{mn} H_mn^p = 0 for g^-1 symmetric and H antisymmetric; ``div`` raises
        any other symbols itself, so a general rank-3 H is served too."""
        return contract("mn,nap->map", self.ginv, self.gamma)

    def _ricci(self, conn):
        """The trace R_ijk^i of the curvature endomorphism of conn, without
        forming it: conn[j, k, m] w_m - conn[i, k, m] (conn[j, m, i] + c^i_mj),
        summed over i and m, with the trace w_m = conn[i, m, i], plus
        E_i conn[j, k, i] - E_j w_k, which takes 36 frame derivatives, not 81.
        The structure term c^i_mj conn[i, k, m] = c^m_ij conn[m, k, i] rides
        in the conn.conn contraction."""
        w = contract("iki->k", conn)
        out = (contract("jkm,m->jk", conn, w)
               - contract("ikm,jmi->jk", conn, conn + _STRUCTURE.transpose(1, 0, 2)))
        if _is_invariant(conn):
            return out
        for j, k in np.ndindex(3, 3):
            out[j, k] = (out[j, k] + frame_derive(conn[j, k, 0], 1) + frame_derive(conn[j, k, 1], 2)
                         + frame_derive(conn[j, k, 2], 3) - frame_derive(w[k], j + 1))
        return out

    @cached
    def Rm_dddu(self):
        """R_ijk^l: the curvature endomorphism of the Levi-Civita connection."""
        return self.curvature(self.gamma)

    @cached
    def Rm_plus_dddu(self):
        """R+_ijk^l: the curvature endomorphism of nabla+ = nabla + H/2."""
        return self.curvature(self.gamma_p)

    @cached
    def Rm(self):
        """Riemann tensor Rm_{ijkl} = R_ijk^p g_pl of the Levi-Civita connection."""
        return contract("ijkp,pl->ijkl", self.Rm_dddu, self.g)

    @cached
    def Rm_plus(self):
        """Riemann tensor of the Bismut connection nabla+ = nabla + H/2."""
        return contract("ijkp,pl->ijkl", self.Rm_plus_dddu, self.g)

    # g^{il} Rm_{ijkl} = R_ijk^i, since g^{il} g_{pl} = delta_ip holds exactly
    # for exact and jet data alike; the trace is taken before R_ijk^l is formed

    @cached
    def Rc(self):
        """Ricci tensor Rc_{jk} = g^{il} Rm_{ijkl}, the trace R_ijk^i."""
        return self._ricci(self.gamma)

    @cached
    def Rc_plus(self):
        """Bismut Ricci tensor g^{il} Rm+_{ijkl} = R+_ijk^i."""
        return self._ricci(self.gamma_p)

    @cached
    def R(self):
        """Scalar curvature g^{jk} Rc_{jk}."""
        return contract("jk,jk->", self.Rc, self.ginv)

    @cached
    def H2(self):
        """H^2_{ij} = H_{ipq} H_{jrs} g^{pr} g^{qs}. For H = s vol it is
        2 s^2 g / det g, exactly: eps_ipq eps_jrs A^pr A^qs = 2 cof(A)_ij, and
        cof(g^-1) = g / det g."""
        s = self.volume_coeff
        if s is None:
            return contract("ipq,jrs,pr,qs->ij", self.H, self.H, self.ginv, self.ginv)
        return self.g * (2 * s * s * self.det_inv)

    @cached
    def H2_norm(self):
        """|H|^2, full contraction without combinatorial factor."""
        return contract("ij,ij->", self.H2, self.ginv)

    # Raised tensors, each built once: the operators below contract them with
    # their argument in one two-operand contraction. g is symmetric, so g^-1 is
    # too, and raising a slot by g^{pq} or by g^{qp} is the same.

    def raised(self, T, *slots):
        """T with each listed slot raised: g^{pq} T_{..q..}, p in the slot of q."""
        idx = "abcd"[:T.ndim]
        for s in slots:
            T = contract(f"p{idx[s]},{idx}->{idx[:s]}p{idx[s + 1:]}", self.ginv, T)
        return T

    @cached
    def H_ddu(self):
        """H_ij^k: H with its last slot raised, the torsion part of nabla+-."""
        return self.raised(self.H, 2)

    @cached
    def H_udu(self):
        """H^i_j^k: H with its first and last slots raised."""
        return self.raised(self.H, 0, 2)

    @cached
    def H_uud(self):
        """H^ij_k: H with its first two slots raised."""
        return self.raised(self.H, 0, 1)

    @cached
    def H2_du(self):
        """(H^2)_i^j: H^2 with its last slot raised."""
        return self.raised(self.H2, 1)

    @cached
    def HH_up(self):
        """HH[i, j, e, f] = H_abj H_cdi g^ac g^bf g^de: the mixed Laplacian's
        H*H term without its gamma_ef, built as H^cf_j H_c^e_i."""
        return contract("cfj,cei->ijef", self.H_uud, self.raised(self.H, 1))

    @cached
    def Rm_up(self):
        """Rm^i_jk^l: Rm with its first and last slots raised, the endomorphism
        with its first slot raised."""
        return self.raised(self.Rm_dddu, 0)

    @cached
    def Rm_plus_up(self):
        """Rm+^i_jk^l: Rm+ with its first and last slots raised."""
        return self.raised(self.Rm_plus_dddu, 0)

    def dstar(self, T):
        """Codifferential of a 2- or 3-form: (d*T)_... = -g^{mn} (nabla T)_{mn...}."""
        return -self.div(T)

    def i_grad(self, s, T):
        """Interior product i_{grad s} T for a form T (contracts the first slot)."""
        return contract("m,m...->...", self.grad_up(s), T)

    def dstar_f(self, T):
        return -self.div_f(T)

    def bismut_curvature_rhs(self):
        """Rm+ from the Riemannian data: Rm + (1/2)(nabla H terms) - (1/4)(H o H terms)."""
        dh = self.covd(self.H, self.gamma)
        q = Fraction(1, 4)
        hh1 = contract("ila,jkb,ab->ijkl", self.H, self.H, self.ginv)
        hh2 = contract("jla,ikb,ab->ijkl", self.H, self.H, self.ginv)
        half = Fraction(1, 2)
        return (self.Rm + dh * half - np.transpose(dh, (1, 0, 2, 3)) * half
                - hh1 * q + hh2 * q)

    # -- Bakry-Emery -------------------------------------------------------

    @cached
    def hess_f(self):
        """Hess f, the Levi-Civita Hessian of the potential."""
        return self.hessian(self.f)

    @cached
    def dstar_H(self):
        """d*H, the codifferential of the torsion 3-form."""
        return self.dstar(self.H)

    def bakry_emery(self):
        """Rc^{H,f}: Rc - H^2/4 + hess(f) - d*_f H/2, d*_f H = d*H + i_{grad f}H."""
        dstar_f_H = self.dstar_H
        if not (isinstance(self.f, Polynomial) and self.f.is_zero):
            dstar_f_H = dstar_f_H + self.i_grad(self.f, self.H)
        return self.Rc - Fraction(1, 4) * self.H2 + self.hess_f - Fraction(1, 2) * dstar_f_H

    def generalized_scalar(self):
        """R^{H,f} = R - |H|^2/12 + 2 laplacian f - |grad f|^2."""
        df = self.covd_scalar(self.f)
        norm2 = contract("m,m->", self.grad_up(self.f), df)
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
        t2 = -contract("mjk,mik->ij", self.H_udu, d)
        t3 = contract("mik,mkj->ij", self.H_udu, d)
        t4 = -(contract("ja,ia->ij", self.H2_du, gamma)
               + contract("ia,aj->ij", self.H2_du, gamma)) * Fraction(1, 4)
        t5 = -Fraction(1, 2) * contract("ijef,ef->ij", self.HH_up, gamma)
        return base + t2 + t3 + t4 + t5

    def mixed_laplacian_definition(self, gamma):
        """-(adjoint of nabla-bar) applied to nabla-bar gamma."""
        T = self.mixed_covd(gamma)
        out = -self.div_f(T)
        out = out + Fraction(1, 2) * contract("cdi,cdj->ij", self.H_uud, T)
        out = out - Fraction(1, 2) * contract("cdj,cid->ij", self.H_uud, T)
        return -out

    # -- inner products ------------------------------------------------------

    def inner(self, A, B):
        """Pointwise full contraction <A, B>_g for tensors of equal rank: B
        raised one slot at a time, then summed against A."""
        if A.ndim != B.ndim:
            raise BadRank("inner product needs equal ranks")
        return (A * self.raised(B, *range(B.ndim))).sum()
