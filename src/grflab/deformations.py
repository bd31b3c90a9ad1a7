"""Solitonic deformations of the Bismut-flat 3-sphere: parallel tensors,
the canonical eigenfunction construction, exact kernel computation, the
integral identities, and the second-order integrability obstruction with an
independent jet-based cross-check."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .frames import BadIndex, adjoint_matrix
from .harmonics import canonical_space, harmonic_basis, is_eigenfunction
from .poly import IntegralValue, JetScalar, as_poly, integrate_s3
from .tensors import Geometry, antisym, contract, is_zero, jet_part, obj_array, sym, zeros
from .variational import (coordinate_tensor, curvature_action, degree_kernels, operator_B,
                          second_variation_form)

MU = Fraction(2)  # Einstein constant of the unit round 3-sphere


class NotEigenfunction(ValueError):
    pass


class PreconditionFailed(ValueError):
    pass


_EYE = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]


@cache
def round_geometry():
    """The Bismut-flat critical point: round unit S^3 with H = 2 dV, f = 0."""
    return Geometry(_EYE, H=2)


@dataclass
class Deformation:
    gamma: np.ndarray
    provenance: str = ""

    @property
    def h(self):
        return sym(self.gamma)

    @property
    def K(self):
        return -antisym(self.gamma)


def parallel_from_invariant_forms(i, j):
    """The deformation omega^L_i (x) omega^R_j, i, j in 1..3."""
    if i not in (1, 2, 3) or j not in (1, 2, 3):
        raise BadIndex("form indices must be in 1..3")
    A = adjoint_matrix()
    arr = zeros((3, 3))
    for b in range(3):
        arr[i - 1, b] = A[j - 1][b]
    return Deformation(arr, provenance=f"parallel({i},{j})")


def canonical_igsd(u):
    """gamma = 2 mu u g + hess u - (1/2) d*(uH) for an eigenfunction with lap u = -4 mu u."""
    u = _check_eigen(u)
    geo = round_geometry()
    gamma = (2 * MU * u) * geo.g + geo.hessian(u) - Fraction(1, 2) * geo.dstar(u * geo.H)
    return Deformation(gamma, provenance="canonical(u)")


def igsd_kernel(d):
    """Exact basis of ker B intersected with ker of the twisted divergence.

    Assembled degree-by-degree: every operator involved preserves the
    Laplace eigenspaces (frame fields commute with the Casimir), so the
    kernel splits over harmonic degrees with no truncation error.
    """
    geo = round_geometry()
    blocks = degree_kernels(d, lambda t: (operator_B(t, geo), *geo.twisted_divergence(t)))
    return [Deformation(coordinate_tensor(v, k), provenance=f"kernel(k={k},i={n})")
            for k, block in enumerate(blocks) for n, v in enumerate(block)]


def first_order_system_check(gamma):
    """The coupled first-order equations on h = sym(gamma), K = -antisym(gamma):

    nabla_m h_ij = -1/2 (H_mik K_jk + H_mjk K_ik),
    nabla_m K_ij = -1/2 (H_mjk h_ik - H_mik h_jk).
    """
    geo = round_geometry()
    h, K = sym(gamma), -antisym(gamma)
    dh = geo.covd(h, geo.gamma)
    dK = geo.covd(K, geo.gamma)
    hu = geo.H_ddu
    rhs_h = -Fraction(1, 2) * (contract("mib,jb->mij", hu, K) + contract("mjb,ib->mij", hu, K))
    rhs_K = -Fraction(1, 2) * (contract("mjb,ib->mij", hu, h) - contract("mib,jb->mij", hu, h))
    return is_zero(dh - rhs_h) and is_zero(dK - rhs_K)


def equivalence_check(gamma):
    """Evaluate the four equivalent kernel characterizations independently."""
    geo = round_geometry()
    u, v = geo.twisted_divergence(gamma)
    in_slice = is_zero(u) and is_zero(v)
    cond_a = is_zero(operator_B(gamma, geo)) and in_slice
    cond_b = is_zero(geo.mixed_covd(gamma))
    cond_c = first_order_system_check(gamma)
    cond_d = second_variation_form(gamma, gamma, geo).is_zero and in_slice
    report = {
        "kernel_of_B": cond_a,
        "parallel": cond_b,
        "first_order_system": cond_c,
        "second_variation_zero": cond_d,
    }
    report["agree"] = len({cond_a, cond_b, cond_c, cond_d}) == 1
    return report


def integral_identities(gamma):
    """The exact integral identities satisfied by every kernel deformation."""
    geo = round_geometry()
    if not is_zero(geo.mixed_covd(gamma)):
        raise PreconditionFailed("deformation is not parallel for the mixed connection")
    h, K = sym(gamma), -antisym(gamma)

    def pair(a, b):
        return integrate_s3(geo.inner(a, b))

    rh_h = pair(curvature_action(geo, h, bismut=False), h)
    rk_k = pair(curvature_action(geo, K, bismut=False), K)
    div_h = geo.div(h)
    div_h2 = pair(div_h, div_h)
    grad_h = geo.covd(h, geo.gamma)
    grad_k = geo.covd(K, geo.gamma)
    nh2 = pair(grad_h, grad_h)
    nk2 = pair(grad_k, grad_k)
    rhh = integrate_s3(contract("ij,ja,ib,ab->", geo.Rc, h, h, geo.ginv))
    rkk = integrate_s3(contract("ij,ja,ib,ab->", geo.Rc, K, K, geo.ginv))
    report = {
        "ring_h": rh_h,
        "ring_K": rk_k,
        "div_h_sq": div_h2,
        "grad_h_sq": nh2,
        "grad_K_sq": nk2,
        "ricci_hh": rhh,
        "ricci_KK": rkk,
    }
    report["chain_holds"] = (rh_h == Fraction(-1, 2) * div_h2 and rh_h == -rk_k)
    report["gradient_norms_equal"] = nh2 == nk2
    report["ricci_identity_holds"] = (rhh - div_h2 == rkk)
    return report


def _check_eigen(u):
    u = as_poly(u)
    if not is_eigenfunction(u, 2):
        raise NotEigenfunction("function must satisfy lap u = -8 u")
    return u


def obstruction(u, w):
    """The second-order integrability pairing -6 mu int u^2 w dV."""
    u, w = _check_eigen(u), _check_eigen(w)
    return IntegralValue(-6 * MU * integrate_s3(u * u, w).coeff)


def integrability_report(u):
    """(pairings, integrable_order2): the obstruction pairings {i: obstruction(u, w_i)}
    against w_i = harmonic_basis(2)[i], and whether they all vanish."""
    u = _check_eigen(u)
    pairings = {i: obstruction(u, w) for i, w in enumerate(harmonic_basis(2))}
    return pairings, all(v.is_zero for v in pairings.values())


@lru_cache(maxsize=9)
def _jet_u_part(u):
    """The u-only part of ``jet_second_variation_check`` for a checked u:
    the formula checks and d^2 Rc^{H,f} of the order-2 jet family. Cached
    per u, one entry per element of harmonic_basis(2)."""
    geo0 = round_geometry()

    # minimizer jet: f' = u/2 and lap f'' = 7 mu u^2 - (7/4)|grad u|^2, mean zero
    du = geo0.covd_scalar(u)
    grad_u2 = as_poly(contract("m,m->", du, du))
    rhs = 7 * MU * (u * u) - Fraction(7, 4) * grad_u2
    f2 = canonical_space(4).poisson_solve(rhs)

    gj = obj_array([[JetScalar(_EYE[i][j], u * _EYE[i][j], 0) for j in range(3)]
                    for i in range(3)])
    hj = np.array([[[JetScalar(geo0.H[i, j, k], 2 * u * geo0.H[i, j, k], 0)
                     for k in range(3)] for j in range(3)] for i in range(3)],
                  dtype=object)
    fj = JetScalar(0, u * Fraction(1, 2), f2)
    geo_t = Geometry(gj, hj, fj)

    g0 = geo0.g
    lap_u = as_poly(-8 * u)
    hess_u = geo0.hessian(u)
    du_du = contract("i,j->ij", du, du)
    iuH = geo0.i_grad(u, geo0.H)
    hess_f2 = geo0.hessian(f2)
    if2H = geo0.i_grad(f2, geo0.H)

    hess_t, dstar_t = geo_t.hess_f, geo_t.dstar_H
    igrad_t = geo_t.i_grad(geo_t.f, geo_t.H)
    rchf_2 = jet_part(geo_t.bakry_emery(), 2)

    # (jet computation, closed formula) per quantity
    formulas = {
        # first derivatives at t = 0
        "d1 Rc": (jet_part(geo_t.Rc, 1),
                  Fraction(-1, 2) * lap_u * g0 - Fraction(1, 2) * hess_u),
        "d1 R": (geo_t.R.c1, -2 * lap_u - 6 * u),
        "d1 H2": (jet_part(geo_t.H2, 1), 2 * u * geo0.H2),
        "d1 |H|2": (geo_t.H2_norm.c1, 24 * u),
        "d1 d*H": (jet_part(dstar_t, 1), Fraction(-1, 2) * iuH),
        "d1 i_gradf H": (jet_part(igrad_t, 1), Fraction(1, 2) * iuH),
        # second derivatives at t = 0
        "d2 Rc": (jet_part(geo_t.Rc, 2),
                  (Fraction(1, 2) * grad_u2 - 4 * MU * u * u) * g0
                  + Fraction(3, 2) * du_du + u * hess_u),
        "d2 H2": (jet_part(geo_t.H2, 2), (-8 * MU * u * u) * g0),
        "d2 hess f": (jet_part(hess_t, 2),
                      -du_du + Fraction(1, 2) * grad_u2 * g0 + hess_f2),
        "d2 d*H": (jet_part(dstar_t, 2), (4 * u) * iuH),
        "d2 i_gradf H": (jet_part(igrad_t, 2), u * iuH + if2H),
        "d2 Rc^{H,f}": (rchf_2,
                        (grad_u2 - 2 * MU * u * u) * g0 + Fraction(1, 2) * du_du
                        + u * hess_u + hess_f2
                        - Fraction(5, 2) * u * iuH - Fraction(1, 2) * if2H),
    }
    checks = {name: is_zero(got - want) for name, (got, want) in formulas.items()}
    return checks, rchf_2


def jet_second_variation_check(u, w):
    """Order-2 jet computation of the deformation family g_t = (1+tu)g,
    H_t = (1+2tu)H with the minimizer jet f_t.

    Asserts the first- and second-derivative formulas of every curvature
    quantity componentwise exactly, then pairs the second derivative of the
    Bakry-Emery tensor with w g + (1/(2 mu)) i_{grad w} H and compares the
    integral with the obstruction pairing. Returns a report with the exact
    residual (must be zero) and the individual formula checks. Everything
    but the pairing depends on u alone and is computed once per u.
    """
    u, w = _check_eigen(u), _check_eigen(w)
    checks, rchf_2 = _jet_u_part(u)
    geo0 = round_geometry()
    gamma_w = w * geo0.g + (Fraction(1, 2) / MU) * geo0.i_grad(w, geo0.H)
    pairing = integrate_s3(geo0.inner(rchf_2, gamma_w))
    residual = pairing - obstruction(u, w)
    return {
        "checks": dict(checks),
        "all_formulas_match": all(checks.values()),
        "pairing": pairing,
        "residual": residual,
    }
