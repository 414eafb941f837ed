"""Soliton data on a labeled polyhedron.

The soliton vector minimizes F(b) = integral of e^{-<b,x>} over P. A
symplectic potential u = u_P + s solves the soliton equation when

    R(x) = <grad u, x> - u - <b, x> - log det Hess u

is constant. R is evaluated in a boundary-stable form: the labeled-facet
factors of det Hess u are cancelled algebraically against the canonical
potential's own divergence, leaving quantities smooth up to the boundary.
The density det(Hess u) prod_i L_i is a quadratic form in Hess s whose
coefficients depend only on the facet values (potentials._density_form);
the collocation solve builds it once per axis and evaluates it at every
Gauss-Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polyhedra import Facet, LabeledPolyhedron
from .potentials import (
    GridCorrection,
    NoConvergence,
    NotConvexHere,
    _density,
    _density_form,
    barycentric_weights,
    differentiation_matrix,
    lobatto_nodes,
)
from .quadrature import DivergentWeight, _weight_skeleton, plan as build_plan


class NotAProduct(ValueError):
    """The polyhedron does not split as a product across coordinate blocks."""


# ---------------------------------------------------------------------------
# the weighted volume functional

def weighted_volume(P: LabeledPolyhedron, b) -> float:
    """F(b): the e^{-<b,x>}-weighted volume of P, in closed form."""
    return build_plan(P, b).exp_integral()


def grad_hess_F(P: LabeledPolyhedron, b):
    """F(b) with its gradient -int x e^{-<b,x>} and Hessian of second moments."""
    F, m1, m2 = build_plan(P, b).moments()
    return F, -m1, m2


@dataclass(frozen=True)
class SolitonVector:
    b: tuple[float, ...]
    F_value: float
    gradient_norm: float
    iterations: int


def _initial_weight(P: LabeledPolyhedron) -> np.ndarray:
    # the sum of unit facet normals pairs strictly positively with every
    # nonzero recession direction, so F is finite there
    W = np.array([f.normal for f in P.facets], dtype=float)
    return np.sum(W / np.linalg.norm(W, axis=1, keepdims=True), axis=0)


def find_soliton_vector(P: LabeledPolyhedron, tol: float = 1e-12) -> SolitonVector:
    """Damped Newton minimization of the strictly convex functional F, at most 200 steps."""
    if P.is_bounded():
        b = np.zeros(P.dim)
    else:
        b = _initial_weight(P)
    F, g, H = grad_hess_F(P, b)
    for it in range(1, 201):
        if np.linalg.norm(g) <= tol * max(1.0, abs(F)):
            return SolitonVector(
                b=tuple(map(float, b)),
                F_value=F,
                gradient_norm=float(np.linalg.norm(g)),
                iterations=it - 1,
            )
        step = np.linalg.solve(H, -g)
        lam = 1.0
        while lam > 1e-16:
            try:
                Fn, gn, Hn = grad_hess_F(P, b + lam * step)
            except DivergentWeight:
                lam *= 0.5
                continue
            if Fn < F or np.linalg.norm(gn) < 0.5 * np.linalg.norm(g):
                b = b + lam * step
                F, g, H = Fn, gn, Hn
                break
            lam *= 0.5
        else:
            raise NoConvergence("line search failed while minimizing F")
    raise NoConvergence("soliton vector did not converge in 200 steps")


# ---------------------------------------------------------------------------
# stable residual of the soliton equation

def _canonical_part(P: LabeledPolyhedron, b, X):
    """(L, R_P): the facet values at X and the part of R that s cannot reach.

    R_P is 1/2 sum_i l_i - <b, x> plus, for offsets other than 2, their
    logarithmic factors: the residual of u_P without its log det term, which
    the density carries.
    """
    W = P.scaled_normal_matrix()
    a = P.offsets_array()
    L = X @ W.T + a
    scale = 1.0 + np.max(np.abs(a))
    if np.any(L < -1e-12 * scale):
        raise ValueError("residual requested outside the closed polyhedron")
    L = np.maximum(L, 0.0)
    ell = L - a
    R = 0.5 * np.sum(ell, axis=1) - X @ np.asarray(b, dtype=float)
    # general offsets leave uncancelled logarithmic factors; they vanish in
    # the shrinker normalization a_i = 2, making R smooth up to the boundary
    coefs = 1.0 - a / 2.0
    if np.any(coefs != 0.0):
        if np.any((L == 0.0) & (np.abs(coefs) > 0.0)[None, :]):
            raise ValueError(
                "boundary evaluation needs shrinker-normalized offsets"
            )
        R += np.log(np.where(L > 0, L, 1.0)) @ coefs
    return L, R


def _nonconvex(X, D):
    bad = X[np.argmin(D)]
    return NotConvexHere(f"density nonpositive near {tuple(map(float, bad))}")


def _correction_part(P: LabeledPolyhedron, L, X, s_val, s_grad, s_hess):
    """<grad s, x> - s - log D at X with facet values L; NotConvexHere
    where D <= 0."""
    D = _density(P, L, s_hess)
    if np.any(D <= 0.0):
        raise _nonconvex(X, D)
    return np.einsum("mi,mi->m", s_grad, X) - s_val - np.log(D)


def _residual_core(P: LabeledPolyhedron, b, X, s_val, s_grad, s_hess):
    """R at X: the canonical part plus the correction part; NotConvexHere
    where the density is nonpositive."""
    L, R = _canonical_part(P, b, X)
    R += _correction_part(P, L, X, s_val, s_grad, s_hess)
    return R


def _correction_arrays(correction, X, n):
    if correction is None:
        m = len(X)
        return np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n))
    return correction.jet(X)


def residual(P: LabeledPolyhedron, b, x, correction=None):
    """R(x) for u = u_P + correction, stable up to the boundary of P.

    correction=None means the canonical potential itself.
    """
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    s_val, s_grad, s_hess = _correction_arrays(correction, X, P.dim)
    R = _residual_core(P, b, X, s_val, s_grad, s_hess)
    return float(R[0]) if single else R


# ---------------------------------------------------------------------------
# collocation solver

@dataclass(frozen=True)
class SolveResult:
    b: tuple[float, ...]
    correction: GridCorrection
    constant: float
    residual_deviation: float
    iterations: int
    grid: tuple[int, ...]
    domain: tuple[tuple[float, float], ...]
    truncated_axes: tuple[tuple[int, str], ...]
    truncation: float | None


@lru_cache(maxsize=256)
def _product_factors(P: LabeledPolyhedron):
    """(factors, lo, hi): the 1D factor polyhedra of an axis-aligned product P,
    with P itself as its own factor in 1D, and each axis's finite ends
    (None where the axis is unbounded), built and checked once per P.

    Every facet normal must be +-e_d, so P is the product of the 1D
    polyhedra cut out by each axis's facets. An axis with no facets is a
    line in P, which no weight integrates; its factor is None.
    """
    n = P.dim
    lo = [None] * n
    hi = [None] * n
    axis_facets = [[] for _ in range(n)]
    for f in P.facets:
        support = [d for d, c in enumerate(f.normal) if c != 0]
        if len(support) != 1 or abs(f.normal[support[0]]) != 1:
            raise NotAProduct(
                "the collocation solver needs an axis-aligned product domain"
            )
        d = support[0]
        axis_facets[d].append(Facet(normal=(f.normal[d],), label=f.label, offset=f.offset))
        m = f.label
        if f.normal[d] == 1:
            lo[d] = -float(f.offset) / m
        else:
            hi[d] = float(f.offset) / m
    factors = (P,) if n == 1 else tuple(
        LabeledPolyhedron(dim=1, facets=tuple(fs)) if fs else None for fs in axis_facets)
    return factors, tuple(lo), tuple(hi)


def _solve_domain(P: LabeledPolyhedron, b, truncation):
    """Axis ranges for the collocation box, cutting unbounded axes at <b,x>=T,
    the truncated axes, and the 1D factors of P (_product_factors)."""
    n = P.dim
    factors, lo, hi = _product_factors(P)
    lo, hi = list(lo), list(hi)
    _weight_skeleton(P, b)  # e^{-<b,x>} is integrable on P
    cuts = []
    for d in range(n):
        if hi[d] is None:
            hi[d] = truncation / float(b[d])
            cuts.append((d, "upper"))
        elif lo[d] is None:
            lo[d] = truncation / float(b[d])
            cuts.append((d, "lower"))
        else:
            continue
        if hi[d] <= lo[d]:
            raise ValueError("truncation level does not clear the domain")
    return list(zip(lo, hi)), tuple(cuts), factors


def _tensor(arrays) -> np.ndarray:
    """Rows (a_0[i], a_1[j], ...) over the grid of per-axis arrays, C order."""
    return np.column_stack(
        [g.ravel() for g in np.meshgrid(*arrays, indexing="ij")]
    )


def _solve_axis(P: LabeledPolyhedron, b, x, cut, tol):
    """Gauss-Newton collocation of the 1D soliton equation at the nodes x.

    The unknowns are the values of s and the constant c. The rows are R - c
    at every node off the cut mask, s'' = 0 on it, and s(0) = s'(0) = 0
    through the interpolant. R depends on s through x s' - s - log D, and
    the density D = A + s'' prod L is affine in s'' (_density_form, built
    once here: the facet values are fixed at the nodes), so residual and
    Jacobian each cost one differentiation and no facet products, and the
    Jacobian is exact. Iteration starts from s = 0 and takes at most 80
    steps. Returns s, s', s'' at the nodes and the iteration count.
    """
    X = x[:, None]
    m = len(x)
    D1 = differentiation_matrix(x)
    D2 = D1 @ D1
    eq = ~cut
    # ell @ s = s(0): the barycentric interpolation row at the origin, or a
    # unit row where a node is exactly 0 (the teardrop's grid of 64 has one)
    ell = barycentric_weights(x) / -x if np.all(x) else (x == 0.0).astype(float)
    ell = ell / np.sum(ell)
    # the rows after the equations are linear in z = (s, c)
    lin = np.vstack([D2[cut], ell, ell @ D1])
    lin = np.column_stack([lin, np.zeros(len(lin))])
    L, R_P = _canonical_part(P, b, X)
    A, _, prod_L = _density_form(P, L)

    def residual_vector(z):
        s = z[:-1]
        D = A + (D2 @ s) * prod_L
        if np.any(D <= 0.0):
            return None
        corr = x * (D1 @ s) - s - np.log(D)
        return np.concatenate([(R_P + corr)[eq] - z[-1], lin @ z])

    J_fixed = x[:, None] * D1 - np.eye(m)  # x s' - s: the part fixed at the nodes

    def jacobian(z):
        weight = prod_L / (A + (D2 @ z[:-1]) * prod_L)
        J_s = J_fixed - weight[:, None] * D2
        return np.vstack([np.column_stack([J_s[eq], -np.ones(eq.sum())]), lin])

    z = np.zeros(m + 1)
    phi = residual_vector(z)
    if phi is None:
        raise NotConvexHere("the canonical potential's density is nonpositive")
    z[-1] = float(np.mean(phi[: eq.sum()]))
    phi = residual_vector(z)
    norm = float(np.linalg.norm(phi, np.inf))

    it = 0
    for it in range(1, 81):
        if norm <= tol:
            break
        step, *_ = np.linalg.lstsq(jacobian(z), -phi, rcond=None)
        lam = 1.0
        improved = False
        while lam > 1e-12:
            zn = z + lam * step
            pn = residual_vector(zn)
            if pn is not None:
                nn = float(np.linalg.norm(pn, np.inf))
                if nn < norm:
                    z, phi, norm = zn, pn, nn
                    improved = True
                    break
            lam *= 0.5
        if not improved:
            break

    if norm > max(tol, 1e-6):
        raise NoConvergence(
            f"collocation residual stalled at {norm:.3e} after {it} iterations"
        )
    s = z[:-1]
    return s, D1 @ s, D2 @ s, it


def solve(P: LabeledPolyhedron, b=None, grid=None, truncation: float = 12.0,
          tol: float = 1e-11) -> SolveResult:
    """Solve the soliton equation for the correction s by spectral collocation.

    Supports 1D and 2D product domains. In 2D, every facet normal is +-e_d,
    so P splits into two 1D factors, one per axis. The canonical potential,
    log det Hess u and the residual separate over them, so the tensor sum
    s_1(x) + s_2(y) of the factor solutions solves the 2D equation with
    constant c_1 + c_2. Each axis is solved by Gauss-Newton with the exact
    Jacobian. A node on a truncation plane trades its equation row for a
    vanishing second derivative of s. The affine gauge is pinned at the
    origin, s(0) = grad s(0) = 0, through the interpolant, so the constant
    does not depend on the grid. Offsets must be 2, so the origin is
    interior; at the soliton vector it is the barycenter of e^{-<b,x>}. The
    reported constant and deviation come from the residual on the full grid.
    """
    n = P.dim
    if n > 2:
        raise NotAProduct("the collocation solver supports dimensions 1 and 2")
    if b is None:
        b = np.array(find_soliton_vector(P).b)
    else:
        b = np.asarray(b, dtype=float)
    if grid is None:
        grid = (48,) if n == 1 else (24, 24)
    elif isinstance(grid, int):
        grid = (grid,) * n
    grid = tuple(grid)
    domain, cuts, factors = _solve_domain(P, b, truncation)

    axes = [lobatto_nodes(lo, hi, g) for (lo, hi), g in zip(domain, grid)]
    on_cut = [np.zeros(len(x), dtype=bool) for x in axes]
    for d, side in cuts:
        on_cut[d][-1 if side == "upper" else 0] = True
    sols = [_solve_axis(factors[d], b[d:d + 1], axes[d], on_cut[d], tol)
            for d in range(n)]
    s_axes, ds_axes, dds_axes, its = zip(*sols)

    X = _tensor(axes)
    svals = _tensor(s_axes).sum(axis=1)
    grad = _tensor(ds_axes)
    hess = _tensor(dds_axes)[:, :, None] * np.eye(n)
    interior = ~_tensor(on_cut).any(axis=1)
    R = _residual_core(P, b, X, svals, grad, hess)
    c_star = float(np.mean(R[interior]))
    deviation = float(np.max(np.abs(R[interior] - c_star)))
    return SolveResult(
        b=tuple(map(float, b)),
        correction=GridCorrection(axes, svals.reshape(grid)),
        constant=c_star,
        residual_deviation=deviation,
        iterations=max(its),
        grid=grid,
        domain=tuple((float(lo), float(hi)) for lo, hi in domain),
        truncated_axes=tuple(cuts),
        truncation=truncation if cuts else None,
    )
