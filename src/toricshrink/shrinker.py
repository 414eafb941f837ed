"""Soliton data on a labeled polyhedron.

The soliton vector minimizes F(b) = integral of e^{-<b,x>} over P. A
symplectic potential u = u_P + s solves the soliton equation when

    R(x) = <grad u, x> - u - <b, x> - log det Hess u

is constant. R is evaluated in a boundary-stable form: the labeled-facet
factors of det Hess u are cancelled algebraically against the canonical
potential's own divergence, leaving quantities smooth up to the boundary.
The density det(Hess u) prod_i L_i comes from potentials._density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polyhedra import Facet, LabeledPolyhedron
from .potentials import (
    GridCorrection,
    NoConvergence,
    NotConvexHere,
    _density,
    barycentric_weights,
    differentiation_matrix,
    lobatto_nodes,
)
from .quadrature import DivergentWeight, plan as build_plan


class NotAProduct(ValueError):
    """The polyhedron does not split as a product across coordinate blocks."""


# ---------------------------------------------------------------------------
# the weighted volume functional

def weighted_volume(P: LabeledPolyhedron, b, tol: float = 1e-12) -> float:
    """F(b): the e^{-<b,x>}-weighted volume of P, certified to tol."""
    return build_plan(P, b, tol=tol).exp_integral()


def grad_hess_F(P: LabeledPolyhedron, b, tol: float = 1e-12):
    """F(b) with its gradient -int x e^{-<b,x>} and Hessian of second moments."""
    F, m1, m2 = build_plan(P, b, tol=tol).moments()
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


def find_soliton_vector(P: LabeledPolyhedron, tol: float = 1e-12,
                        max_iter: int = 200) -> SolitonVector:
    """Damped Newton minimization of the strictly convex functional F."""
    if P.is_bounded():
        b = np.zeros(P.dim)
    else:
        b = _initial_weight(P)
    F, g, H = grad_hess_F(P, b, tol=max(1e-14, 0.01 * tol))
    for it in range(1, max_iter + 1):
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
                Fn, gn, Hn = grad_hess_F(P, b + lam * step,
                                         tol=max(1e-14, 0.01 * tol))
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
    raise NoConvergence(f"soliton vector did not converge in {max_iter} steps")


# ---------------------------------------------------------------------------
# stable residual of the soliton equation

def _residual_core(P: LabeledPolyhedron, b, X, s_val, s_grad, s_hess,
                   strict: bool = True):
    W = P.scaled_normal_matrix()
    a = P.offsets_array()
    L = X @ W.T + a
    scale = 1.0 + np.max(np.abs(a))
    if np.any(L < -1e-12 * scale):
        raise ValueError("residual requested outside the closed polyhedron")
    L = np.maximum(L, 0.0)
    D = _density(P, L, s_hess)
    if np.any(D <= 0.0):
        if strict:
            bad = X[np.argmin(D)]
            raise NotConvexHere(f"density nonpositive near {tuple(map(float, bad))}")
        return None
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
    R += np.einsum("mi,mi->m", s_grad, X) - s_val - np.log(D)
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
    R = _residual_core(P, b, X, s_val, s_grad, s_hess, strict=True)
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


def _solve_domain(P: LabeledPolyhedron, b, truncation):
    """Axis ranges for the collocation box, cutting unbounded axes at <b,x>=T.

    Every facet normal must be +-e_d, so P is the product of the 1D
    polyhedra cut out by each axis's facets; those factors are returned too,
    with P itself as its own factor in 1D.
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
    cuts = []
    T = truncation
    for d in range(n):
        if lo[d] is None or hi[d] is None:
            bd = float(b[d])
            if lo[d] is None and hi[d] is None:
                raise NotAProduct("axis is a full line; polyhedron is improper")
            if hi[d] is None:
                if bd <= 0:
                    raise DivergentWeight(
                        f"weight not integrable along axis {d}",
                        ray=tuple(int(i == d) for i in range(n)),
                    )
                hi[d] = T / bd
                cuts.append((d, "upper"))
            else:
                if bd >= 0:
                    raise DivergentWeight(
                        f"weight not integrable along axis {d}",
                        ray=tuple(-int(i == d) for i in range(n)),
                    )
                lo[d] = T / bd
                cuts.append((d, "lower"))
            if hi[d] <= lo[d]:
                raise ValueError("truncation level does not clear the domain")
    factors = [P] if n == 1 else [LabeledPolyhedron(dim=1, facets=tuple(fs))
                                  for fs in axis_facets]
    return list(zip(lo, hi)), tuple(cuts), factors


def _tensor(arrays) -> np.ndarray:
    """Rows (a_0[i], a_1[j], ...) over the grid of per-axis arrays, C order."""
    return np.column_stack(
        [g.ravel() for g in np.meshgrid(*arrays, indexing="ij")]
    )


def _solve_axis(P: LabeledPolyhedron, b, x, cut, start, tol, max_iter):
    """Gauss-Newton collocation of the 1D soliton equation at the nodes x.

    The unknowns are the values of s and the constant c. The rows are R - c
    at every node off the cut mask, s'' = 0 on it, and s(0) = s'(0) = 0
    through the interpolant. The Jacobian is exact: R depends on s through
    x s' - s - log D, and the density D is affine in s'' with slope prod L.
    Returns s, s', s'' at the nodes and the iteration count.
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
    L = np.maximum(X @ P.scaled_normal_matrix().T + P.offsets_array(), 0.0)
    prod_L = np.prod(L, axis=1)

    def residual_vector(z):
        s = z[:-1]
        R = _residual_core(P, b, X, s, (D1 @ s)[:, None],
                           (D2 @ s)[:, None, None], strict=False)
        if R is None:
            return None
        return np.concatenate([R[eq] - z[-1], lin @ z])

    def jacobian(z):
        weight = prod_L / _density(P, L, (D2 @ z[:-1])[:, None, None])
        J_s = x[:, None] * D1 - np.eye(m) - weight[:, None] * D2
        return np.vstack([np.column_stack([J_s[eq], -np.ones(eq.sum())]), lin])

    z = np.zeros(m + 1)
    if start is not None:
        z[:-1] = start
    phi = residual_vector(z)
    if phi is None:
        raise NotConvexHere("initial correction leaves the density nonpositive")
    z[-1] = float(np.mean(phi[: eq.sum()]))
    phi = residual_vector(z)
    norm = float(np.linalg.norm(phi, np.inf))

    it = 0
    for it in range(1, max_iter + 1):
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
          tol: float = 1e-11, max_iter: int = 80,
          initial=None) -> SolveResult:
    """Solve the soliton equation for the correction s by spectral collocation.

    Supports 1D and 2D product domains. In 2D, every facet normal is +-e_d,
    so P splits into two 1D factors, one per axis. The canonical potential, log det Hess u and the residual
    separate over them, so the tensor sum s_1(x) + s_2(y) of the factor
    solutions solves the 2D equation with constant c_1 + c_2. Each axis is
    solved by Gauss-Newton with the exact Jacobian. A node on a truncation
    plane trades its equation row for a vanishing second derivative of s.
    The affine gauge is pinned at the origin, s(0) = grad s(0) = 0, through
    the interpolant, so the constant does not depend on the grid. Offsets
    must be 2, so the origin is interior; at the soliton vector it is the
    barycenter of e^{-<b,x>}. A 2D initial grid starts each factor from its
    slice through the node nearest 0 on the other axis. The reported
    constant and deviation come from the residual on the full grid.
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
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        if initial.size != np.prod(grid):
            raise ValueError("initial correction grid has the wrong shape")
        initial = initial.reshape(grid)

    sols = []
    for d in range(n):
        start = None
        if initial is not None:
            start = initial[tuple(slice(None) if k == d
                                  else int(np.argmin(np.abs(axes[k])))
                                  for k in range(n))]
        sols.append(_solve_axis(factors[d], b[d:d + 1], axes[d], on_cut[d],
                                start, tol, max_iter))
    s_axes, ds_axes, dds_axes, its = zip(*sols)

    X = _tensor(axes)
    svals = _tensor(s_axes).sum(axis=1)
    grad = _tensor(ds_axes)
    hess = _tensor(dds_axes)[:, :, None] * np.eye(n)
    interior = ~_tensor(on_cut).any(axis=1)
    R = _residual_core(P, b, X, svals, grad, hess, strict=True)
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
