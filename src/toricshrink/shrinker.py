"""Soliton data on a labeled polyhedron.

The soliton vector minimizes F(b) = integral of e^{-<b,x>} over P. A
symplectic potential u = u_P + s solves the soliton equation when

    R(x) = <grad u, x> - u - <b, x> - log det Hess u

is constant. R is evaluated in a boundary-stable form: the labeled-facet
factors of det Hess u are cancelled algebraically against the canonical
potential's own divergence, leaving quantities smooth up to the boundary.
Newton finds b_X with a stop on log F's Newton decrement, which has no
scale. On a product P, b_X and the equation split over the 1D factors: each
has a closed-form root and momentum profile W = 1/u'', so neither iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
from numpy.polynomial import chebyshev as C

from .polyhedra import Facet, LabeledPolyhedron
from .potentials import (
    GridCorrection,
    NoConvergence,
    NotConvexHere,
    _as_batch,
    _density_at,
    _density_form,
    lobatto_nodes,
)
from .quadrature import _geometry, _weight_skeleton, plan as build_plan


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
    """The minimiser b of F with F(b), |grad F(b)| and the Newton steps taken
    (0 on an axis-aligned product, whose closed-form root Newton only checks).

    achieved is log F's Newton decrement lam at b. For lam < 1, |b - b_X| <= lam/(1 - lam)
    in the norm of Hess log F at b (Nesterov 2004, 4.1) in exact arithmetic; the
    computed lam carries the rounding of F's moments.

    The fields are the keys of the `soliton-vector` artifact; renaming one
    changes the artifact.
    """

    b: tuple[float, ...]
    F_value: float
    gradient_norm: float
    achieved: float
    iterations: int


def _initial_weight(P: LabeledPolyhedron) -> np.ndarray:
    # the sum w of unit facet normals pairs strictly positively with every nonzero
    # recession direction; over rho = max -<w, v> at P's vertices v (> 0, the origin
    # being interior), the weight is at most e at every vertex, whatever P's scale
    W = np.array([f.normal for f in P.facets], dtype=float)
    w = np.sum(W / np.linalg.norm(W, axis=1, keepdims=True), axis=0)
    return w / np.max(-(_geometry(P).verts @ w))


# (sinh(z)/z - 1)/z^2 and (z cosh z - sinh z)/z^3 in z^2, positive terms in Horner's order
_SERIES = [(1.0 / math.factorial(2 * k + 1), 2.0 * k / math.factorial(2 * k + 1))
           for k in range(16, 0, -1)]


def _factor_root(lo: Fraction | None, hi: Fraction | None) -> float:
    """The b at which int x e^{-bx} = 0 over [lo, hi], -1/end on a half-line.

    On [c - w, c + w] the mean is c - w L(bw), L(z) = coth z - 1/z, so b = z/w
    where L(z) = y = c/w. On z > 0, L is concave and below z/3 and 1 - 1/(1 + z),
    so Newton rises to the root from max(3|y|, |y|/r), r = 1 - |y|. Past z = 3, z(L - |y|)
    and zL' come from r and coth z - 1: no sinh z or z^2 to overflow, and r keeps its digits."""
    if lo is None or hi is None:
        return float(-1 / (hi if lo is None else lo))
    y = (lo + hi) / (hi - lo)
    a, r = float(abs(y)), float(1 - abs(y))
    z = max(3.0 * a, float(abs(y) / (1 - abs(y))))
    for _ in range(100):
        if z < 3.0:
            u, T, N = z * z, 0.0, 0.0
            for t, n in _SERIES:
                T, N = T * u + t, N * u + n
            S = 1.0 + u * T
            gap, slope = z * N / S - a, T * (S + 1.0) / (S * S)
        else:
            p = 2.0 * math.exp(-2.0 * z) / -math.expm1(-2.0 * z)  # coth z - 1
            gap, slope = z * (r + p) - 1.0, 1.0 / z - z * p * (2.0 + p)  # both times z
        step = gap / slope
        z -= step
        if abs(step) <= 2.0**-52 * z:
            break
    return math.copysign(z, y) / float((hi - lo) / 2)


def find_soliton_vector(P: LabeledPolyhedron, tol: float = 1e-12) -> SolitonVector:
    """Newton on the strictly convex F, at most 200 steps, from the factors' roots on an
    axis-aligned product (_factor_root), else from 0 or _initial_weight. By Sherman-Morrison
    the step -H^{-1} g is log F's Newton step over 1 + lam^2, lam its decrement; log F is
    standard self-concordant (Bubeck & Eldan, COLT 2015), so the step has local length <= 1/2
    and lowers log F by >= delta^2, delta = -<g, step>/F = lam^2/(1 + lam^2): no line search.
    Stops at lam <= tol, which has no scale, as achieved. An offset <= 0: ValueError."""
    if any(f.offset <= 0 for f in P.facets):
        raise ValueError("the origin is not interior to P: F has no minimiser")
    if (factors := _product_factors(P)) and None not in factors:
        b = np.array([_factor_root(*_axis_ends(F)) for F in factors])
    elif P.is_bounded():
        b = np.zeros(P.dim)
    else:
        b = _initial_weight(P)
    F, g, H = grad_hess_F(P, b)
    for it in range(200):
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError as err:  # H underflows far out, as on [-1e-300, 1]
            raise NoConvergence(f"the Hessian of F is singular at b = {b}: neither the "
                                "Newton step nor its decrement can be formed") from err
        delta = max(0.0, -float(g @ step) / float(F))  # -0.0 at an exact root
        lam = math.sqrt(delta / (1.0 - delta)) if delta < 1.0 else math.inf
        if lam <= tol:
            return SolitonVector(b=tuple(map(float, b)), F_value=F,
                                 gradient_norm=float(np.linalg.norm(g)), iterations=it,
                                 achieved=lam)
        b = b + step
        F, g, H = grad_hess_F(P, b)
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
            raise ValueError("boundary evaluation needs shrinker-normalized offsets")
        R += np.log(np.where(L > 0, L, 1.0)) @ coefs
    return L, R


def _nonconvex(X, D):
    bad = X[np.argmin(D)]
    return NotConvexHere(f"density nonpositive near {tuple(map(float, bad))}")


def _residual_core(P: LabeledPolyhedron, b, X, s_val, s_grad, s_hess):
    """R at X: the canonical part plus <grad s, x> - s - log D, D the density;
    NotConvexHere where D <= 0."""
    L, R = _canonical_part(P, b, X)
    D = _density_at(_density_form(P, L), s_hess)
    if np.any(D <= 0.0):
        raise _nonconvex(X, D)
    R += np.einsum("mi,mi->m", s_grad, X) - s_val - np.log(D)
    return R


def residual(P: LabeledPolyhedron, b, x, correction=None):
    """R(x) for u = u_P + correction, stable up to the boundary of P.

    correction=None means the canonical potential itself.
    """
    X, single = _as_batch(x, P.dim)
    m, n = X.shape
    jet = (np.zeros(m), np.zeros((m, n)), np.zeros((m, n, n))) if correction is None \
        else correction.jet(X)
    R = _residual_core(P, b, X, *jet)
    return float(R[0]) if single else R


# ---------------------------------------------------------------------------
# closed-form solver on products

@dataclass(frozen=True)
class SolveResult:
    """What solve found at b: the correction s on its grid over domain; the
    residual's mean (constant) and largest deviation at the nodes; the tail bound
    on the interpolant's miss off them (offnode_deviation); whether it meets tol
    with every s'' series resolved (converged); the axes cut at <b, x> = truncation;
    and iterations, always 0, which the benchmark's tracer still reads.

    The fields are the keys of the `solve` artifact, which writes correction as
    its to_dict payload; renaming one changes the artifact."""

    b: tuple[float, ...]
    correction: GridCorrection
    constant: float
    residual_deviation: float
    offnode_deviation: float
    converged: bool
    iterations: int
    grid: tuple[int, ...]
    domain: tuple[tuple[float, float], ...]
    truncated_axes: tuple[tuple[int, str], ...]
    truncation: float | None


def _axis_ends(F: LabeledPolyhedron):
    """Exact (lo, hi) of a 1D factor, None where open: n m x + a >= 0 ends at -n a/m."""
    ends = {f.normal[0]: Fraction(-f.normal[0] * f.offset.numerator,
                                  f.offset.denominator * f.label) for f in F.facets}
    return ends.get(1), ends.get(-1)


@lru_cache(maxsize=256)
def _product_factors(P: LabeledPolyhedron):
    """The 1D factor polyhedra of an axis-aligned product P, one per axis,
    with P itself as its own factor in 1D, built and checked once per P.

    Unless a facet normal is not +-e_d, where P gives None, P is the
    product of the 1D polyhedra cut out by each axis's facets. An axis with
    no facets is a line in P, which no weight integrates; its factor is None.
    """
    if any(sum(map(abs, f.normal)) != 1 for f in P.facets):
        return None
    axis_facets = [[] for _ in range(P.dim)]
    for f in P.facets:
        d = [abs(c) for c in f.normal].index(1)
        axis_facets[d].append(Facet(normal=(f.normal[d],), label=f.label, offset=f.offset))
    if P.dim == 1:
        return (P,)
    return tuple(LabeledPolyhedron(dim=1, facets=tuple(fs)) if fs else None
                 for fs in axis_facets)


def _solve_domain(P: LabeledPolyhedron, b, truncation):
    """Axis ranges for the grid, cutting unbounded axes at <b,x> = T, the
    truncated axes, and the 1D factors of P (_product_factors)."""
    factors = _product_factors(P)
    if factors is None:
        raise NotAProduct("the solver needs an axis-aligned product domain")
    _weight_skeleton(P, b)  # e^{-<b,x>} is integrable on P
    domain, cuts = [], []
    for d, F in enumerate(factors):
        lo, hi = (None if e is None else float(e) for e in _axis_ends(F))
        if lo is None or hi is None:
            cut = truncation / float(b[d])
            lo, hi, side = (lo, cut, "upper") if hi is None else (cut, hi, "lower")
            cuts.append((d, side))
            if hi <= lo:
                raise ValueError("truncation level does not clear the domain")
        domain.append((lo, hi))
    return domain, tuple(cuts), factors


# 1/(k+2)! for k = 16..0: Horner's order for the Taylor series of phi_2
_PHI2_TAYLOR = [1.0 / math.factorial(k + 2) for k in range(16, -1, -1)]
# a coefficient of s'' below _CHOP u_P''(0) is noise; the series doubles to at most 256
_CHOP = 2.0**-50


def _phi2(z):
    """(e^z - 1 - z)/z^2, from its Taylor series where |z| < 1 (the tail is
    below 1/19!), so nothing cancels near 0."""
    small = np.abs(z) < 1.0
    zb = np.where(small, 1.0, z)
    taylor = np.full_like(z, _PHI2_TAYLOR[0])
    for t in _PHI2_TAYLOR[1:]:
        taylor *= z
        taylor += t
    return np.where(small, taylor, (np.expm1(zb) - zb) / zb**2)


def _defect(f: Facet, b: float) -> float:
    """kappa = (m - a n b)/m for the facet n x >= -a/m of a 1D factor."""
    return float((f.label - f.offset * f.normal[0] * b) / f.label)


def _axis_second_derivative(F: LabeledPolyhedron, b: float):
    """s'' = 1/W - u_P'' as a function of the points x of the bounded 1D factor F.

    The momentum profile W = 1/u'' solves W' = bW - x (Abreu, Int. J.
    Math. 9, 1998). Seen from a facet at distance h = L/m with offset 2, it
    is W = 2h/m - kappa h^2 phi_2(n b h), and 1/W minus the facet's own
    u_P'' = m/(2h) is kappa m h phi_2(n b h)/(2W), smooth up to the facet.
    W is taken from the nearer facet, less the other facet's u_P''. Each
    facet's kappa and 2/m are computed once, here.
    """
    facets = F.facets
    two_m = [2.0 / f.label for f in facets]
    kappas = [_defect(f, b) for f in facets]

    def profile(x):
        h = [f.normal[0] * x + t for f, t in zip(facets, two_m)]
        near = []
        for f, kappa, hk, ho, fo in zip(facets, kappas, h, h[::-1], facets[::-1]):
            m, p = f.label, _phi2(f.normal[0] * b * hk)
            W = 2.0 * hk / m - kappa * hk * hk * p
            near.append(kappa * m * hk * p / (2.0 * W) - fo.label / (2.0 * ho))
        return np.where(h[0] <= h[1], near[0], near[1])

    return profile


@lru_cache(maxsize=5)
def _first_kind(n: int):
    """The n Chebyshev points of the first kind on [-1, 1] and the transposed
    Vandermonde that takes samples there to coefficients, both read-only."""
    t = C.chebpts1(n)
    vander_t = C.chebvander(t, n - 1).T
    t.setflags(write=False)
    vander_t.setflags(write=False)
    return t, vander_t


def _integral(c, lbnd: float) -> np.ndarray:
    """The Chebyshev series of the integral of c from lbnd: chebint's
    recurrence in one pass, with its operations in its order."""
    n = len(c)
    a = np.empty(n + 1)
    a[0] = c[0] * 0
    a[1] = c[0]
    a[2:] = c[1:] / (2 * np.arange(2, n + 1))
    a[1:n - 1] -= c[2:] / (2 * np.arange(1, n - 1))
    a[0] += 0 - C.chebval(lbnd, a)  # chebint's k - chebval with k = 0, signed zeros too
    return a


def _axis_series(F: LabeledPolyhedron, b: float, lo: float, hi: float) -> np.ndarray:
    """The Chebyshev coefficients of (s, s', s'') on [lo, hi] as the columns
    of one (K + 2, 3) stack, with s(0) = s'(0) = 0, for the bounded 1D factor F.

    s'' is sampled at n = 16, 32, ... 256 Chebyshev points of the first
    kind until the last quarter of its coefficients is noise, chopped after
    the last coefficient above it (Aurentz & Trefethen, ACM TOMS 43(4),
    2017, in a plain form), and integrated twice from the origin. The
    points and the transposed Vandermonde are held per n (_first_kind), so
    a round is one product and numpy's own scaling. A sample that is not
    finite, as where phi_2 overflows, raises NoConvergence: its
    coefficients would be NaN, which no chop level exceeds.
    """
    profile = _axis_second_derivative(F, b)
    level = _CHOP * sum(f.label**2 / 4.0 for f in F.facets)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for n in (16, 32, 64, 128, 256):
        t, vander_t = _first_kind(n)
        samples = profile(mid + half * t)
        if not np.all(np.isfinite(samples)):
            raise NoConvergence(f"the s'' profile of the factor on [{lo:.6g}, {hi:.6g}] "
                                f"is not finite at b = {b:.6g}, as where phi_2(n b h) "
                                "overflows (|b| h past about 709): no series is formed")
        c2 = np.dot(vander_t, samples)
        c2[0] /= n
        c2[1:] /= n / 2
        big = np.flatnonzero(np.abs(c2) > level)
        if big.size == 0 or big[-1] < n - n // 4:
            break
    c2 = c2[: big[-1] + 1] if big.size else np.zeros(1)
    stack = np.zeros((len(c2) + 2, 3))
    stack[:-2, 2] = c2
    stack[:-1, 1] = half * _integral(c2, -mid / half)
    stack[:, 0] = half * _integral(stack[:-1, 1], -mid / half)
    return stack


def solve(P: LabeledPolyhedron, b=None, grid=None, truncation: float = 32.0,
          tol: float = 1e-11) -> SolveResult:
    """Solve the soliton equation for the correction s in closed form.

    Supports 1D and 2D product domains. In 2D, every facet normal is +-e_d,
    and u_P, log det Hess u and the residual separate over P's two 1D
    factors, so the tensor sum s_1(x) + s_2(y) of their solutions solves it
    with constant c_1 + c_2. A bounded factor's s is its series
    (_axis_series). An unbounded factor's profile that does not grow,
    W = (kappa + n b h)/b^2, gives -m kappa (1 + n b h)/(2h (kappa + n b h)),
    which tends to -m/(2h) at the facet unless kappa = 0 (_defect): s = 0.
    s(0) = grad s(0) = 0 at the origin, interior as the offsets are 2, so the
    constant does not depend on the grid. Each factor takes grid nodes, or by
    default one per coefficient of its series, at least 3 to keep one in P.
    Its residual is taken in 1D: R_P, <grad s, x> - s and log D split (D is
    the product of the factors' densities), so the value and residual grids
    are outer sums. offnode_deviation sums each series' tail 2 sum_{k>N} |c_k|
    past its N + 1 Lobatto nodes, 0 at the default grid: in exact arithmetic,
    it bounds the interpolant's miss (Trefethen, ATAP, Thm 4.2). converged is
    False where it exceeds tol or an s'' series did not resolve in 256
    samples. Away from b_X, a bounded factor has no solution, which the
    residual shows, and an unbounded one a defect: beyond max(tol, 1e-6)
    either raises NoConvergence.

    The grid cuts an unbounded axis at <b, x> = truncation. The default 32
    lets ding-scan's default tol of 1e-8 read the solution: on the
    half-line at b_X = 1/2 a cut at T drops e^{-(T+1)} of F(b_X), and the
    scan's d1 tail estimate, which overstates, first passes near T = 28.
    """
    n = P.dim
    if n > 2:
        raise NotAProduct("the closed-form solver supports dimensions 1 and 2")
    b = np.array(find_soliton_vector(P).b) if b is None else np.asarray(b, dtype=float)
    if grid is not None:
        grid = (grid,) * n if isinstance(grid, int) else tuple(grid)
        if len(grid) != n:
            raise ValueError(f"a per-axis grid needs {n} entries, one per axis, not {len(grid)}")
    domain, cuts, factors = _solve_domain(P, b, truncation)
    if not P.is_shrinker_normalized():
        raise ValueError("the closed-form solver needs shrinker-normalized offsets")
    bound = max(tol, 1e-6)
    for d, F in enumerate(factors):
        kappa = _defect(F.facets[0], b[d]) if len(F.facets) == 1 else 0.0
        if not abs(kappa) <= bound:
            raise NoConvergence(f"b misses the unbounded axis {d}: its defect "
                                f"{kappa:.3e} exceeds {bound:.0e}")

    axes, values, residuals, offnode, resolved = [], [], [], 0.0, True
    # far from b_X, W may overflow or vanish: the checks below report that
    with np.errstate(all="ignore"):
        for d, (F, (lo, hi), bd) in enumerate(zip(factors, domain, map(float, b))):
            stack = _axis_series(F, bd, lo, hi) if len(F.facets) > 1 else np.zeros((1, 3))
            resolved &= len(stack) - 2 <= 192  # _axis_series chops s'' to at most 192 terms
            x = lobatto_nodes(lo, hi, max(3, len(stack)) if grid is None else grid[d])
            offnode += 2.0 * np.abs(stack[len(x):, 0]).sum()
            t = (x - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
            s, ds, dds = (C.chebvander(t, len(stack) - 1) @ stack).T
            try:
                residuals.append(_residual_core(F, [bd], x[:, None], s, ds[:, None],
                                                dds[:, None, None]))
            except NotConvexHere as err:
                raise NoConvergence(f"b is not the soliton vector on axis {d}: {err}") from err
            axes.append(x)
            values.append(s)
        R = reduce(np.add.outer, residuals)
        c_star = float(np.mean(R))
        deviation = float(np.max(np.abs(R - c_star)))
    if not deviation <= bound:
        raise NoConvergence(f"residual deviation {deviation:.3e} exceeds {bound:.0e}: "
                            "b is not the soliton vector")
    return SolveResult(
        b=tuple(map(float, b)),
        correction=GridCorrection(axes, reduce(np.add.outer, values)),
        constant=c_star,
        residual_deviation=deviation,
        offnode_deviation=float(offnode),
        converged=bool(resolved and offnode <= tol),
        iterations=0,
        grid=tuple(map(len, axes)),
        domain=tuple((float(lo), float(hi)) for lo, hi in domain),
        truncated_axes=tuple(cuts),
        truncation=truncation if cuts else None,
    )
