"""Exponentially weighted integrals over polyhedra.

Integrals of x^alpha e^{-<b,x>} over a labeled polyhedron are computed by
triangulating a truncated region and evaluating each simplex in closed form
through divided differences of exp. Truncation error is certified by an
explicit tail bound built from the recession rays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polyhedra import LabeledPolyhedron, asymptotic_cone, vertices


class DivergentWeight(ValueError):
    """The weight e^{-<b,x>} is not integrable over the polyhedron."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class UnsupportedMoment(ValueError):
    """Moment order outside the implemented range |alpha| <= 2."""


def stable_sum(values) -> float:
    """Exactly rounded floating-point summation."""
    return math.fsum(float(v) for v in values)


# ---------------------------------------------------------------------------
# divided differences of exp

_SERIES_SPREAD = 1.0
_SERIES_MAX_TERMS = 80


def divided_difference_exp(nodes) -> float:
    """exp[t_0, ..., t_m]: the divided difference of e^t, repeated nodes allowed.

    Narrow node sets use a mean-shifted series of complete homogeneous
    symmetric polynomials (the regime where the recursive formula cancels
    catastrophically). Wide sets are sorted and tabulated: sub-spans no wider
    than the series radius come from the series, wider spans from the standard
    recurrence, whose denominators are then bounded away from zero.
    """
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("nodes must be a nonempty 1-d sequence")
    m = t.size - 1
    if m == 0:
        return float(np.exp(t[0]))
    xs = np.sort(t)
    if xs[-1] - xs[0] <= 2.0 * _SERIES_SPREAD:
        return _series_dd(xs)
    table = {(i, i): math.exp(xs[i]) for i in range(m + 1)}
    for span in range(1, m + 1):
        for i in range(m + 1 - span):
            j = i + span
            if xs[j] - xs[i] <= 2.0 * _SERIES_SPREAD:
                table[i, j] = _series_dd(xs[i : j + 1])
            else:
                table[i, j] = (table[i + 1, j] - table[i, j - 1]) / (xs[j] - xs[i])
    return table[0, m]


def _series_dd(ts) -> float:
    mu = float(np.mean(ts))
    return math.exp(mu) * _shifted_series(ts - mu, len(ts) - 1)


def _shifted_series(xi, m) -> float:
    # exp[t] = e^mu sum_k h_k(xi) / (m+k)! with h_k the complete homogeneous
    # symmetric polynomials; H is updated one node at a time
    kmax = _SERIES_MAX_TERMS
    H = np.zeros(kmax + 1)
    H[0] = 1.0
    for x in xi:
        for k in range(1, kmax + 1):
            H[k] = H[k] + x * H[k - 1]
    total = 0.0
    fact = math.factorial(m)
    prev_tiny = False
    for k in range(kmax + 1):
        term = H[k] / fact
        total += term
        fact *= m + k + 1
        # two consecutive negligible terms: parity can zero out single terms
        tiny = abs(term) <= 1e-18 * abs(total)
        if k > 2 and tiny and prev_tiny:
            break
        prev_tiny = tiny
    return total


# ---------------------------------------------------------------------------
# simplices

@dataclass(frozen=True)
class Simplex:
    """An n-simplex given by n+1 vertices in R^n."""

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        pts = tuple(tuple(float(x) for x in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        n = len(pts[0])
        if len(pts) != n + 1:
            raise ValueError("an n-simplex needs exactly n+1 vertices")

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def array(self) -> np.ndarray:
        return np.array(self.points)

    @property
    def volume(self) -> float:
        V = self.array()
        E = V[1:] - V[0]
        return abs(float(np.linalg.det(E))) / math.factorial(self.dim)


def exp_integral_simplex(S: Simplex, b) -> float:
    """Closed form of the integral of e^{-<b,x>} over the simplex."""
    b = np.asarray(b, dtype=float)
    t = -(S.array() @ b)
    return math.factorial(S.dim) * S.volume * divided_difference_exp(t)


def moment_integral_simplex(S: Simplex, b, alpha) -> float:
    """Closed form of the integral of x^alpha e^{-<b,x>}, |alpha| <= 2.

    Moments reduce to divided differences with repeated nodes: appending a
    copy of node i differentiates with respect to t_i, which inserts a factor
    lambda_i in the barycentric integral representation.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != S.dim or any(a < 0 for a in alpha):
        raise UnsupportedMoment(f"bad multi-index {alpha}")
    order = sum(alpha)
    if order > 2:
        raise UnsupportedMoment("moments implemented for |alpha| <= 2 only")
    b = np.asarray(b, dtype=float)
    V = S.array()
    t = -(V @ b)
    scale = math.factorial(S.dim) * S.volume
    if order == 0:
        return scale * divided_difference_exp(t)
    nodes = list(t)
    if order == 1:
        j = alpha.index(1)
        total = stable_sum(
            V[i, j] * divided_difference_exp(nodes + [t[i]]) for i in range(len(nodes))
        )
        return scale * total
    if 2 in alpha:
        j = k = alpha.index(2)
    else:
        j = alpha.index(1)
        k = alpha.index(1, j + 1)
    terms = []
    for i in range(len(nodes)):
        for l in range(len(nodes)):
            factor = 2.0 if i == l else 1.0
            terms.append(
                factor * V[i, j] * V[l, k]
                * divided_difference_exp(nodes + [t[i], t[l]])
            )
    return scale * stable_sum(terms)


# ---------------------------------------------------------------------------
# dense Gauss quadrature on a simplex (reference integrator)

def gauss_simplex_rule(S: Simplex, order: int = 20):
    """Tensor Gauss-Legendre nodes collapsed onto the simplex (Duffy map)."""
    n = S.dim
    u, w = np.polynomial.legendre.leggauss(order)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([u] * n), indexing="ij")
    weights = np.ones_like(grids[0])
    for g in np.meshgrid(*([w] * n), indexing="ij"):
        weights = weights * g
    U = np.stack([g.ravel() for g in grids], axis=-1)
    W = weights.ravel().copy()
    lam = np.zeros_like(U)
    rem = np.ones(len(U))
    for i in range(n):
        lam[:, i] = U[:, i] * rem
        jac = rem.copy()
        rem = rem * (1.0 - U[:, i])
        W *= jac
    V = S.array()
    X = V[0] + lam @ (V[1:] - V[0])
    W = W * math.factorial(n) * S.volume
    return X, W


def gauss_integral_simplex(S: Simplex, f, order: int = 20) -> float:
    X, W = gauss_simplex_rule(S, order)
    return float(np.dot(W, f(X)))


# ---------------------------------------------------------------------------
# truncation and triangulation

def _float_vertices(A, a, tol=1e-9):
    """Vertices of { x : A x + a >= 0 } by subset solves, float arithmetic."""
    N, n = A.shape
    pts = []
    scale = 1.0 + np.max(np.abs(a))
    for subset in itertools.combinations(range(N), n):
        M = A[list(subset)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, -a[list(subset)])
        if np.all(A @ x + a >= -tol * scale):
            pts.append(x)
    if not pts:
        return np.empty((0, n))
    pts = np.array(pts)
    # dedupe on a rounded key
    seen = {}
    for p in pts:
        seen[tuple(np.round(p, 9))] = p
    return np.array(sorted(seen.values(), key=tuple))


def _triangulate(points) -> list[Simplex]:
    """Split an interval at its points, or a convex polygon as a fan."""
    n = points.shape[1]
    if n == 1:
        xs = np.sort(points[:, 0])
        return [
            Simplex(((xs[i],), (xs[i + 1],)))
            for i in range(len(xs) - 1)
            if xs[i + 1] - xs[i] > 1e-12
        ]
    # the centroid is interior, so the vertices have distinct angles around it
    d = points - points.mean(axis=0)
    ring = points[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]
    out = []
    for i in range(1, len(ring) - 1):
        S = Simplex((tuple(ring[0]), tuple(ring[i]), tuple(ring[i + 1])))
        if S.volume > 1e-13:
            out.append(S)
    return out


_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi}


def _upper_gamma(s: int, x: float) -> float:
    """Gamma(s) Q(s, x) = (s-1)! e^{-x} sum_{k<s} x^k / k! for integer s >= 1."""
    return math.factorial(s - 1) * math.exp(-x) * math.fsum(
        x**k / math.factorial(k) for k in range(s)
    )


@dataclass(frozen=True)
class QuadraturePlan:
    """Triangulated truncated region with a certified truncation error bound.

    tail_bounds[d] bounds the discarded integral of |x|^d e^{-<b,x>} for
    d = 0, 1, 2; tail_bound is their sum.
    """

    polyhedron: LabeledPolyhedron
    b: tuple[float, ...]
    simplices: tuple[Simplex, ...]
    truncation: float | None
    epsilon: float
    tail_bounds: tuple[float, float, float]

    @property
    def tail_bound(self) -> float:
        return float(sum(self.tail_bounds))

    def exp_integral(self) -> float:
        barr = np.array(self.b)
        return stable_sum(exp_integral_simplex(S, barr) for S in self.simplices)

    def moment(self, alpha) -> float:
        barr = np.array(self.b)
        return stable_sum(
            moment_integral_simplex(S, barr, alpha) for S in self.simplices
        )

    def integrate(self, f, order: int = 20) -> float:
        """Dense Gauss integration of f(x) e^{-<b,x>} over the plan region."""
        barr = np.array(self.b)

        def g(X):
            return np.asarray(f(X)) * np.exp(-(X @ barr))

        return stable_sum(gauss_integral_simplex(S, g, order) for S in self.simplices)


def _tail_bounds(P: LabeledPolyhedron, b, rays, T):
    """Certified bounds on the integrals of |x|^d e^{-<b,x>} beyond <b,x> = T."""
    n = P.dim
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    eps = min(
        float(np.dot(b, r) / np.linalg.norm(r)) for r in np.array(rays, dtype=float)
    )
    verts = [v.point_float for v in vertices(P)]
    R = max(float(np.linalg.norm(v)) for v in verts)
    mb = min(float(np.dot(b, v)) for v in verts)
    C0 = eps * R - mb
    r_T = max(0.0, T) / bnorm
    omega = _SPHERE_AREA[n]
    bounds = []
    for d in range(3):
        s = d + n
        bounds.append(math.exp(C0) * omega * eps ** (-s) * _upper_gamma(s, eps * r_T))
    return eps, tuple(bounds)


def plan(P: LabeledPolyhedron, b, tol: float = 1e-10,
         truncation: float | None = None) -> QuadraturePlan:
    """Build a quadrature plan for the weight e^{-<b,x>} on P.

    Bounded polyhedra are triangulated exactly. Unbounded ones are cut by
    <b,x> <= T, with T grown until the certified tail drops below tol unless
    a fixed truncation is supplied. Raises DivergentWeight when b fails to be
    positive on some recession direction, and ValueError in dimension > 2.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (P.dim,):
        raise ValueError("weight vector has the wrong dimension")
    if P.dim > 2:
        raise ValueError("quadrature plans are implemented in dimensions 1 and 2")
    cone = asymptotic_cone(P)
    line = cone.contains_line()
    if line is not None:
        raise DivergentWeight(
            f"polyhedron contains the line {line}; no weight is integrable",
            ray=line,
        )
    rays = cone.ray_generators()
    for r in rays:
        if float(np.dot(b, r)) <= 0.0:
            raise DivergentWeight(
                f"weight is not integrable along recession direction {r}", ray=r
            )

    if not rays:
        pts = np.array([v.point_float for v in vertices(P)])
        simplices = _triangulate(pts)
        return QuadraturePlan(
            polyhedron=P,
            b=tuple(float(x) for x in b),
            simplices=tuple(simplices),
            truncation=None,
            epsilon=math.inf,
            tail_bounds=(0.0, 0.0, 0.0),
        )

    verts = [v.point_float for v in vertices(P)]
    base_T = max(float(np.dot(b, v)) for v in verts)

    def build(T):
        A = np.vstack([P.scaled_normal_matrix(), -b[None, :]])
        a = np.append(P.offsets_array(), T)
        pts = _float_vertices(A, a)
        if len(pts) < P.dim + 1:
            raise ValueError(f"truncation level {T} leaves a degenerate region")
        return _triangulate(pts)

    if truncation is not None:
        T = float(truncation)
        if T <= base_T:
            raise ValueError(
                f"truncation {T} must exceed max vertex level {base_T:.6g}"
            )
        eps, bounds = _tail_bounds(P, b, rays, T)
        simplices = build(T)
        return QuadraturePlan(
            polyhedron=P,
            b=tuple(float(x) for x in b),
            simplices=tuple(simplices),
            truncation=T,
            epsilon=eps,
            tail_bounds=bounds,
        )

    T = max(1.0, base_T + P.dim + 2.0)
    for _ in range(200):
        eps, bounds = _tail_bounds(P, b, rays, T)
        if sum(bounds) <= tol:
            simplices = build(T)
            return QuadraturePlan(
                polyhedron=P,
                b=tuple(float(x) for x in b),
                simplices=tuple(simplices),
                truncation=T,
                epsilon=eps,
                tail_bounds=bounds,
            )
        T *= 1.3
    raise RuntimeError("tail bound failed to reach tolerance within 200 doublings")
