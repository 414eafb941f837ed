"""Exponentially weighted integrals over polyhedra.

The integral of e^{-<b,x>} over a labeled polyhedron and its first and second
moments are computed by fanning a convex region into simplices and evaluating
each simplex in closed form from divided differences of exp: one batched
kernel call per plan covers every node multiset of every simplex. The
region's corners are read from the polyhedron's exact skeleton: its vertices
and, on unbounded P, one crossing of the level <b,x> = T per unbounded edge.
Truncation error is certified by an explicit tail bound built from the
recession rays. Convex regions are kept as rings of corners, which half-plane
clips cut further.

Divided differences of exp on narrow node sets sum a mean-shifted series
only as far as its own error bound asks (at most 26 terms); wider sets use
the recurrence. The scalar divided_difference_exp, simplex_moments and
exp_integral_simplex are the reference the batched kernel is tested against.
Dense Gauss rules on a simplex are one cached reference rule per dimension
and order, mapped affinely onto the simplex.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .polyhedra import LabeledPolyhedron, _skeleton


class DivergentWeight(ValueError):
    """The weight e^{-<b,x>} is not integrable over the polyhedron."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


def stable_sum(values) -> float:
    """Exactly rounded floating-point summation."""
    return math.fsum(float(v) for v in values)


# ---------------------------------------------------------------------------
# divided differences of exp

_SERIES_SPREAD = 1.0
_SERIES_TOL = 2.0**-56


def divided_difference_exp(nodes) -> float:
    """exp[t_0, ..., t_m]: the divided difference of e^t, repeated nodes allowed.

    Narrow node sets use a mean-shifted series of complete homogeneous
    symmetric polynomials (the regime where the recursive formula cancels
    catastrophically), truncated where its own error bound falls below
    2^-56 relative: at most 26 terms, since the shifted nodes satisfy
    |xi_i| < 2. Wide sets are sorted and tabulated: sub-spans no wider than
    the series radius come from the series, wider spans from the standard
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


def _series_terms(r: float) -> int:
    """The fewest terms K with r^K e^{2r} / K! <= 2^-56.

    With r = max |xi_i|, term k is at most C(k+m, m) r^k / (m+k)! =
    r^k / (m! k!), and the sum is at least e^{-r} / m! (a mean value of
    e^xi / m!), so the discarded tail is below that bound relative to it.
    """
    K, bound = 0, math.exp(2.0 * r)
    while bound > _SERIES_TOL:
        K += 1
        bound *= r / K
    return K


def _shifted_series(xi, m) -> float:
    # exp[t] = e^mu sum_k h_k(xi) / (m+k)! with h_k the complete homogeneous
    # symmetric polynomials; appending node x multiplies the generating
    # series of H by 1 / (1 - x z), a convolution with the powers of x
    K = _series_terms(float(np.max(np.abs(xi))))
    powers = np.arange(K)
    H = np.zeros(K)
    H[0] = 1.0
    for x in xi:
        H = np.convolve(H, x**powers)[:K]
    return float(H @ _inverse_factorials(m, K))


@lru_cache(maxsize=None)
def _inverse_factorials(m: int, K: int) -> np.ndarray:
    """1/(m+k)! for k < K, each correctly rounded (to zero past 177!)."""
    inv = np.array([1 / math.factorial(m + k) for k in range(K)])
    inv.flags.writeable = False
    return inv


# ---------------------------------------------------------------------------
# batched divided differences of exp

# the largest t with a finite e^t; math.exp raises OverflowError past it
_EXP_MAX = math.log(sys.float_info.max)


@lru_cache(maxsize=None)
def _windows(M: int):
    """Start and end columns of the sub-windows of M sorted nodes, by span then start."""
    lo = np.concatenate([np.arange(M - s) for s in range(1, M)])
    hi = lo + np.repeat(np.arange(1, M), np.arange(M - 1, 0, -1))
    return lo, hi


def _narrow_series(xs, lo, hi) -> np.ndarray:
    """_series_dd of each row's window xs[lo..hi], all rows at once.

    Nodes outside the window are shifted to zero, which leaves the series
    unchanged. One K serves every row: the fewest terms for the largest
    shifted node. For fixed k, h_k <- h_k + x h_{k-1} over the nodes in order
    is a running sum, so each term costs one product and one cumsum.
    """
    cols = np.arange(xs.shape[1])
    member = (cols >= lo[:, None]) & (cols <= hi[:, None])
    m = hi - lo
    mu = np.sum(xs * member, axis=1) / (m + 1)
    xi = (xs - mu[:, None]) * member
    K = _series_terms(float(np.max(np.abs(xi), initial=0.0)))
    h = np.empty((len(xs), K))
    h[:, 0] = 1.0
    H = np.ones_like(xi)
    for k in range(1, K):
        H = np.cumsum(xi * H, axis=1)
        h[:, k] = H[:, -1]
    inv = np.array([_inverse_factorials(j, K) for j in range(xs.shape[1])])[m]
    return np.exp(mu) * np.einsum("lk,lk->l", h, inv)


def _dd_exp_sorted(xs, size) -> np.ndarray:
    """exp[xs_r[:size_r]] for each row of an ascending (N, M) array.

    Columns from size_r on are pads, each more than 2 above the column
    before it, so every window that reaches a pad is wide and only feeds
    entries no row reads. The table is divided_difference_exp's: narrow
    windows from the series, wide ones from the recurrence.
    """
    N, M = xs.shape
    lo, hi = _windows(M)
    narrow = xs[:, hi] - xs[:, lo] <= 2.0 * _SERIES_SPREAD
    rows, w = np.nonzero(narrow)
    series = np.zeros(narrow.shape)
    series[rows, w] = _narrow_series(xs[rows], lo[w], hi[w])
    prev = np.exp(np.where(np.arange(M) < size[:, None], xs, 0.0))
    first = [prev[:, 0]]
    start = 0
    for s in range(1, M):
        span = slice(start, start + M - s)
        start += M - s
        wide = ~narrow[:, span]
        den = np.where(wide, xs[:, s:] - xs[:, :-s], 1.0)
        prev = np.where(wide, (prev[:, 1:] - prev[:, :-1]) / den, series[:, span])
        first.append(prev[:, 0])
    return np.stack(first, axis=1)[np.arange(N), size - 1]


def _dd_exp_batch(t, index) -> np.ndarray:
    """exp[t_s[index_r]] for every node row t_s of t (S, k) and index row r.

    index is (R, M) with -1 padding the shorter rows; returns (S, R). The
    same algorithm as divided_difference_exp, vectorised over all S R
    node multisets: each row is sorted with its pads spaced 4 apart above
    its largest node.
    """
    if np.max(t) > _EXP_MAX:
        raise OverflowError("math range error")
    S, R, M = len(t), *index.shape
    pad = index < 0
    X = t[:, np.where(pad, 0, index)]
    X = np.where(pad, np.max(t, axis=1)[:, None, None]
                 + 4.0 * _SERIES_SPREAD * np.cumsum(pad, axis=1), X)
    size = np.tile(M - np.sum(pad, axis=1), S)
    return _dd_exp_sorted(np.sort(X, axis=-1).reshape(S * R, M), size).reshape(S, R)


@lru_cache(maxsize=None)
def _moment_multisets(k: int) -> np.ndarray:
    """Index rows into a simplex's k nodes t: t, t + [t_i], t + [t_i, t_l] (i <= l)."""
    base = list(range(k))
    rows = ([base + [-1, -1]] + [base + [i, -1] for i in range(k)]
            + [base + [i, l] for i in range(k) for l in range(i, k)])
    index = np.array(rows)
    index.flags.writeable = False
    return index


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

    @cached_property
    def volume(self) -> float:
        V = self.array()
        E = V[1:] - V[0]
        return abs(float(np.linalg.det(E))) / math.factorial(self.dim)


def exp_integral_simplex(S: Simplex, b) -> float:
    """Closed form of the integral of e^{-<b,x>} over the simplex."""
    b = np.asarray(b, dtype=float)
    t = -(S.array() @ b)
    return math.factorial(S.dim) * S.volume * divided_difference_exp(t)


def simplex_moments(S: Simplex, b):
    """Integrals of e^{-<b,x>}, x e^{-<b,x>} and x x^T e^{-<b,x>} over S.

    With nodes t = -V b at the vertex rows V, the three are n! vol times
    exp[t], V^T e_1 and V^T E_2 V, where (e_1)_i = exp[t, t_i] and
    (E_2)_il = (1 + delta_il) exp[t, t_i, t_l]: appending a copy of node i
    differentiates with respect to t_i, which inserts a factor lambda_i in
    the barycentric integral representation.
    """
    V = S.array()
    t = list(-(V @ np.asarray(b, dtype=float)))
    k = len(t)
    e1 = np.array([divided_difference_exp(t + [t[i]]) for i in range(k)])
    E2 = np.empty((k, k))
    for i in range(k):
        for l in range(i, k):
            E2[i, l] = E2[l, i] = (1 + (i == l)) * divided_difference_exp(t + [t[i], t[l]])
    scale = math.factorial(S.dim) * S.volume
    return scale * divided_difference_exp(t), scale * (V.T @ e1), scale * (V.T @ E2 @ V)


# ---------------------------------------------------------------------------
# dense Gauss quadrature on a simplex (reference integrator)

@lru_cache(maxsize=None)
def _reference_rule(n: int, order: int):
    """Tensor Gauss-Legendre nodes on [0,1]^n collapsed onto the unit simplex.

    Returns read-only barycentric coordinates (lambda_1..lambda_n per row) and
    weights summing to 1/n!; the Duffy Jacobian is folded into the weights.
    """
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
    lam.flags.writeable = False
    W.flags.writeable = False
    return lam, W


def gauss_simplex_rule(S: Simplex, order: int = 20):
    """Gauss nodes and weights on S: order^n collapsed tensor Gauss-Legendre points.

    The reference rule on the unit simplex is built once per (dimension,
    order) and mapped affinely onto S; the returned arrays are fresh.
    """
    n = S.dim
    lam, W = _reference_rule(n, order)
    V = S.array()
    X = V[0] + lam @ (V[1:] - V[0])
    W = W * math.factorial(n) * S.volume
    return X, W


def gauss_integral_simplex(S: Simplex, f, order: int = 20) -> float:
    X, W = gauss_simplex_rule(S, order)
    return float(np.dot(W, f(X)))


# ---------------------------------------------------------------------------
# convex rings

def _ring(points) -> np.ndarray:
    """Corners of a convex region in fan order.

    On a line: the two ends. In the plane: counterclockwise by angle around
    the centroid, which is interior, so the angles are distinct.
    """
    if points.shape[1] == 1:
        return np.array([points.min(axis=0), points.max(axis=0)])
    d = points - points.mean(axis=0)
    return points[np.argsort(np.arctan2(d[:, 1], d[:, 0]))]


def _clip(ring, w, c) -> np.ndarray:
    """The part of a ring where <w,x> + c >= 0, as a ring in the same order.

    An edge gets a crossing when its ends lie strictly on opposite sides,
    decided by the signs of the values: their product can underflow to -0.0.
    An interval's ring is its one edge, a polygon's ring is closed.
    """
    f = ring @ w + c
    s = np.sign(f)
    out = []
    for i in range(len(ring)):
        if s[i] >= 0:
            out.append(ring[i])
        j = (i + 1) % len(ring)
        if s[i] * s[j] < 0 and (ring.shape[1] > 1 or i == 0):
            out.append(ring[i] + f[i] / (f[i] - f[j]) * (ring[j] - ring[i]))
    return np.array(out).reshape(-1, ring.shape[1])


def _fan(ring) -> list[Simplex]:
    """Simplices from the first corner of a ring to each later edge."""
    n = ring.shape[1]
    out = []
    for i in range(1, len(ring) - n + 1):
        S = Simplex((tuple(ring[0]),) + tuple(map(tuple, ring[i : i + n])))
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
    """A fanned, possibly truncated region with a certified truncation error bound.

    ring holds the region's corners in fan order and simplices their fan.
    tail_bounds[d] bounds the discarded integral of |x|^d e^{-<b,x>} for
    d = 0, 1, 2; tail_bound is their sum.
    """

    b: tuple[float, ...]
    ring: tuple[tuple[float, ...], ...]
    simplices: tuple[Simplex, ...]
    truncation: float | None
    tail_bounds: tuple[float, float, float]

    @property
    def tail_bound(self) -> float:
        return float(sum(self.tail_bounds))

    def _divided_differences(self, index):
        """Vertex rows (S, k, n), n! vol per simplex and exp[t[index_r]] per simplex."""
        V = np.array([S.points for S in self.simplices])
        scale = np.array([math.factorial(S.dim) * S.volume for S in self.simplices])
        return V, scale, _dd_exp_batch(-(V @ np.array(self.b)), index)

    def exp_integral(self) -> float:
        """exp_integral_simplex summed over the fan, from one kernel call."""
        _, scale, dd = self._divided_differences(np.arange(len(self.b) + 1)[None, :])
        return stable_sum(scale * dd[:, 0])

    def moments(self):
        """Integrals of e^{-<b,x>}, x e^{-<b,x>} and x x^T e^{-<b,x>} over the region.

        simplex_moments summed over the fan, with every divided difference
        of every simplex from one kernel call.
        """
        n = len(self.b)
        index = _moment_multisets(n + 1)
        V, scale, dd = self._divided_differences(index)
        i, l = index[n + 2 :, n + 1 :].T
        E2 = np.empty((len(V), n + 1, n + 1))
        E2[:, i, l] = E2[:, l, i] = (1 + (i == l)) * dd[:, n + 2 :]
        Vt = V.transpose(0, 2, 1)
        parts = np.concatenate([
            dd[:, :1],
            (Vt @ dd[:, 1 : n + 2, None])[..., 0],
            (Vt @ E2 @ V).reshape(len(V), n * n),
        ], axis=1) * scale[:, None]
        sums = [stable_sum(col) for col in parts.T]
        return sums[0], np.array(sums[1 : n + 1]), np.array(sums[n + 1 :]).reshape(n, n)

    def integrate(self, f) -> float:
        """Dense order-20 Gauss integration of f(x) e^{-<b,x>} over the plan region."""
        barr = np.array(self.b)

        def g(X):
            return np.asarray(f(X)) * np.exp(-(X @ barr))

        return stable_sum(gauss_integral_simplex(S, g) for S in self.simplices)


def _tail_bounds(b, rays, verts):
    """Certified bounds on int |x|^d e^{-<b,x>} dx beyond <b,x> = T, as a function of T.

    The T-independent constants are computed once, so each T costs three
    closed-form incomplete gammas; a bound that overflows is inf.
    """
    n = len(b)
    bnorm = math.hypot(*b)
    eps = float(np.min(rays @ b / np.linalg.norm(rays, axis=1)))
    R = float(np.max(np.linalg.norm(verts, axis=1)))
    mb = float(np.min(verts @ b))
    C0 = eps * R - mb
    omega = _SPHERE_AREA[n]
    coefs = []
    for d in range(3):
        try:
            coefs.append(math.exp(C0) * omega * eps ** (-(d + n)))
        except OverflowError:
            coefs.append(None)

    def at(T):
        r_T = max(0.0, T) / bnorm
        bounds = []
        for d, c in enumerate(coefs):
            try:
                bounds.append(math.inf if c is None else c * _upper_gamma(d + n, eps * r_T))
            except OverflowError:
                bounds.append(math.inf)
        return tuple(bounds)

    return at


def _unbounded_edges(P: LabeledPolyhedron):
    """Float (vertex, ray) pairs of P's unbounded edges: on n - 1 common facets."""
    sk = _skeleton(P)
    return [
        (np.array([float(x) for x in p]), np.array(r, dtype=float))
        for p, active in sk.vertices
        for r, parallel in sk.rays
        if len(set(active) & set(parallel)) == P.dim - 1
    ]


def plan(P: LabeledPolyhedron, b, tol: float = 1e-10,
         truncation: float | None = None) -> QuadraturePlan:
    """Build a quadrature plan for the weight e^{-<b,x>} on P.

    The corners come from the exact skeleton of P. A bounded P is the fan
    of its vertices. An unbounded one is cut by <b,x> <= T, with T grown
    until the certified tail drops below tol unless a fixed truncation is
    supplied; the cut region's corners are the vertices and the crossing
    v + (T - <b,v>) / <b,r> r of each unbounded edge. Raises DivergentWeight
    when P contains a line or b fails to be positive on some recession
    direction, and ValueError in dimension > 2.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (P.dim,):
        raise ValueError("weight vector has the wrong dimension")
    if P.dim > 2:
        raise ValueError("quadrature plans are implemented in dimensions 1 and 2")
    sk = _skeleton(P)
    if sk.lineality:
        line = sk.lineality[0]
        raise DivergentWeight(
            f"polyhedron contains the line {line}; no weight is integrable",
            ray=line,
        )
    for r, _ in sk.rays:
        if float(np.dot(b, r)) <= 0.0:
            raise DivergentWeight(
                f"weight is not integrable along recession direction {r}", ray=r
            )
    verts = np.array([[float(x) for x in p] for p, _ in sk.vertices])
    T, bounds = None, (0.0, 0.0, 0.0)
    corners = verts
    if sk.rays:
        tail_bounds = _tail_bounds(b, np.array([r for r, _ in sk.rays], dtype=float), verts)
        base_T = float(np.max(verts @ b))
        if truncation is not None:
            T = float(truncation)
            if T <= base_T:
                raise ValueError(
                    f"truncation {T} must exceed max vertex level {base_T:.6g}"
                )
            bounds = tail_bounds(T)
        else:
            T = max(1.0, base_T + P.dim + 2.0)
            for _ in range(200):
                bounds = tail_bounds(T)
                if sum(bounds) <= tol:
                    break
                T *= 1.3
            else:
                raise RuntimeError(
                    "tail bound failed to reach tolerance within 200 steps of T *= 1.3")
        corners = np.vstack([verts] + [
            v + (T - float(v @ b)) / float(r @ b) * r for v, r in _unbounded_edges(P)
        ])
    ring = _ring(corners)
    return QuadraturePlan(
        b=tuple(float(x) for x in b),
        ring=tuple(map(tuple, ring)),
        simplices=tuple(_fan(ring)),
        truncation=T,
        tail_bounds=bounds,
    )
