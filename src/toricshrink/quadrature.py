"""Exponentially weighted integrals over polyhedra.

The integral of e^{-<b,x>} over a labeled polyhedron and its first and second
moments are exact sums over pieces read from the polyhedron's exact
skeleton: the fan of its vertices, and on unbounded P the face x cone pieces
beyond their hull, each from divided differences of exp at its vertex nodes
in one batched kernel call per group. Those pieces do not depend on b: every
plan of P shares one read-only geometry, built once per P (_geometry), and a
plan for a new b only checks that e^{-<b,x>} is integrable. A plan may
instead be cut at a level <b,x> <= T; what it drops, conv(crossings) +
rec(P), is again face x cone pieces (QuadraturePlan.past). Convex regions
are kept as rings of corners and fanned into simplices.

Divided differences of exp come from one batched kernel, _dd_exp_batch:
narrow node sets sum a mean-shifted series only as far as its own error
bound asks (at most 26 terms), wider sets use the recurrence. The kernel
sums the series only on the narrow windows its table reads (a row's whole
window, or one a wide parent reads), and takes what its index rows fix from
a cache. divided_difference_exp is its one-row form.
The one Gauss-Legendre builder is _line_rules, which also gives the Gauss
rule for the weight -log u on [0, 1]; dense Gauss rules on simplices are its
Gauss-Legendre half collapsed onto the unit simplex, cached per dimension
and order and mapped affinely onto a whole stack of simplices at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .polyhedra import LabeledPolyhedron, _skeleton


class DivergentWeight(ValueError):
    """The weight e^{-<b,x>} is not integrable over the polyhedron."""


def stable_sum(values) -> float:
    """Exactly rounded floating-point summation."""
    if isinstance(values, np.ndarray):
        return math.fsum(values.tolist())
    return math.fsum(float(v) for v in values)


# ---------------------------------------------------------------------------
# divided differences of exp

_SERIES_SPREAD = 1.0
_SERIES_TOL = 2.0**-56


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


@lru_cache(maxsize=None)
def _inverse_factorials(M: int, K: int) -> np.ndarray:
    """Row m < M holds 1/(m+k)! for k < K, each correctly rounded (to zero
    past 177!); read-only."""
    inv = np.array([[1 / math.factorial(m + k) for k in range(K)] for m in range(M)])
    inv.flags.writeable = False
    return inv


# the largest t with a finite e^t; math.exp raises OverflowError past it
_EXP_MAX = math.log(sys.float_info.max)


@lru_cache(maxsize=None)
def _windows(M: int):
    """The sub-windows of M sorted nodes, by span then start, read-only.

    Returns their start and end columns lo, hi and their parents left, right:
    the windows one node wider on the left, (lo - 1, hi), and on the right,
    (lo, hi + 1), where a wide window reads them; W, the number of windows,
    where there is none.
    """
    lo = np.array([i for s in range(1, M) for i in range(M - s)], dtype=int)
    hi = lo + np.repeat(np.arange(1, M), np.arange(M - 1, 0, -1))
    flat = {(i, j): w for w, (i, j) in enumerate(zip(lo.tolist(), hi.tolist()))}
    left = np.array([flat.get((i - 1, j), len(lo)) for i, j in flat], dtype=int)
    right = np.array([flat.get((i, j + 1), len(lo)) for i, j in flat], dtype=int)
    for a in (lo, hi, left, right):
        a.flags.writeable = False
    return lo, hi, left, right


def _narrow_series(xs, lo, hi) -> np.ndarray:
    """exp[xs[lo..hi]] of each row's window by a mean-shifted series, all rows at once.

    With mu the window's mean and xi = xs - mu, exp[t] = e^mu sum_k
    h_k(xi) / (m+k)!, h_k the complete homogeneous symmetric polynomials,
    cut where its error bound falls below 2^-56 relative (_series_terms):
    at most 26 terms on a window no wider than 2, where |xi_i| < 2. Nodes
    outside the window are shifted to zero, which leaves the series
    unchanged. One K serves every row: the fewest terms for the largest
    shifted node. For fixed k, h_k <- h_k + x h_{k-1} over the nodes in order
    is a running sum, so each term costs one product and one accumulate over
    the nodes, both written into preallocated arrays.
    """
    cols = np.arange(xs.shape[1])
    member = (cols >= lo[:, None]) & (cols <= hi[:, None])
    m = hi - lo
    mu = np.sum(xs * member, axis=1) / (m + 1)
    xi = (xs - mu[:, None]) * member
    K = _series_terms(float(np.max(np.abs(xi), initial=0.0)))
    xi = np.ascontiguousarray(xi.T)  # nodes by rows: each running sum is one pass down
    H = np.empty((K, *xi.shape))
    H[0] = 1.0
    for k in range(1, K):
        np.multiply(xi, H[k - 1], out=H[k])
        np.add.accumulate(H[k], axis=0, out=H[k])
    h = np.ascontiguousarray(H[:, -1].T)
    return np.exp(mu) * np.einsum("lk,lk->l", h, _inverse_factorials(xs.shape[1], K)[m])


def _dd_exp_sorted(xs, layout) -> np.ndarray:
    """exp[xs_sr[:size_r]] for each row of an ascending (S, R, M) array.

    Columns from size_r on are pads, each more than 2 above the column
    before it, so every window that reaches a pad is wide and feeds only
    entries no row reads. Windows no wider than 2 come from the series
    (_narrow_series), where the recurrence cancels catastrophically; wider
    ones from the recurrence, whose denominators are then bounded away from
    zero. A narrow window is read only by a wide parent clear of the pads,
    or as the row's whole window, so the series runs on those windows alone.
    """
    lo, hi, left, right = _windows(xs.shape[2])
    real, clear, whole, last = layout
    span = xs[..., hi] - xs[..., lo]
    narrow = span <= 2.0 * _SERIES_SPREAD
    wide = np.zeros((*narrow.shape[:2], len(lo) + 1), dtype=bool)
    np.logical_and(~narrow, clear, out=wide[..., :-1])
    s, r, w = np.nonzero(narrow & (wide[..., left] | wide[..., right] | whole))
    series = np.zeros(narrow.shape)
    if len(s):
        series[s, r, w] = _narrow_series(xs[s, r], lo[w], hi[w])
    den = np.where(narrow, 1.0, span)
    prev = np.exp(np.where(real, xs, 0.0))
    first = [prev[..., 0]]
    start = 0
    for k in range(1, xs.shape[2]):
        cols = slice(start, start + xs.shape[2] - k)
        start = cols.stop
        prev = np.where(narrow[..., cols], series[..., cols],
                        (prev[..., 1:] - prev[..., :-1]) / den[..., cols])
        first.append(prev[..., 0])
    return np.stack(first, axis=-1)[:, np.arange(len(last)), last]


@lru_cache(maxsize=64)
def _index_layout(raw: bytes, shape, dtype: str):
    """What an index (R, M) fixes in _dd_exp_batch, read-only: the gather
    index with pads read as column 0, the pads and their offsets above the
    largest node, and for _dd_exp_sorted each row's real columns, the
    windows clear of its pads, its whole window and its last column."""
    index = np.frombuffer(raw, dtype=dtype).reshape(shape)
    pad = index < 0
    size = shape[1] - np.sum(pad, axis=1)
    lo, hi, _, _ = _windows(shape[1])
    arrays = (np.where(pad, 0, index), pad, 4.0 * _SERIES_SPREAD * np.cumsum(pad, axis=1),
              np.arange(shape[1]) < size[:, None], hi < size[:, None],
              (lo == 0) & (hi == size[:, None] - 1), size - 1)
    for a in arrays:
        a.flags.writeable = False
    return arrays[:3], arrays[3:]


def _dd_exp_batch(t, index) -> np.ndarray:
    """exp[t_s[index_r]] for every node row t_s of t (S, k) and index row r.

    index is (R, M) with -1 padding the shorter rows; returns (S, R). Each
    of the S R node multisets is sorted with its pads spaced 4 apart above
    its largest node, and all are tabulated at once (_dd_exp_sorted).
    """
    if np.max(t) > _EXP_MAX:
        raise OverflowError("math range error")
    (safe, pad, offset), layout = _index_layout(index.tobytes(), index.shape, index.dtype.str)
    X = np.where(pad, np.max(t, axis=1)[:, None, None] + offset, t[:, safe])
    return _dd_exp_sorted(np.sort(X, axis=-1), layout)


def divided_difference_exp(nodes) -> float:
    """exp[t_0, ..., t_m]: the divided difference of e^t, repeated nodes allowed.

    The one-row form of _dd_exp_batch.
    """
    t = np.asarray(nodes, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("nodes must be a nonempty 1-d sequence")
    return float(_dd_exp_batch(t[None, :], np.arange(t.size)[None, :])[0, 0])


@lru_cache(maxsize=None)
def _moment_multisets(k: int) -> np.ndarray:
    """Index rows into a simplex's k nodes t: t, t + [t_i], t + [t_i, t_l] (i <= l)."""
    base = list(range(k))
    rows = ([base + [-1, -1]] + [base + [i, -1] for i in range(k)]
            + [base + [i, l] for i in range(k) for l in range(i, k)])
    index = np.array(rows)
    index.flags.writeable = False
    return index


@lru_cache(maxsize=None)
def _moment_blocks(m: int, n: int):
    """For a piece of m vertex rows in R^n, read-only: the vertex pairs (i, l)
    of _moment_multisets(m)'s last rows, their factors 1 + delta, and the
    factors 1 + delta of E_2's ray columns (QuadraturePlan.moments)."""
    i, l = _moment_multisets(m)[m + 1 :, m:].T
    blocks = (i, l, 1.0 + (i == l), 1.0 + np.eye(n + 1, n + 1 - m, -m))
    for a in blocks:
        a.flags.writeable = False
    return blocks


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

    @cached_property
    def volume(self) -> float:
        V = np.array(self.points)
        E = V[1:] - V[0]
        return abs(float(np.linalg.det(E))) / math.factorial(self.dim)


def exp_integral_simplex(S: Simplex, b) -> float:
    """Closed form of the integral of e^{-<b,x>} over the simplex."""
    b = np.asarray(b, dtype=float)
    t = -(np.array(S.points) @ b)
    return math.factorial(S.dim) * S.volume * divided_difference_exp(t)


# ---------------------------------------------------------------------------
# dense Gauss quadrature on a simplex (reference integrator)

@lru_cache(maxsize=None)
def _line_rules(order: int):
    """Read-only Gauss rules (nodes, weights) on [0, 1] for the weights 1 and -log u.

    The modified Chebyshev algorithm takes the -log u recurrence from the
    moments 1, (-1)^k (k!)^2 / ((2k)! k (k+1)) against the monic Legendre
    polynomials on [0, 1] (Gautschi, Orthogonal Polynomials, 2004, 2.1.7).
    Nodes are Jacobi eigenvalues (Golub & Welsch, Math. Comp. 23, 1969),
    weights Christoffel numbers 1 / sum_k q_k^2, q_k orthonormal: to rounding.
    """
    N = 2 * order
    b = [1.0] + [0.25 / (4.0 - k ** -2.0) for k in range(1, N)]  # Legendre's recurrence
    s = [1.0] + [(-1) ** k * math.factorial(k) ** 2 / math.factorial(2 * k) / (k * k + k)
                 for k in range(1, N)]  # the modified moments
    alpha, beta, prev = [0.5 + s[1]], [1.0], [0.0] * N
    for j in range(1, order):
        new = [0.0] * N
        for k in range(j, N - j):
            new[k] = s[k + 1] - (alpha[-1] - 0.5) * s[k] - beta[-1] * prev[k] + b[k] * s[k - 1]
        alpha.append(0.5 + new[j + 1] / new[j] - s[j] / s[j - 1])
        beta.append(new[j] / s[j - 1])
        prev, s = s, new
    a, r = np.array([[0.5] * order, alpha]), np.sqrt([b[:order], beta])
    nodes = np.linalg.eigvalsh(a[..., None] * np.eye(order)
                               + r[..., None] * np.eye(order, k=-1))
    q, prev, total = np.ones_like(nodes), 0.0, np.ones_like(nodes)
    for k in range(order - 1):
        q, prev = ((nodes - a[:, k, None]) * q - r[:, k, None] * prev) / r[:, k + 1, None], q
        total = total + q * q
    weights = 1.0 / total
    nodes.flags.writeable = weights.flags.writeable = False
    return (nodes[0], weights[0]), (nodes[1], weights[1])


@lru_cache(maxsize=None)
def _reference_rule(n: int, order: int):
    """Tensor Gauss-Legendre nodes on [0,1]^n collapsed onto the unit simplex.

    Returns read-only barycentric coordinates (lambda_1..lambda_n per row) and
    weights summing to 1/n!; the Duffy Jacobian is folded into the weights.
    """
    u, w = _line_rules(order)[0]
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


def gauss_rules(V, volumes, order: int):
    """Gauss nodes and weights on each simplex V[s] of a stack (S, n+1, n), stacked.

    The reference rule on the unit simplex is mapped affinely onto every
    simplex of the given volumes at once; rows s q to (s + 1) q - 1 of the
    returned (S q, n) nodes and (S q,) weights belong to V[s], q = order^n.
    """
    V = np.asarray(V, dtype=float)
    n = V.shape[2]
    lam, W = _reference_rule(n, order)
    X = V[:, :1] + lam @ (V[:, 1:] - V[:, :1])
    W = W * math.factorial(n) * np.asarray(volumes, dtype=float)[:, None]
    return X.reshape(-1, n), W.ravel()


def gauss_simplex_rule(S: Simplex, order: int = 20):
    """Gauss nodes and weights on S: order^n collapsed tensor Gauss-Legendre points.

    The one-simplex case of gauss_rules; the returned arrays are fresh.
    """
    return gauss_rules(np.array(S.points)[None], [S.volume], order)


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


def _fan(ring):
    """The fan (S, n+1, n) from a ring's first corner to each later edge, with
    its volumes (S,) from one stacked determinant; volumes <= 1e-13 are dropped."""
    n = ring.shape[1]
    edges = np.arange(1, len(ring) - n + 1)[:, None] + np.arange(n)
    V = np.concatenate([np.broadcast_to(ring[:1], (len(edges), 1, n)), ring[edges]], axis=1)
    volumes = np.abs(np.linalg.det(V[:, 1:] - V[:, :1])) / math.factorial(n)
    keep = volumes > 1e-13
    return V[keep], volumes[keep]


@dataclass(frozen=True, eq=False)
class QuadraturePlan:
    """The pieces of a region on which e^{-<b,x>} integrates in closed form.

    ring holds the corners (m, n) of the bounded part in fan order,
    simplices their fan as a vertex stack (S, n+1, n) and volumes its
    volumes (S,). Each entry of cones is a pair (points, rays) of exact
    skeleton entries (a _Cone, which carries its float rows and |det|): the
    hull of the points plus the cone of the rays, with <b,r> > 0 on every
    ray. A plan cut at a level T has no cones; beyond holds the pieces past
    the cut in the same form. The exact plan's arrays and cones are P's
    shared, read-only _geometry.
    """

    b: tuple[float, ...]
    ring: np.ndarray
    simplices: np.ndarray
    volumes: np.ndarray
    cones: tuple[tuple[tuple, tuple], ...]
    beyond: tuple[tuple[tuple, tuple], ...] = ()

    def past(self) -> QuadraturePlan:
        """What the cut drops, as a plan of its own."""
        return replace(self, simplices=self.simplices[:0], volumes=self.volumes[:0],
                       cones=self.beyond, beyond=())

    def _pieces(self):
        """The fan, then each cone, as (V, m, inv, scale): one kernel call each.

        V stacks the m vertex rows P_j over the ray rows r_i, inv = 1 / <b,r_i>
        and scale = |det[P_j - P_0, r_i]| prod inv (n! vol on a simplex).
        """
        b = np.array(self.b)
        if len(self.simplices):
            yield (self.simplices, len(b) + 1, np.empty((len(self.simplices), 0)),
                   math.factorial(len(b)) * self.volumes)
        for cone in self.cones:
            inv = 1.0 / (cone.rows[cone.m :] @ b)
            yield cone.rows[None], cone.m, inv[None], np.array([cone.det * np.prod(inv)])

    @np.errstate(over="ignore", invalid="ignore")  # _in_range reports overflow
    def exp_integral(self, shift: float = 0.0) -> float:
        """The integral of e^{-<b,x>-shift} over the plan: scale exp[t] per piece."""
        b = np.array(self.b)
        terms = [scale * _dd_exp_batch(-(V[:, :m] @ b) - shift, np.arange(m)[None, :])[:, 0]
                 for V, m, _, scale in self._pieces()]
        return stable_sum(_in_range(np.concatenate(terms)))

    @np.errstate(over="ignore", invalid="ignore")  # _in_range reports overflow
    def moments(self, shift: float = 0.0):
        """Integrals of (1, x, x x^T) times e^{-<b,x>-shift} over the plan.

        With nodes t = -P b, a piece gives scale times exp[t], V^T e_1 and
        V^T E_2 V. At vertex rows (e_1)_j = exp[t, t_j] and (E_2)_jj' =
        (1 + delta) exp[t, t_j, t_j']: a repeated node inserts a barycentric
        factor. Each ray integrates s^k e^{-<b,r> s} in closed form, so a ray
        row of e_1 is exp[t] inv_i, the mixed block of E_2 is e_1j inv_i and
        its ray block (1 + delta) exp[t] inv_i inv_i'.
        """
        n = len(self.b)
        b = np.array(self.b)
        parts = []
        for V, m, inv, scale in self._pieces():
            i, l, pair, ray = _moment_blocks(m, n)
            dd = _dd_exp_batch(-(V[:, :m] @ b) - shift, _moment_multisets(m))
            e1 = np.concatenate([dd[:, 1 : m + 1], dd[:, :1] * inv], axis=1)
            E2 = np.empty((len(V), n + 1, n + 1))
            E2[:, i, l] = E2[:, l, i] = pair * dd[:, m + 1 :]
            E2[:, :, m:] = ray * e1[..., None] * inv[:, None]
            E2[:, m:, :m] = E2[:, :m, m:].transpose(0, 2, 1)
            Vt = V.transpose(0, 2, 1)
            parts.append(np.concatenate([
                dd[:, :1],
                (Vt @ e1[..., None])[..., 0],
                (Vt @ E2 @ V).reshape(len(V), n * n),
            ], axis=1) * scale[:, None])
        sums = [stable_sum(col) for col in _in_range(np.concatenate(parts)).T]
        return sums[0], np.array(sums[1 : n + 1]), np.array(sums[n + 1 :]).reshape(n, n)


def _in_range(terms):
    """terms, unless one left the float range: OverflowError, as e^t past 709.78."""
    if not np.all(np.isfinite(terms)):
        raise OverflowError("a weighted integral over the plan overflows")
    return terms


class _Cone(tuple):
    """A face x cone piece: the pair (points, rays), which compares as that
    tuple, with what the weight does not change: its float rows = [points;
    rays] (read-only), m = len(points) and det = |det[P_j - P_0, r_i]|."""

    def __new__(cls, points, rays):
        return super().__new__(cls, (points, rays))

    def __init__(self, points, rays):
        self.rows = np.array(points + rays, dtype=float)
        self.rows.flags.writeable = False
        self.m = len(points)
        self.det = abs(np.linalg.det(np.vstack([self.rows[1 : self.m] - self.rows[0],
                                                 self.rows[self.m :]])))


def _cones(edges):
    """conv(v_i) + cone(r_i) over unbounded edges v_i + cone(r_i), as face x
    cone pieces: P beyond its vertices' hull, or past a level's crossings.

    In 1D the edge [v, inf). In 2D, with edges v_a + cone(r_a) and
    v_b + cone(r_b): the half-strip conv(v_a, v_b) + cone(r_b) unless v_a = v_b,
    and the corner v_a + cone(r_a, r_b) unless r_a = r_b.
    """
    if len(edges) == 1:
        return tuple(_Cone((v,), (r,)) for v, r in edges)
    (va, ra), (vb, rb) = edges
    half_strip, corner = ((va, vb), (rb,)), ((va,), (ra, rb))
    return tuple(_Cone(*piece) for piece in (half_strip,) * (va != vb) + (corner,) * (ra != rb))


@dataclass(frozen=True)
class _Geometry:
    """What a plan on P takes from P alone, read-only: the float vertex rows,
    recession rays and unbounded edges v + cone(r) as (E, 2, n) pairs (v, r),
    and the exact plan's ring, fan and cones."""

    verts: np.ndarray
    rays: np.ndarray
    edges: np.ndarray
    ring: np.ndarray
    simplices: np.ndarray
    volumes: np.ndarray
    cones: tuple[_Cone, ...]


@lru_cache(maxsize=256)
def _geometry(P: LabeledPolyhedron) -> _Geometry:
    """P's weight-free plan geometry, built once per P.

    Raises ValueError in dimension > 2 and DivergentWeight when P contains a
    line, before building anything.
    """
    if P.dim > 2:
        raise ValueError("quadrature plans are implemented in dimensions 1 and 2")
    sk = _skeleton(P)
    if sk.lineality:
        line = sk.lineality[0]
        raise DivergentWeight(f"polyhedron contains the line {line}; no weight is integrable")
    verts = np.array([p for p, _ in sk.vertices], dtype=float)
    rays = np.array([r for r, _ in sk.rays], dtype=float).reshape(-1, P.dim)
    # the unbounded edges: a vertex and a ray on n - 1 common facets
    edges = [(p, r) for p, active in sk.vertices for r, parallel in sk.rays
             if len(set(active) & set(parallel)) == P.dim - 1]
    ring = _ring(verts)
    g = _Geometry(verts, rays, np.array(edges, dtype=float), ring, *_fan(ring),
                  _cones(edges) if edges else ())
    for a in (g.verts, g.rays, g.edges, g.ring, g.simplices, g.volumes):
        a.flags.writeable = False
    return g


def _weight_skeleton(P: LabeledPolyhedron, b) -> _Geometry:
    """P's plan geometry (_geometry: its float vertex rows verts, recession
    rays and the rest, read-only), once e^{-<b,x>} is integrable on P.

    Checks b on every call: raises DivergentWeight when P contains a line or
    b fails to be positive on some recession direction, and ValueError in
    dimension > 2.
    """
    if b.shape != (P.dim,):
        raise ValueError("weight vector has the wrong dimension")
    g = _geometry(P)
    bad = np.flatnonzero(g.rays @ b <= 0.0)
    if len(bad):
        r = _skeleton(P).rays[bad[0]][0]
        raise DivergentWeight(f"weight is not integrable along recession direction {r}")
    return g


def plan(P: LabeledPolyhedron, b, truncation: float | None = None) -> QuadraturePlan:
    """Build a quadrature plan for the weight e^{-<b,x>} on P.

    The pieces come from the exact skeleton of P: the fan of its vertices
    and, on unbounded P, the face x cone pieces of _cones, so the plan's
    integrals are exact. They do not depend on b, and every plan of P
    shares them (_geometry). A fixed truncation T instead cuts unbounded P
    by <b,x> <= T: the corners are then the vertices and the crossing
    v + (T - <b,v>) / <b,r> r of each unbounded edge, and the pieces past
    the cut are _cones of the crossings. Raises what _weight_skeleton
    raises, and ValueError when some vertex has <b,v> >= T.
    """
    b = np.asarray(b, dtype=float)
    g = _weight_skeleton(P, b)
    if truncation is None or not len(g.rays):
        return QuadraturePlan(tuple(map(float, b)), g.ring, g.simplices, g.volumes, g.cones)
    T, base_T = float(truncation), float(np.max(g.verts @ b))
    if T <= base_T:
        raise ValueError(f"truncation {T} must exceed max vertex level {base_T:.6g}")
    crossings = [v + (T - float(v @ b)) / float(r @ b) * r for v, r in g.edges]
    ring = _ring(np.vstack([g.verts] + crossings))
    beyond = _cones([(tuple(x), tuple(r)) for x, r in zip(crossings, g.edges[:, 1])])
    return QuadraturePlan(tuple(map(float, b)), ring, *_fan(ring), (), beyond)
