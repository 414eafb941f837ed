"""Independent computations that the benchmark checks toricshrink against.

Nothing here imports toricshrink. A polyhedron is given as ``(dim, rows)``
with rows ``(normal, label, offset)``: the facet is ``L(x) = label *
<normal, x> + offset >= 0``. Shrinker-normalized offsets (all 2) are
assumed wherever a closed form depends on them.

Each ``check_*`` function returns a list of ``Check`` records. ``rel``
checks compare an output with an independent value and feed the
accuracy metric; ``prop`` checks test a property the method guarantees
(exact combinatorics, convexity) and only gate correctness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

_DPS = 40


@dataclass(frozen=True)
class Check:
    what: str
    kind: str  # "rel" or "prop"
    error: float
    tol: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.error) and self.error <= self.tol


def _mpf(q) -> mp.mpf:
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# product structure

@dataclass(frozen=True)
class Axis:
    """One factor of an axis-aligned product: lo <= x_d <= hi (one end may be None)."""

    d: int
    lo: Fraction | None
    m_lo: int | None
    hi: Fraction | None
    m_hi: int | None


def product_axes(dim, rows):
    """Per-axis factors if every facet normal is +-e_d, else None."""
    lo = [None] * dim
    hi = [None] * dim
    for normal, label, offset in rows:
        support = [d for d, c in enumerate(normal) if c != 0]
        if len(support) != 1 or abs(normal[support[0]]) != 1:
            return None
        d = support[0]
        if normal[d] == 1:
            lo[d] = (-Fraction(offset) / label, label)
        else:
            hi[d] = (Fraction(offset) / label, label)
    axes = []
    for d in range(dim):
        if lo[d] is None and hi[d] is None:
            return None
        if lo[d] is None:
            # x_d <= hi only: the factor is a half-line pointing down
            axes.append(Axis(d, None, None, hi[d][0], hi[d][1]))
        else:
            h = hi[d]
            axes.append(Axis(d, lo[d][0], lo[d][1],
                             None if h is None else h[0],
                             None if h is None else h[1]))
    return axes


# ---------------------------------------------------------------------------
# soliton vector

def _barycentre_1d(lo, hi, b):
    """int_lo^hi x e^{-bx} dx in closed form."""
    if b == 0:
        return (hi**2 - lo**2) / 2
    return ((b * lo + 1) * mp.exp(-b * lo) - (b * hi + 1) * mp.exp(-b * hi)) / b**2


def axis_soliton_component(axis: Axis) -> float:
    """Root of the 1D barycentre equation int x e^{-bx} = 0 on one factor.

    On a half-line [lo, oo) the root is -1/lo; on a bounded interval the
    left side is strictly decreasing in b, so bisection brackets it. The
    closed form cancels about 2 log10(1/b) digits near b = 0, hence the
    extra working precision.
    """
    if axis.hi is None:
        return float(-1 / axis.lo)
    if axis.lo is None:
        return float(-1 / axis.hi)
    with mp.workdps(3 * _DPS):
        lo, hi = _mpf(axis.lo), _mpf(axis.hi)

        def h(b):
            return _barycentre_1d(lo, hi, b)

        a, c = mp.mpf(-1), mp.mpf(1)
        while h(a) <= 0:
            a *= 2
        while h(c) >= 0:
            c *= 2
        for _ in range(4 * _DPS):
            mid = (a + c) / 2
            if h(mid) > 0:
                a = mid
            else:
                c = mid
        return float((a + c) / 2)


def polygon_vertices(dim, rows):
    """Exact vertices of {L_i >= 0} with their active facets, by brute force."""
    A = [[Fraction(label * c) for c in normal] for normal, label, _ in rows]
    a = [Fraction(offset) for _, _, offset in rows]
    found = {}
    for subset in itertools.combinations(range(len(rows)), dim):
        if dim == 1:
            (i,) = subset
            point = (-a[i] / A[i][0],)
        else:
            i, j = subset
            det = A[i][0] * A[j][1] - A[i][1] * A[j][0]
            if det == 0:
                continue
            point = ((-a[i] * A[j][1] + a[j] * A[i][1]) / det,
                     (-A[i][0] * a[j] + A[j][0] * a[i]) / det)
        values = [sum(r * p for r, p in zip(row, point)) + off
                  for row, off in zip(A, a)]
        if all(v >= 0 for v in values):
            found[point] = tuple(k for k, v in enumerate(values) if v == 0)
    return dict(sorted(found.items()))


def _triangle_rule(p0, p1, p2):
    """Collapsed 32x32 tensor Gauss-Legendre rule on a triangle."""
    u, w = np.polynomial.legendre.leggauss(32)
    u = 0.5 * (u + 1.0)
    w = 0.5 * w
    s, t = np.meshgrid(u, u, indexing="ij")
    ws = np.outer(w, w).ravel()
    s, t = s.ravel(), t.ravel()
    e1, e2 = p1 - p0, p2 - p0
    X = p0 + np.outer(s * (1 - t), e1) + np.outer(s * t, e2)
    area2 = abs(e1[0] * e2[1] - e1[1] * e2[0])
    return X, ws * s * area2


def polygon_rule(dim, rows):
    """Quadrature nodes and weights on a bounded polygon (fan of triangles)."""
    pts = np.array([[float(c) for c in p] for p in polygon_vertices(dim, rows)])
    centre = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0])
    pts = pts[np.argsort(ang)]
    Xs, Ws = [], []
    for k in range(1, len(pts) - 1):
        X, W = _triangle_rule(pts[0], pts[k], pts[k + 1])
        Xs.append(X)
        Ws.append(W)
    return np.vstack(Xs), np.concatenate(Ws)


def polygon_soliton_vector(dim, rows) -> np.ndarray:
    """Newton on F(b) = int_P e^{-<b,x>} with the benchmark's own quadrature."""
    X, W = polygon_rule(dim, rows)
    b = np.zeros(2)
    for _ in range(60):
        w = W * np.exp(-(X @ b))
        g = -(w @ X)
        H = (X * w[:, None]).T @ X
        step = np.linalg.solve(H, -g)
        b = b + step
        if np.max(np.abs(step)) <= 1e-16 * max(1.0, np.max(np.abs(b))):
            break
    return b


def soliton_vector(dim, rows) -> np.ndarray:
    axes = product_axes(dim, rows)
    if axes is not None:
        return np.array([axis_soliton_component(ax) for ax in axes])
    if dim != 2:
        raise ValueError("oracle covers products and bounded polygons")
    return polygon_soliton_vector(dim, rows)


def check_soliton_vector(b, b_exact) -> list[Check]:
    b = np.asarray(b, dtype=float)
    b_exact = np.asarray(b_exact, dtype=float)
    err = float(np.max(np.abs(b - b_exact)) / max(1.0, np.max(np.abs(b_exact))))
    return [Check("b", "rel", err, 1e-9)]


# ---------------------------------------------------------------------------
# the solved potential on a product: u_dd = 1/W_d

def profile_W(lo: float, b: float):
    """W(x) = C e^{bx} + x/b + 1/b^2 with W(lo) = 0, so W' = bW - x."""
    if b == 0.0:
        return lambda x: 0.5 * (lo * lo - x * x)
    return lambda x: (1.0 + b * x - (1.0 + b * lo) * np.exp(b * (x - lo))) / b**2


def diff_matrix(x) -> np.ndarray:
    """First-derivative matrix of the polynomial interpolant on nodes x."""
    x = np.asarray(x, dtype=float)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    c = np.prod(dx, axis=1)
    D = (c[:, None] / c[None, :]) / dx
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return D


def _upp_axis(rows, d, x):
    """Second derivative of u_P along axis d, from the facets normal to e_d."""
    out = np.zeros_like(x)
    for normal, label, offset in rows:
        if normal[d] != 0:
            L = label * normal[d] * x + float(offset)
            out += 0.5 * (label * normal[d]) ** 2 / L
    return out


def check_product_solution(dim, rows, b, axes_nodes, values) -> list[Check]:
    """u_dd W_d = 1 at interior collocation nodes, and u_xy = 0 in 2D.

    Derivatives of the returned grid values come from this module's own
    differentiation matrices, not from the program's interpolant.
    """
    axes = product_axes(dim, rows)
    S = np.asarray(values, dtype=float).reshape([len(a) for a in axes_nodes])
    Ds = [diff_matrix(a) for a in axes_nodes]
    inner = [np.asarray(a)[1:-1] for a in axes_nodes]
    checks = []
    second = []
    for ax in axes:
        d = ax.d
        D2 = Ds[d] @ Ds[d]
        s_dd = np.moveaxis(np.tensordot(D2, S, axes=([1], [d])), 0, d)
        if ax.lo is not None:
            W = profile_W(float(ax.lo), float(b[d]))
        else:  # x_d <= hi: mirror of the half-line profile
            Wm = profile_W(-float(ax.hi), -float(b[d]))
            W = lambda x, Wm=Wm: Wm(-x)
        grid = np.meshgrid(*inner, indexing="ij")
        sl = tuple(slice(1, -1) for _ in range(dim))
        x = grid[d]
        u_dd = _upp_axis(rows, d, x) + s_dd[sl]
        second.append(u_dd)
        err = float(np.max(np.abs(u_dd * W(x) - 1.0)))
        checks.append(Check(f"u_x{d}x{d} W = 1", "rel", err, 1e-6))
    if dim == 2:
        s_xy = Ds[0] @ S @ Ds[1].T
        cross = np.abs(s_xy[1:-1, 1:-1]) / np.sqrt(second[0] * second[1])
        checks.append(Check("u_xy = 0", "rel", float(np.max(cross)), 1e-6))
    return checks


# ---------------------------------------------------------------------------
# Ding functional pieces with closed forms

def _axis_density(ax: Axis):
    """Stable d1 density of the canonical potential on one factor, and beta.

    With u = 1/2 sum L_k log L_k and offsets 2, e^{u - x u'} u'' equals
    D(x) e^{-beta x} with D = 1/2 sum_k m_k^2 prod_{j != k} L_j.
    """
    facets = []
    if ax.lo is not None:
        facets.append((ax.m_lo, ax.lo))
    if ax.hi is not None:
        facets.append((-ax.m_hi, ax.hi))
    beta = sum(Fraction(s) for s, _ in facets) / 2

    def L(k, x):
        s, end = facets[k]
        return s * (x - _mpf(end))

    def D(x):
        total = mp.mpf(0)
        for k, (s, _) in enumerate(facets):
            prod = mp.mpf(1)
            for j in range(len(facets)):
                if j != k:
                    prod *= L(j, x)
            total += s * s * prod / 2
        return total

    return D, _mpf(beta)


def _interval(ax: Axis):
    lo = -mp.inf if ax.lo is None else _mpf(ax.lo)
    hi = mp.inf if ax.hi is None else _mpf(ax.hi)
    return lo, hi


def canonical_d1(dim, rows) -> float:
    """d1(u_P) = int_P D e^{-<beta,x>}, a product of 1D integrals."""
    with mp.workdps(_DPS):
        total = mp.mpf(1)
        for ax in product_axes(dim, rows):
            D, beta = _axis_density(ax)
            total *= mp.quad(lambda x: D(x) * mp.exp(-beta * x), _interval(ax))
        return float(total)


def canonical_linear(dim, rows, b) -> float:
    """(1/F(b)) int_P u_P e^{-<b,x>}; u_P splits into a sum over axes."""
    with mp.workdps(_DPS):
        total = mp.mpf(0)
        for ax in product_axes(dim, rows):
            bd = mp.mpf(float(b[ax.d]))
            facets = [(normal, label, offset) for normal, label, offset in rows
                      if normal[ax.d] != 0]

            def u(x):
                out = mp.mpf(0)
                for normal, label, offset in facets:
                    L = label * normal[ax.d] * x + _mpf(offset)
                    out += L * mp.log(L) / 2 if L > 0 else 0
                return out

            iv = _interval(ax)
            F = mp.quad(lambda x: mp.exp(-bd * x), iv)
            total += mp.quad(lambda x: u(x) * mp.exp(-bd * x), iv) / F
        return float(total)


def check_value(value, exact, what, tol=1e-9) -> list[Check]:
    err = abs(float(value) - exact) / max(1.0, abs(exact))
    return [Check(what, "rel", err, tol)]


# ---------------------------------------------------------------------------
# polynomial corrections on a box: D(t) along a geodesic by tensor Gauss

def poly_eval(coef, x, y):
    """s and its derivatives for s = sum c_ij x^i y^j (coef: {(i, j): c})."""
    out = {k: np.zeros_like(x) for k in ("s", "x", "y", "xx", "yy", "xy")}
    for (i, j), c in coef.items():
        xi, yj = x ** i, y ** j
        out["s"] += c * xi * yj
        if i:
            out["x"] += c * i * x ** (i - 1) * yj
        if j:
            out["y"] += c * j * xi * y ** (j - 1)
        if i > 1:
            out["xx"] += c * i * (i - 1) * x ** (i - 2) * yj
        if j > 1:
            out["yy"] += c * j * (j - 1) * xi * y ** (j - 2)
        if i and j:
            out["xy"] += c * i * j * x ** (i - 1) * y ** (j - 1)
    return out


def box_ding_values(dim, rows, b, coef0, coef1, ts):
    """D(t) = linear(t) - log d1(t) for u_P + (1-t) s0 + t s1 on a 2D box.

    On a box, det(Hess u) e^{u - <grad u, x>} =
    [(Dx + s_xx Lx)(Dy + s_yy Ly) - s_xy^2 Lx Ly] e^{-<beta,x>} e^{s - <grad s, x>}
    with Lx, Ly the facet products of each axis and Dx, Dy the 1D densities,
    a smooth integrand that plain tensor Gauss integrates to rounding.
    """
    axes = product_axes(dim, rows)
    u, w = np.polynomial.legendre.leggauss(48)
    nodes, weights, Lprod, dens, betas = [], [], [], [], []
    for ax in axes:
        lo, hi = float(ax.lo), float(ax.hi)
        nodes.append(0.5 * (hi - lo) * u + 0.5 * (hi + lo))
        weights.append(0.5 * (hi - lo) * w)
        x = nodes[-1]
        Lp = ax.m_lo * (x - lo) * ax.m_hi * (hi - x)
        Lprod.append(Lp)
        dens.append(0.5 * (ax.m_lo**2 * ax.m_hi * (hi - x)
                           + ax.m_hi**2 * ax.m_lo * (x - lo)))
        betas.append(0.5 * (ax.m_lo - ax.m_hi))
    X, Y = np.meshgrid(nodes[0], nodes[1], indexing="ij")
    WW = np.outer(weights[0], weights[1])
    Lx, Ly = np.meshgrid(Lprod[0], Lprod[1], indexing="ij")
    Dx, Dy = np.meshgrid(dens[0], dens[1], indexing="ij")
    bx, by = float(b[0]), float(b[1])
    wexp = WW * np.exp(-(bx * X + by * Y))
    F = float(np.sum(wexp))
    lin0 = canonical_linear(dim, rows, b)
    out = []
    for t in ts:
        coef = {k: (1 - t) * coef0.get(k, 0.0) + t * coef1.get(k, 0.0)
                for k in set(coef0) | set(coef1)}
        s = poly_eval(coef, X, Y)
        dens2 = (Dx + s["xx"] * Lx) * (Dy + s["yy"] * Ly) - s["xy"] ** 2 * Lx * Ly
        expo = s["s"] - X * s["x"] - Y * s["y"] - (betas[0] * X + betas[1] * Y)
        d1 = float(np.sum(WW * dens2 * np.exp(expo)))
        linear = lin0 + float(np.sum(wexp * s["s"])) / F
        out.append((d1, linear - math.log(d1)))
    return out


# ---------------------------------------------------------------------------
# geodesic properties

def check_convex(values) -> list[Check]:
    """Second differences along a uniform scan are >= -1e-6."""
    v = np.asarray(values, dtype=float)
    second = v[:-2] - 2.0 * v[1:-1] + v[2:]
    return [Check("convexity", "prop", float(max(0.0, -np.min(second))), 1e-6)]


def check_flat(values) -> list[Check]:
    """D is constant along an affine pair, to 1e-6 relative."""
    v = np.asarray(values, dtype=float)
    spread = float(np.max(v) - np.min(v)) / max(1.0, abs(float(v[0])))
    return [Check("flatness", "rel", spread, 1e-6)]


def check_minimum_at_end(values) -> list[Check]:
    """A scan ending at a solution is smallest at its end."""
    v = np.asarray(values, dtype=float)
    return [Check("solution minimizes D", "prop",
                  float(max(0.0, v[-1] - np.min(v))), 1e-9)]


# ---------------------------------------------------------------------------
# discrete layer: brute-force lattice quotients and combinatorics

def vertex_group(scaled_normals) -> tuple[int, ...]:
    """Invariant factors of Z^n / <m_i n_i> by enumerating cosets (n <= 2).

    Every coset has a representative in [0, |det|)^n; two points lie in one
    coset when their coordinates in the generator basis differ by integers.
    The group exponent is the largest element order; in rank 2 that fixes
    the invariant factors as (|G| / e, e).
    """
    M = [[Fraction(c) for c in row] for row in scaled_normals]
    n = len(M)
    if n == 1:
        det = M[0][0]
        inv = [[1 / det]]
    else:
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        inv = [[M[1][1] / det, -M[0][1] / det], [-M[1][0] / det, M[0][0] / det]]
    size = abs(int(det))
    cosets = set()
    orders = []
    for p in itertools.product(range(size), repeat=n):
        # coordinates c with p = c M (rows of M generate the lattice)
        c = tuple(sum(p[i] * inv[i][j] for i in range(n)) % 1 for j in range(n))
        if c in cosets:
            continue
        cosets.add(c)
        orders.append(math.lcm(*(x.denominator for x in c)))
    if len(cosets) != size:
        raise AssertionError("coset count disagrees with |det|")
    exponent = max(orders)
    factors = (size // exponent, exponent) if n == 2 else (exponent,)
    return tuple(f for f in factors if f > 1)


def check_vertices(dim, rows, vertices) -> list[Check]:
    """vertices: {point (Fractions): active facet indices}."""
    bad = dict(vertices) != polygon_vertices(dim, rows)
    return [Check("vertices", "prop", float(bad), 0.0)]


def check_groups(dim, rows, groups) -> list[Check]:
    """groups: {vertex point: invariant factors}."""
    bad = 0
    for point, active in polygon_vertices(dim, rows).items():
        scaled = [[rows[i][1] * c for c in rows[i][0]] for i in active]
        bad += tuple(groups.get(point, ("missing",))) != vertex_group(scaled)
    return [Check("structure groups", "prop", float(bad), 0.0)]


def check_fan(dim, rows, cones) -> list[Check]:
    """cones: facet-index tuples, one per face; the whole polyhedron is ()."""
    faces = {()}
    for active in polygon_vertices(dim, rows).values():
        for r in range(1, len(active) + 1):
            faces.update(itertools.combinations(active, r))
    bad = sorted(tuple(c) for c in cones) != sorted(faces)
    return [Check("normal fan", "prop", float(bad), 0.0)]


def check_delzant(dim, rows, projection, kernel) -> list[Check]:
    """Rows m_i n_i, and a saturated integer basis of their relations."""
    scaled = [tuple(label * c for c in normal) for normal, label, _ in rows]
    bad = [tuple(r) for r in projection] != scaled
    bad += len(kernel) != len(rows) - dim
    for k in kernel:
        bad += any(sum(k[i] * scaled[i][d] for i in range(len(rows)))
                   for d in range(dim))
    if kernel and not bad:
        r = len(kernel)
        minors = [
            abs(int(_det([[Fraction(kernel[i][j]) for j in cols] for i in range(r)])))
            for cols in itertools.combinations(range(len(rows)), r)
        ]
        bad += math.gcd(*minors) != 1
    return [Check("delzant data", "prop", float(bad), 0.0)]


def _det(A) -> Fraction:
    A = [row[:] for row in A]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return det
