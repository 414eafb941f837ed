"""Ding functional on symplectic potentials and its geodesic convexity.

For a convex potential v on P the dual volume

    d1(v) = int_P e^{v - <grad v, x>} det(Hess v) dx

is the pushforward of e^{-phi} under y = grad v, phi the Legendre dual. The
Ding functional normalizes the potential integral by the soliton mass:

    D(v) = (1/F(b_X)) int_P v e^{-<b_X,x>} dx - log d1(v).

With this normalization a constant shift of v cancels exactly between the two
terms, and at b = b_X linear tilts leave both terms unchanged, so D descends
to potentials modulo affine functions. Along linear interpolations of
symplectic potentials D is convex; the scan here samples it.

ding and convexity_scan take canonical or corrected potentials u_P + s,
and every DingValue carries its dual volume d1. Both share one quadrature
over d1's plan, cut inside the correction grid:
F(b_X) and the potential integral are taken over the same region, a scan
checks what the cut drops, integrated exactly over the pieces past it (an
estimate of d1's tail, the share of F(b_X) and a bound on the canonical
potential integral), and each integral is one array:
  - d1 on one node set stacked over all refined simplices. Its integrand
    e^{-R_0}, R_0 the soliton residual at b = 0 in shrinker's
    boundary-stable form, is e^{-R_P} e^{-g} D: R_P is u_P's part, fixed at
    the nodes once, g = <grad s, x> - s, and D = det Hess(u_P + s) prod L_i
    is the boundary-stable density, a quadratic form in Hess s whose
    coefficients are also fixed at the nodes once;
  - the correction's potential integral as <C, M>: it is linear in the
    correction's Chebyshev coefficients C, and M is a moment tensor of the
    weight, built once;
  - the canonical potential integral as one 1D rule per facet in L_k, with
    slices in closed form and a Gauss rule for -log u at the facet.
None of this depends on a correction's values, only on its Chebyshev
domain and coefficient shape (its basis), so the quadrature is held per
(P, tol, b_X, basis) and built on the first call with that key
(_quadrature), together with the basis's Vandermonde matrices at the d1
nodes. A call samples each endpoint by contracting its coefficient stack
against them, and runs every check afresh. Sampling is the one endpoint
check: a scan's corrected endpoints share one basis, their nodes may differ.
The weight is taken as e^{-<b_X,x>-c}, c the largest -<b_X,x> on P; e^{-c}
cancels in D. Along v_t = (1-t) v_0 + t v_1, g and <C, M> are affine in t
and D is a polynomial of degree n <= 2 in t, so a scan samples each
endpoint once and D at t = 1/2, and takes its t values as (t, node) array
passes over the m d1 nodes, max(1, _SCAN_NODES // m) t values at a time.
The numerics cover dimensions 1 and 2.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .polyhedra import LabeledPolyhedron
from .potentials import _density_at, _density_form, correction_of
from .quadrature import _line_rules, _weight_skeleton, gauss_rules, \
    plan as build_plan, stable_sum
from .shrinker import _canonical_part, _nonconvex, find_soliton_vector


class DivergentD1(ValueError):
    """The dual volume is not finite, or its truncation tail estimate exceeds tol."""


class NotInE(ValueError):
    """The potential integral against the soliton weight is not evaluable."""


@dataclass(frozen=True)
class DingValue:
    """One sample of the Ding functional: D = linear part minus log d1."""

    t: float
    d1: float
    value: float


# ---------------------------------------------------------------------------
# regions

_ORDER = 25            # Gauss order on the refined simplices of both integrals
_CHUNK = 32            # refined simplices per moment pass: bounds the nodes held at once
_CANONICAL_ORDER = 20  # order of both Gauss rules on the l-pieces of the canonical term
_PIECES = 4096         # _refined stops halving at this many pieces
_HELD_NODES = _PIECES * _ORDER ** 2  # d1 nodes held over all keys: one 2D quadrature at the cap
_HELD_KEYS = 64        # quadratures held, each with its refinements and M
_SCAN_NODES = _CHUNK * _ORDER ** 2  # d1 nodes per t block of a scan: bounds its (t, node) arrays


def _beta(P: LabeledPolyhedron) -> np.ndarray:
    # e^{-<grad u_P, x> + u_P} decays like e^{-<beta, x>} with this beta
    return 0.5 * np.sum(P.scaled_normal_matrix(), axis=0)


def _fitted_plan(P, beta, correction, tol, b_X):
    """(plan, tail, dropped, spill, F, c): the Ding plan for e^{-<beta,x>} and
    what its cut drops.

    Past a cut, P is conv(crossings) + rec(P) (QuadraturePlan.past), so each
    of these is an exact integral there:
      - tail, an estimate of int (1 + |x| + |x|^2) e^{-<beta,x>}: F + sqrt(F
        tr m2) + tr m2 from the moments of e^{-<beta,x>}, |x| bounded by
        Cauchy-Schwarz;
      - dropped, the share of F(b_X) past the cut;
      - spill, a bound on the canonical potential integral past the cut
        relative to F: |l log l| <= l^2 + 1/e for l >= 0, so it is
        (1/2) sum_k int (L_k^2 + 1/e) e^{-<b_X,x>-c} / F, from the F, m1 and
        m2 of that weight; taken once dropped <= tol, inf before.
    F is the integral of e^{-<b_X,x>-c} over the plan and c the largest
    -<b_X,x> on P. Bounded P is not cut, and all three are 0.

    Unbounded P is cut where it first leaves the correction's grid box, on
    an unbounded edge v + tau r (P is its vertices' hull plus its recession
    cone), or, for the canonical potential, at the first rung of T *= 1.3
    where tail, dropped and spill all meet tol.
    """
    g = _weight_skeleton(P, beta)
    _weight_skeleton(P, b_X)  # e^{-<b_X,x>} is integrable on P
    c = float(np.max(-(g.verts @ b_X)))  # -<b_X,x> peaks at a vertex

    def cut(T):  # the plan cut at T, with tail, dropped, spill and F
        pl = build_plan(P, beta, truncation=T)
        F = replace(pl, b=b_X).exp_integral(c)
        if not pl.beyond:  # bounded P is not cut
            return pl, 0.0, 0.0, 0.0, F
        past = pl.past()
        G, _, m2 = past.moments()
        tail = float(G + math.sqrt(G * np.trace(m2)) + np.trace(m2))
        past = replace(past, b=b_X)
        gone = past.exp_integral(c)
        dropped, spill = gone / (F + gone), math.inf
        if dropped <= tol:  # m2 of a weight slow enough to fail may overflow
            G, m1, m2 = past.moments(c)
            W, a = P.scaled_normal_matrix(), P.offsets_array()
            spill = float(np.sum(W.T @ W * m2) + 2.0 * a @ (W @ m1)
                          + (a @ a + len(a) / math.e) * G) / (2.0 * F)
        return pl, tail, dropped, spill, F

    if P.is_bounded():
        return (*cut(None), c)
    if correction is None:
        T = max(1.0, float(np.max(g.verts @ beta)) + P.dim + 2.0)
        for _ in range(200):
            pl, tail, dropped, spill, F = cut(T)
            if max(tail, dropped, spill) <= tol:
                return pl, tail, dropped, spill, F, c
            T *= 1.3
        raise (DivergentD1 if tail > tol else NotInE)(
            "truncation ladder failed to reach tolerance within 200 steps of T *= 1.3")
    lo, hi = np.array(correction.domain).T
    levels = []
    for v, r in g.edges:
        moving = r != 0
        tau = np.min((np.where(r > 0, hi, lo) - v)[moving] / r[moving])
        levels.append(float((v + tau * r) @ beta))
    T = min(levels) * (1.0 - 1e-12) - 1e-12
    try:
        return (*cut(T), c)
    except ValueError as err:
        raise DivergentD1(f"correction grid too small for a usable truncation: {err}") from err


def _refined(V, vol, weight):
    """Halve simplices until the exponent of e^{-<weight,x>} moves by at most 3
    along every edge.

    Takes and returns a vertex stack (S, n+1, n) with its volumes, and counts
    the pieces the cap leaves changing it by more than 3. A half has half its
    parent's volume. Each round halves every simplex at the midpoint of its
    first edge (i, j), i < j in row-major order, of largest change
    |<weight, v_i - v_j>|, while that change exceeds 3, until _PIECES pieces
    exist. Only the change matters: the weight is constant across it, so a
    simplex long in that direction needs no splitting. In 1D the change is
    |weight| times the length.
    """
    w = np.asarray(weight, dtype=float)
    k = V.shape[1]
    done_V, done_vol = [], []
    while len(V):
        p = V @ w
        change = np.abs(p[:, :, None] - p[:, None, :]).reshape(len(V), -1)
        e = np.argmax(change, axis=1)
        split = np.flatnonzero(change[np.arange(len(V)), e] > 3.0)
        split = split[:max(0, _PIECES - sum(map(len, done_V)) - len(V))]  # pieces cap
        keep = np.ones(len(V), dtype=bool)
        keep[split] = False
        done_V.append(V[keep])
        done_vol.append(vol[keep])
        rows = np.arange(len(split))
        i, j = np.unravel_index(e[split], (k, k))
        halves = np.stack([V[split], V[split]])
        halves[0, rows, i] = halves[1, rows, j] = 0.5 * (V[split, i] + V[split, j])
        V, vol = halves.reshape(-1, *V.shape[1:]), np.tile(0.5 * vol[split], 2)
    V = np.concatenate(done_V)
    return V, np.concatenate(done_vol), int(np.sum(np.ptp(V @ w, axis=1) > 3.0))


# ---------------------------------------------------------------------------
# the canonical part of the potential integral

def _canonical_linear(P: LabeledPolyhedron, b, ring, c):
    """(facet k, term) per node of one 1D rule per facet in l = L_k for the
    integral over the ring of u_P e^{-<b,x>-c} dx, c at least -<b,x> on it.

    Pieces run between a facet's corner levels, the lowest 0, split until
    t = -<b,x> - c moves by at most 3 across one (_refined's rule). The
    slices L_k = l of a piece end on the same two ring edges, so length and t
    at the ends are affine in l: e^t integrates along a slice as length
    e^{t_max} (1 - e^{-delta}) / delta, delta = t_max - t_min, and dx =
    dl ds / |w_k|. Gauss-Legendre takes (1/2) l log l times the slice, but at
    the facet int_0^h l log l f = h^2 [log h int_0^1 u f(hu) - int_0^1 (-log u) u f(hu)].
    """
    (u, g), (v, gamma) = _line_rules(_CANONICAL_ORDER)
    W = P.scaled_normal_matrix()
    F = W @ ring.T + P.offsets_array()[:, None]  # corner levels (facets, corners)
    Y = np.stack([np.broadcast_to(-(ring @ b) - c, F.shape),  # t, and the position
                  W[:, ::-1] * [-1.0, 1.0] @ ring.T if P.dim == 2 else F])  # along L_k = l
    i0, i1 = np.arange(len(ring)), np.roll(np.arange(len(ring)), -1)  # the ring's edges
    f0, f1 = F[:, i0], F[:, i1]
    dY = (Y[:, :, i1] - Y[:, :, i0]) / np.where(f0 == f1, np.inf, f1 - f0)  # per unit l
    cuts = np.sort(F, axis=1)
    k, j = np.nonzero(cuts[:, 1:] > cuts[:, :-1])  # the pieces, facet by facet
    lo, hi = cuts[k, j], cuts[k, j + 1]
    spans = (np.minimum(f0, f1)[k] <= lo[:, None]) & (hi[:, None] <= np.maximum(f0, f1)[k])
    # the edges where L_k rises and falls along the ring: in 1D the segment both ways
    ea, ez = (np.argmax(spans & side[k], axis=1) for side in (f1 > f0, f1 < f0))
    steep = np.maximum(np.abs(dY[0, k, ea]), np.abs(dY[0, k, ez]))
    count = np.maximum(1, np.ceil((hi - lo) * steep / 3.0)).astype(int)
    sub = np.repeat(np.arange(len(lo)), count)
    rank = np.arange(len(sub)) - np.repeat(np.cumsum(count) - count, count)
    h = ((hi - lo) / count)[sub, None]
    x = lo[sub, None] + rank[:, None] * h + h * u
    at_facet = (rank == 0) & (lo[sub] == cuts[k[sub], 0])
    ell = np.concatenate([x.ravel(), (h[at_facet] * v).ravel()])
    weight = np.concatenate([(h * g * x * np.log(np.where(at_facet[:, None], h, x))).ravel(),
                             (-h[at_facet] ** 2 * gamma * v).ravel()])
    kk, a, z = (np.repeat(y[np.concatenate([sub, sub[at_facet]])], _CANONICAL_ORDER)
                for y in (k, ea, ez))
    def at(e):  # t and the position along L_k = l on edges e, from their nearer corner
        near = np.where(np.abs(ell - f0[kk, e]) <= np.abs(ell - f1[kk, e]), i0[e], i1[e])
        return Y[:, kk, near] + (ell - F[kk, near]) * dY[:, kk, e]
    (ta, sa), (tz, sz) = at(a), at(z)
    delta = np.maximum(np.abs(tz - ta), 1e-300)  # (1 - e^-delta) / delta is 1 at 0
    slices = np.exp(np.maximum(ta, tz)) * -np.expm1(-delta) / delta
    norm = np.linalg.norm(W, axis=1)[kk]
    return kk, 0.5 * weight * slices * (np.abs(sz - sa) / norm if P.dim == 2 else 1.0) / norm


# ---------------------------------------------------------------------------
# one quadrature for ding and the scan

class _DingQuadrature:
    """Both Ding integrals as three arrays over d1's plan (_fitted_plan), fixed once.

    Nothing here depends on a correction's values, only on its basis
    (GridCorrection.basis), so one quadrature serves every call on the
    key (P, tol, b_X, basis), and _quadrature holds it; every array it
    holds is read-only. The per-call part is sample and scan.

    d1 is one Gauss rule (X, W) stacked over the plan's simplices refined
    for e^{-<beta,x>}, q nodes each. The canonical factor of its integrand
    is folded in once, as base = W e^{-R_P}, and so is the density's
    quadratic form in Hess s (_density_form) at the nodes' facet values,
    and the basis's Vandermonde matrices at X (vander); a correction is
    sampled by one jet through them, as g = <grad s, x> - s and Hess s.
    The integrand at a node is base e^{-g} D, D the density; each
    simplex's q terms are summed, then the simplex sums fsum'd.

    F(b_X) and the potential integral are taken over the same plan against
    e^{-<b_X,x>-c}, with F and c from _fitted_plan:
    e^{-c} cancels between them and keeps both in the float range. The
    canonical part is one 1D rule per facet (_canonical_linear), the
    correction part <C, M>, C the correction's Chebyshev coefficients and M
    the moment tensor of the order-25 rules on the plan's simplices refined
    for e^{-<b_X,x>}, built with one moment pass per chunk of _CHUNK
    simplices (linear_rules). scan raises, on every call, when dropped,
    spill or tail relative to d1 (see _fitted_plan) exceeds tol, so a
    quadrature on a short grid can still be built and held; unresolved
    sums _refined's counts of both refinements.
    """

    def __init__(self, P: LabeledPolyhedron, grid, tol: float, b_X):
        if np.any(P.offsets_array() <= 0.0):
            raise DivergentD1("a facet offset <= 0 makes the dual volume diverge")
        self.tol = tol
        self.basis = None if grid is None else grid.basis
        self.b = np.array(b_X, dtype=float)
        beta = _beta(P)
        self.plan, self.tail, self.dropped, self.spill, self.F, self.shift = _fitted_plan(
            P, beta, grid, tol, self.b)
        V, vol, self.unresolved = _refined(self.plan.simplices, self.plan.volumes, beta)
        self.X, W = gauss_rules(V, vol, _ORDER)
        L, R_P = _canonical_part(P, np.zeros(P.dim), self.X)
        self.form = _density_form(P, L)
        self.base = W * np.exp(-R_P)
        self.q = _ORDER ** P.dim
        self.vander = () if grid is None else tuple(grid.vander(self.X))
        self.canonical = stable_sum(_canonical_linear(P, self.b, self.plan.ring, self.shift)[1])
        self.linear_simplices = _refined(self.plan.simplices, self.plan.volumes, self.b)
        self.unresolved += self.linear_simplices[2]
        self.moments = None if grid is None else sum(
            grid.moments(X, W) for X, W in self.linear_rules())
        for a in (self.X, self.base, *self.form, *self.vander, self.b, *self.linear_simplices[:2],
                  self.plan.ring, self.plan.simplices, self.plan.volumes, self.moments):
            if a is not None:  # no moments without a grid
                a.flags.writeable = False

    def linear_rules(self):
        """The potential integral's rules, _CHUNK refined simplices at a time.

        Each is (X, W) stacked over its chunk, with the weight
        e^{-<b_X,x>-c} folded into W.
        """
        V, vol, _ = self.linear_simplices
        for s in range(0, len(V), _CHUNK):
            X, W = gauss_rules(V[s:s + _CHUNK], vol[s:s + _CHUNK], _ORDER)
            yield X, W * np.exp(-(X @ self.b) - self.shift)

    def sample(self, correction):
        """(g, Hess s, <C, M>) of a correction: g = <grad s, x> - s at the d1 nodes.

        A canonical endpoint (None) samples as zeros, with no jet and
        <C, M> = 0; a correction contracts its coefficient stack against the
        held vander, and must have the basis the quadrature was built for.
        """
        m, n = self.X.shape
        if correction is None:
            return np.zeros(m), np.zeros((m, n, n)), 0.0
        if correction.basis != self.basis:
            raise ValueError(f"correction's grid basis (domain, coefficient shape) "
                             f"{correction.basis} differs from the quadrature's {self.basis}")
        s, G, H = correction.jet(self.X, self.vander)
        return np.einsum("mi,mi->m", G, self.X) - s, H, correction.pair(self.moments)

    def scan(self, sample0, sample1, ts):
        """DingValues at each t along the blend of two samples.

        g and <C, M> blend linearly; the density, quadratic in the Hessian,
        is D(t) = (1-t)^2 D_0 + 2t(1-t) D_m + t^2 D_1 with
        D_m = 2 D(1/2) - (D_0 + D_1)/2, exact in dimensions 1 and 2.

        D(t), g(t) and the terms base e^{-g(t)} D(t) are (t, node) arrays,
        one row per t, over as many t at once as keep a block within
        _SCAN_NODES nodes, and at least one. Each row takes the one-t
        formulas and sums in their order, so it is bitwise the scan of its t
        alone. The checks run in t order: the linear part finite, D > 0, d1
        finite and positive, and d1's tail estimate within tol relative to
        d1. The first failure raises, and no later t of its block warns
        before it.
        """
        if self.dropped > self.tol:
            raise NotInE(f"correction grid too small for the soliton weight: the cut "
                         f"drops {self.dropped:.3g} of F(b_X), above tolerance {self.tol:g}")
        if self.spill > self.tol:
            raise NotInE(f"correction grid too small for the potential integral: past the "
                         f"cut it may reach {self.spill:.3g} of F(b_X), above tolerance "
                         f"{self.tol:g}")
        (g0, H0, lin0), (g1, H1, lin1) = sample0, sample1
        D0 = _density_at(self.form, H0)
        D1 = _density_at(self.form, H1)
        Dm = 2.0 * _density_at(self.form, 0.5 * (H0 + H1)) - 0.5 * (D0 + D1)
        out = []
        step = max(1, _SCAN_NODES // len(self.X))
        for s in range(0, len(ts), step):
            block = ts[s:s + step]
            # D's weights as each t's own scalars: a scalar (1-t)**2 is a pow,
            # which may round otherwise than an array's square
            w0, wm, w1 = np.array([((1.0 - t) ** 2, 2.0 * t * (1.0 - t), t * t)
                                   for t in block]).T[..., None]
            tc = np.array(block, dtype=float)[:, None]
            # a t past the first failing one may overflow here; the checks
            # below raise at the failing t first
            with np.errstate(over="ignore", invalid="ignore"):
                D = w0 * D0 + wm * Dm + w1 * D1
                terms = (1.0 - tc) * g0  # base e^{-g} D, in place
                terms += tc * g1
                np.exp(np.negative(terms, out=terms), out=terms)
                terms *= self.base
                terms *= D
                sums = terms.reshape(len(block), -1, self.q).sum(axis=2)
            bent = (D <= 0.0).any(axis=1)
            for i, t in enumerate(block):
                linear = (self.canonical + ((1.0 - t) * lin0 + t * lin1)) / self.F
                if not math.isfinite(linear):
                    raise NotInE("potential integral against the soliton weight is not finite")
                if bent[i]:
                    raise _nonconvex(self.X, D[i])
                dual = stable_sum(sums[i])
                if not (math.isfinite(dual) and dual > 0.0):
                    raise DivergentD1(f"dual volume evaluated to {dual} at t = {t}")
                if self.tail / dual > self.tol:
                    raise DivergentD1(
                        f"truncation tail estimate {self.tail:.3e} exceeds "
                        f"tolerance {self.tol:g} relative to d1 = {dual:.6g} at t = {t}"
                    )
                out.append(DingValue(t=float(t), d1=float(dual),
                                     value=float(linear - math.log(dual))))
        return out


class _Held:
    """The _DingQuadrature of each key (P, tol, b_X, grid basis), built on
    first use and held while the d1 nodes of all held keys stay within
    _HELD_NODES and the keys within _HELD_KEYS, the least recently used
    dropped first. A construction that raises holds nothing, so it raises
    again on the next call.
    """

    def __init__(self):
        self.entries = OrderedDict()

    @property
    def nodes(self) -> int:
        return sum(len(q.X) for q in self.entries.values())

    def __call__(self, P: LabeledPolyhedron, grid, tol: float, b_X) -> _DingQuadrature:
        key = (P, float(tol), tuple(map(float, b_X)), None if grid is None else grid.basis)
        q = self.entries.pop(key, None)
        if q is not None:  # a hit moves to the end and leaves the totals as they are
            self.entries[key] = q
            return q
        q = self.entries[key] = _DingQuadrature(P, grid, tol, b_X)
        while len(self.entries) > _HELD_KEYS or self.nodes > _HELD_NODES:
            self.entries.popitem(last=False)
        return q

    def cache_clear(self):
        self.entries.clear()


_quadrature = _Held()


def _corrections(P: LabeledPolyhedron, *potentials):
    """Corrections of canonical or corrected potentials on P; None if canonical."""
    if P.dim > 2:
        raise ValueError("Ding numerics are implemented in dimensions 1 and 2")
    corrections = [correction_of(v) for v in potentials]
    if any(v.polyhedron != P for v in potentials):
        raise ValueError("potential belongs to a different polyhedron")
    return corrections


# ---------------------------------------------------------------------------
# the Ding functional

def ding(v, P: LabeledPolyhedron, b_X=None, tol: float = 1e-8) -> DingValue:
    """D(v) = (1/F(b_X)) int_P v e^{-<b_X,x>} dx - log d1(v), tagged t = 0.

    v is a canonical or corrected potential on P, and the value's d1 is its
    dual volume. b_X defaults to the soliton vector of P; only there is D
    invariant under affine changes of v. On unbounded P both integrals are
    taken over d1's cut, and NotInE is raised when the cut drops more than
    tol of F(b_X), or when the bound on the canonical potential integral
    past it exceeds tol of F; DivergentD1 when d1's tail estimate exceeds
    tol of d1. The potential is assumed strictly convex with surjective
    gradient; see check_space_E. Dimensions 1 and 2 only.
    """
    (corr,) = _corrections(P, v)
    if b_X is None:
        b_X = find_soliton_vector(P).b
    q = _quadrature(P, corr, tol, b_X)
    sample = q.sample(corr)
    return q.scan(sample, sample, [0.0])[0]


def convexity_scan(v0, v1, P: LabeledPolyhedron, b_X=None, num_t: int = 9,
                   tol: float = 1e-8) -> list[DingValue]:
    """Sample D along the geodesic from v0 to v1 at num_t uniform t values.

    Every sample is the quadrature that ding uses, taken at the blend of
    the endpoints' samples, so differences across t are free of regridding
    noise and the endpoints equal ding of v0 and v1 whenever both carry a
    correction. Corrected endpoints must share a grid basis, and blend as
    Chebyshev coefficients. Dimensions 1 and 2 only.
    """
    c0, c1 = _corrections(P, v0, v1)
    if num_t < 2:
        raise ValueError("a scan needs at least two sample points")
    if b_X is None:
        b_X = find_soliton_vector(P).b
    q = _quadrature(P, c1 if c0 is None else c0, tol, b_X)
    return q.scan(q.sample(c0), q.sample(c1), np.linspace(0.0, 1.0, num_t))


def second_differences(scan) -> np.ndarray:
    """Undivided central second differences of D over a uniform scan."""
    vals = np.array([s.value for s in scan])
    if len(vals) < 3:
        return np.zeros(0)
    return vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
