"""Symplectic potentials on labeled polyhedra and their admissibility checks.

The canonical potential is u_P(x) = 1/2 sum_i L_i log L_i with
L_i = <x, m_i n_i> + a_i. Corrections s are polynomials stored on tensor
Chebyshev grids; u = u_P + s. Admissibility near the boundary is probed on
geometric ladders approaching each facet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev as C

from .polyhedra import LabeledPolyhedron
from .quadrature import DivergentWeight, _weight_skeleton


class OutOfDomain(ValueError):
    """Point outside the interior of the polyhedron."""


class NotConvexHere(ValueError):
    """The Hessian fails to be positive definite at the requested point."""


class NoConvergence(RuntimeError):
    """An iterative solve exhausted its iteration budget."""


def _as_batch(x, n):
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected points in R^{n}")
    return X, single


# ---------------------------------------------------------------------------
# canonical potential

class CanonicalPotential:
    """The boundary-adapted potential determined by the labeled facets.

    jet, the one evaluator, gives (u_P, grad u_P, Hess u_P) from the facet
    values L, built once with one domain check; value, gradient and hessian
    each return one entry of it.
    """

    def __init__(self, P: LabeledPolyhedron):
        self.polyhedron = P
        self._W = P.scaled_normal_matrix()  # rows m_i n_i
        self._a = P.offsets_array()

    def jet(self, x):
        X, single = _as_batch(x, self.polyhedron.dim)
        L = X @ self._W.T + self._a
        if np.any(L <= 0.0):
            raise OutOfDomain("point outside the interior of the polyhedron")
        log_L = np.log(L)
        v = 0.5 * np.sum(L * log_L, axis=1)
        G = 0.5 * (1.0 + log_L) @ self._W
        H = 0.5 * np.einsum("mi,ij,ik->mjk", 1.0 / L, self._W, self._W)
        if single:
            return float(v[0]), G[0], H[0]
        return v, G, H

    def value(self, x):
        return self.jet(x)[0]

    def gradient(self, x):
        return self.jet(x)[1]

    def hessian(self, x):
        return self.jet(x)[2]


# ---------------------------------------------------------------------------
# Chebyshev grids

def lobatto_nodes(lo: float, hi: float, count: int) -> np.ndarray:
    """Chebyshev-Lobatto points mapped to [lo, hi], ascending, from lo to hi.

    The ends are lo and hi exactly: lo + (hi - lo) can round one ulp short
    of hi (0.6666666666666665 on [-2, 2/3]) or past it.
    """
    if count < 2:
        raise ValueError("need at least two nodes")
    k = np.arange(count)
    t = -np.cos(np.pi * k / (count - 1))
    x = lo + (hi - lo) * (t + 1.0) / 2.0
    x[0], x[-1] = lo, hi
    return x


class GridCorrection:
    """Polynomial correction s sampled on a tensor product of node axes.

    The stored values determine the unique tensor interpolant. Its Chebyshev
    coefficients are fitted on first read (coefficients), not at
    construction, since solve's callers read only axes and values; basis
    and vander take the coefficient shape from the axes and fit nothing.
    from_dict fits at load, so axes that admit no fit are a parse error.
    The jet is one stacked tensor of coefficients, derived on first use: s,
    then the first partials, then the second partials (i, j), i <= j, each
    scaled to x and zero-padded to the shape of the value grid. jet is the
    one evaluator: it contracts the whole stack with one Vandermonde matrix
    per axis (vander), which depends on the points and the basis alone, so
    jet takes it back for every correction of that basis; value, gradient
    and hessian each return one entry of jet. A weighted sum of s over a
    rule is linear in the coefficients: moments gives the rule's tensor M
    once, and pair the sum <coefficients, M> for each s on the grid.
    Dimensions 1 and 2.
    """

    def __init__(self, axes, values):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        values = np.asarray(values, dtype=float)
        if len(axes) not in (1, 2):
            raise ValueError("grid corrections support dimensions 1 and 2")
        if values.shape != tuple(len(a) for a in axes):
            raise ValueError("value grid shape does not match axes")
        for a in axes:  # NaN fails diff > 0; an infinite node that passes is an end
            if len(a) < 2 or not np.all(np.diff(a) > 0):
                raise ValueError("axes must be strictly increasing with >= 2 nodes")
        self.axes = axes
        self.values = values
        self.domain = tuple((float(a[0]), float(a[-1])) for a in axes)
        if not (np.isfinite(self.domain).all() and np.isfinite(values).all()):
            raise ValueError(f"axis ends and values must be finite (domain {self.domain})")
        self._scale = np.array([2.0 / (hi - lo) for lo, hi in self.domain])

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(len(a) - 1 for a in self.axes)

    @property
    def basis(self):
        """(domain, coefficient shape), hashable: what fixes vander, moments
        and the meaning of the coefficients. The shape is the value grid's;
        the values do not enter, and nothing is fitted."""
        return self.domain, self.values.shape

    def _map(self, X):
        lo, hi = np.array(self.domain).T
        return (2.0 * X - (lo + hi)) / (hi - lo)

    @cached_property
    def coefficients(self):
        """The interpolant's Chebyshev coefficients, fitted on first read."""
        V = [C.chebvander((2.0 * a - (lo + hi)) / (hi - lo), len(a) - 1)
             for a, (lo, hi) in zip(self.axes, self.domain)]
        if self.dim == 1:
            return np.linalg.solve(V[0], self.values)
        return np.linalg.solve(V[0], np.linalg.solve(V[1], self.values.T).T)

    @cached_property
    def _stack(self):
        """Coefficients of s, its first partials and its second partials (i <= j).

        Shape (1 + n + n(n+1)/2, *grid shape), with a trailing unit axis in
        1D so that both dimensions contract the same way.
        """
        n, coef = self.dim, self.coefficients
        first = [C.chebder(coef, 1, axis=i) * self._scale[i] for i in range(n)]
        second = [C.chebder(first[i], 1, axis=j) * self._scale[j]
                  for i in range(n) for j in range(i, n)]
        stack = np.zeros((1 + len(first) + len(second),) + coef.shape)
        for k, c in enumerate([coef] + first + second):
            stack[(k,) + tuple(slice(0, m) for m in c.shape)] = c
        return stack[..., None] if n == 1 else stack

    def vander(self, X):
        """One Chebyshev Vandermonde matrix per axis at the points X (m, n)."""
        T = self._map(X)
        return [C.chebvander(T[:, d], k - 1) for d, k in enumerate(self.values.shape)]

    def moments(self, X, W):
        """M with sum_i W_i s(X_i) = <coefficients of s, M> for every s on this grid.

        The rule (X, W) enters only through M, whose shape is the coefficient
        grid's: a Vandermonde transpose times the weighted Vandermonde.
        """
        V = self.vander(X)
        return V[0].T @ W if self.dim == 1 else V[0].T @ (W[:, None] * V[1])

    def pair(self, M) -> float:
        """<coefficients of s, M>: the integral of s against the rule behind M."""
        return float(np.vdot(self.coefficients, M))

    def jet(self, x, vander=None):
        """(s, grad s, Hess s) at x: the whole stack contracted with one
        Vandermonde matrix per axis.

        vander, when given, is vander(x) of a correction with this basis,
        taken as it is instead of built again.
        """
        X, single = _as_batch(x, self.dim)
        V = self.vander(X) if vander is None else vander
        n, stack = self.dim, self._stack
        if n == 1:
            rows = (V[0] @ stack)[..., 0]
        else:
            # the stacked arrays side by side as (kx, count ky): one matrix
            # product, whose (m, count ky) result is the one temporary, then
            # a row-wise dot with V[1] per array
            count, kx, ky = stack.shape
            prod = V[0] @ stack.transpose(1, 0, 2).reshape(kx, count * ky)
            rows = np.einsum("mkb,mb->km", prod.reshape(len(X), count, ky), V[1])
        G = rows[1:1 + n].T
        H = np.empty((len(X), n, n))
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for (i, j), r in zip(pairs, rows[1 + n:]):
            H[:, i, j] = H[:, j, i] = r
        if single:
            return float(rows[0, 0]), G[0], H[0]
        return rows[0], G, H

    def value(self, x):
        return self.jet(x)[0]

    def gradient(self, x):
        return self.jet(x)[1]

    def hessian(self, x):
        return self.jet(x)[2]

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": "chebyshev-tensor",
            "axes": [list(map(float, a)) for a in self.axes],
            "values": self.values.tolist(),
            "orders": list(self.orders),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridCorrection":
        if not isinstance(d, dict):
            raise ValueError(f"a correction is a JSON object, not {type(d).__name__}")
        if d.get("kind") != "chebyshev-tensor":
            raise ValueError(f"unknown correction kind {d.get('kind')!r}")
        g = cls(tuple(np.array(a) for a in d["axes"]), np.array(d["values"]))
        if "orders" in d and tuple(d["orders"]) != g.orders:
            raise ValueError("stored orders disagree with axis lengths")
        g.coefficients  # fitted at load: axes that admit no interpolant fail here
        return g

    @classmethod
    def from_function(cls, f, domain, counts) -> "GridCorrection":
        axes = [lobatto_nodes(lo, hi, c) for (lo, hi), c in zip(domain, counts)]
        vals = [f(np.array(x)) for x in itertools.product(*axes)]
        return cls(axes, np.reshape(vals, tuple(counts)))


class CorrectedPotential:
    """u = u_P + s for a polynomial grid correction s."""

    def __init__(self, P: LabeledPolyhedron, correction: GridCorrection):
        if correction.dim != P.dim:
            raise ValueError("correction dimension does not match the polyhedron")
        self.polyhedron = P
        self.canonical = CanonicalPotential(P)
        self.correction = correction

    def value(self, x):
        return self.canonical.value(x) + self.correction.value(x)

    def gradient(self, x):
        return self.canonical.gradient(x) + self.correction.gradient(x)

    def hessian(self, x):
        return self.canonical.hessian(x) + self.correction.hessian(x)


def correction_of(u):
    """The correction part of a potential: None for the canonical one.

    ding and convexity_scan need a GridCorrection here; the boundary
    checks read only the correction's jet.
    """
    if isinstance(u, CanonicalPotential):
        return None
    corr = getattr(u, "correction", None)
    if corr is None:
        raise TypeError("expected a canonical potential or one with a .correction")
    return corr


# ---------------------------------------------------------------------------
# facet ladders and boundary conditions

def facet_ladder(P: LabeledPolyhedron, i: int):
    """Points approaching the interior of facet i, one row each: distances 10^-k
    for k = 1..6."""
    W = P.scaled_normal_matrix()
    a = P.offsets_array()
    xstar = P.facet_interior_point(i)
    d = W[i] / np.linalg.norm(W[i])
    margins = np.delete(W @ xstar + a, i)
    norms = np.delete(np.linalg.norm(W, axis=1), i)
    t0 = 1.0
    if len(margins):
        t0 = min(1.0, float(np.min(margins / (2.0 * norms))))
    return np.array([xstar + t0 * 10.0 ** (-k) * d for k in range(1, 7)])


def _differences_decay(q) -> bool:
    # a bounded limit shows differences shrinking; log or power growth keeps
    # them constant or growing along a geometric ladder
    d1 = abs(q[-1] - q[-2])
    d0 = abs(q[-2] - q[-3])
    return bool(d1 <= max(0.5 * d0, 1e-6 * (1.0 + abs(q[-1]))))


@dataclass(frozen=True)
class FacetBoundaryCheck:
    """The boundary probes on facet's ladder. The fields are the keys of a row
    of check-potential's boundary.checks; renaming one changes the artifact."""

    facet: int
    correction_bounded: bool
    gradient_bounded: bool
    density_bounded: bool
    density_value: float


@dataclass(frozen=True)
class BoundaryReport:
    """The probes on every facet and their verdicts. The fields are the keys of
    check-potential's boundary object; renaming one changes the artifact."""

    checks: tuple[FacetBoundaryCheck, ...]
    correction_ok: bool
    density_ok: bool

    @property
    def ok(self) -> bool:
        return self.correction_ok and self.density_ok


def _prod_except(L: np.ndarray, skip) -> np.ndarray:
    mask = np.ones(L.shape[1], dtype=bool)
    for i in skip:
        mask[i] = False
    return np.prod(L[:, mask], axis=1)


def _density_form(P: LabeledPolyhedron, L):
    """(A, B, Pi) with det(Hess(u_P + s)) prod_i L_i = A + <B, Hess s> + det(Hess s) Pi.

    The density is a quadratic form in Hess s whose coefficients depend only
    on the facet values L (m, N): A = det(Hess u_P) prod L, Pi = prod L, and
    B (m, n, n) the adjugate part, sum_k (1/2) prod_{i != k} L_i p_k p_k^T
    with p_k the facet normal m_k n_k turned by a right angle. No term
    divides by L. In 1D, B is zero and the form is A + Pi s''.
    """
    W = P.scaled_normal_matrix()
    N = len(P.facets)
    m = L.shape[0]
    A = np.zeros(m)
    B = np.zeros((m, P.dim, P.dim))
    if P.dim == 1:
        w = W[:, 0]
        for k in range(N):
            A += 0.5 * w[k] ** 2 * _prod_except(L, (k,))
    elif P.dim == 2:
        for j, k in itertools.combinations(range(N), 2):
            cross = W[j, 0] * W[k, 1] - W[j, 1] * W[k, 0]
            if cross != 0.0:
                A += 0.25 * cross**2 * _prod_except(L, (j, k))
        for k in range(N):
            p = np.array([-W[k, 1], W[k, 0]])
            B += 0.5 * _prod_except(L, (k,))[:, None, None] * np.outer(p, p)
    else:
        raise ValueError("stable density implemented for dimensions 1 and 2")
    return A, B, np.prod(L, axis=1)


def _density_at(form, s_hess):
    """The density A + <B, Hess s> + det(Hess s) Pi of a _density_form at the
    correction Hessians s_hess (m, n, n)."""
    A, B, Pi = form
    if s_hess.shape[-1] == 1:
        return A + s_hess[:, 0, 0] * Pi
    detS = s_hess[:, 0, 0] * s_hess[:, 1, 1] - s_hess[:, 0, 1] ** 2
    return A + np.einsum("mij,mij->m", B, s_hess) + detS * Pi


def check_boundary_conditions(P: LabeledPolyhedron, u) -> BoundaryReport:
    """Probe both admissibility conditions on ladders toward every facet.

    (i) the correction and its gradient stay bounded;
    (ii) det(Hess u) * prod_i L_i stays bounded and strictly positive.
    Each ladder takes one jet of the correction, whose Hessian enters the
    density through _density_form.
    """
    return _boundary_report(P, u, [facet_ladder(P, i) for i in range(len(P.facets))])


def _boundary_report(P: LabeledPolyhedron, u, ladders) -> BoundaryReport:
    """check_boundary_conditions on ladders already built, one per facet."""
    s = correction_of(u)
    W, a = P.scaled_normal_matrix(), P.offsets_array()
    checks = []
    for i, ladder in enumerate(ladders):
        corr_ok = grad_ok = True
        H = np.zeros((len(ladder), P.dim, P.dim))
        if s is not None:
            v, G, H = s.jet(ladder)
            corr_ok = _differences_decay(v)
            grad_ok = all(_differences_decay(G[:, c]) for c in range(P.dim))
        dens = _density_at(_density_form(P, ladder @ W.T + a), H)
        dens_ok = _differences_decay(dens) and bool(1e-8 <= dens[-1] <= 1e8)
        checks.append(FacetBoundaryCheck(facet=i, correction_bounded=corr_ok,
                                         gradient_bounded=grad_ok, density_bounded=dens_ok,
                                         density_value=float(dens[-1])))
    return BoundaryReport(
        checks=tuple(checks),
        correction_ok=all(c.correction_bounded and c.gradient_bounded for c in checks),
        density_ok=all(c.density_bounded for c in checks),
    )


# ---------------------------------------------------------------------------
# membership in the admissible space

@dataclass(frozen=True)
class EReport:
    """check_space_E's verdicts. The fields other than boundary, which is written
    whole beside it, are keys of check-potential's space object, with
    boundary_behaviour and note; renaming one changes the artifact."""

    hessian_positive: bool
    boundary: BoundaryReport
    gradient_surjective: bool
    integrable: bool
    note = ("sampled sufficient conditions at finitely many points; "
            "this is numerical evidence, not a certificate")

    @property
    def boundary_behaviour(self) -> bool:
        return self.boundary.ok

    @property
    def in_space(self) -> bool:
        return (
            self.hessian_positive
            and self.boundary_behaviour
            and self.gradient_surjective
            and self.integrable
        )


def check_space_E(P: LabeledPolyhedron, u, b, seed: int = 0) -> EReport:
    """Numerical membership test for the admissible potential space.

    Positive definiteness is sampled at 40 interior points by one stacked
    Cholesky factorization of their Hessians, which fails if any sample's
    does; properness of the gradient map is probed with one gradient call
    per facet ladder, on the ladders the boundary checks read, and per
    recession ray. u_P grows like |x| log |x| and a grid correction is a
    polynomial, so u e^{-<b,x>} is integrable exactly where the weight is,
    as quadrature._weight_skeleton decides.
    """
    rng = np.random.default_rng(seed)
    try:
        np.linalg.cholesky(u.hessian(P.sample_interior(rng, 40)))
        hess_ok = True
    except np.linalg.LinAlgError:
        hess_ok = False

    ladders = [facet_ladder(P, i) for i in range(len(P.facets))]
    boundary = _boundary_report(P, u, ladders)
    W = P.scaled_normal_matrix()
    grad_blows = True
    for i, ladder in enumerate(ladders):
        q = u.gradient(ladder) @ W[i] / np.linalg.norm(W[i])
        if not (q[-1] < q[-2] < q[-3] and (q[-2] - q[-1]) >= 0.8 * (q[-3] - q[-2])):
            grad_blows = False

    rays = P.recession_rays()
    ray_growth = True
    x0 = P.interior_point()
    s = correction_of(u)
    for r in rays:
        w = np.array(r, dtype=float)
        w /= np.linalg.norm(w)
        t_hi = 8.0
        if s is not None and getattr(s, "domain", None) is not None:
            # stay on the correction grid: polynomials extrapolate wildly
            for d, (lo, hi) in enumerate(s.domain):
                if w[d] > 1e-12:
                    t_hi = min(t_hi, (hi - x0[d]) / w[d])
                elif w[d] < -1e-12:
                    t_hi = min(t_hi, (lo - x0[d]) / w[d])
        h = u.gradient(np.array([x0 + tau * t_hi * w for tau in (0.25, 0.5, 1.0)])) @ w
        if not (h[2] > h[1] > h[0] and h[2] - h[0] >= 0.05):
            ray_growth = False

    try:
        _weight_skeleton(P, np.asarray(b, dtype=float))
        integrable = True
    except DivergentWeight:
        integrable = False

    return EReport(
        hessian_positive=hess_ok,
        boundary=boundary,
        gradient_surjective=grad_blows and ray_growth,
        integrable=integrable,
    )
