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

d1, ding and convexity_scan take canonical or corrected potentials u_P + s
and share one quadrature: both integrals are taken at Gauss nodes fixed
once, inside the correction grid, and the scan evaluates it at blends of the
endpoint node values. The d1 integrand is e^{-R_0}, where R_0 is the soliton
residual at b = 0, which shrinker evaluates boundary-stably. The numerics
cover dimensions 1 and 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .polyhedra import LabeledPolyhedron
from .potentials import CanonicalPotential, CorrectedPotential, GridCorrection, \
    correction_of
from .quadrature import DivergentWeight, Simplex, _clip, _fan, _ring, \
    gauss_integral_simplex, gauss_simplex_rule, plan as build_plan, stable_sum
from .shrinker import _correction_arrays, _residual_core, find_soliton_vector


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
_CANONICAL_ORDER = 20  # Gauss order on the slabs of the canonical potential integral


def _beta(P: LabeledPolyhedron) -> np.ndarray:
    # e^{-<grad u_P, x> + u_P} decays like e^{-<beta, x>} with this beta
    return 0.5 * np.sum(P.scaled_normal_matrix(), axis=0)


def _fitted_plan(P, w, correction, tol, exc):
    """Quadrature plan for weight e^{-<w,x>}, kept inside the correction grid."""
    w = np.asarray(w, dtype=float)
    if P.is_bounded() or correction is None:
        try:
            return build_plan(P, w, tol=tol)
        except RuntimeError as err:
            raise exc(str(err)) from err
    # T is the least level <w,x> at which P leaves the grid box: the minimum
    # over the corners of P cut by the box that lie on an open box face, one
    # that is not a facet hyperplane of P
    W, a = P.scaled_normal_matrix(), P.offsets_array()
    ring = _ring(np.array(list(itertools.product(*correction.domain)), dtype=float))
    for wk, ak in zip(W, a):
        ring = _clip(ring, wk, ak)
    aligned = np.count_nonzero(W, axis=1) == 1
    on_open = np.zeros(len(ring), dtype=bool)
    for d, ends in enumerate(correction.domain):
        for c in ends:
            gap = np.abs(W[:, d] * c + a)
            if not np.any(aligned & (W[:, d] != 0) & (gap <= 1e-9 * (1.0 + abs(c)))):
                on_open |= np.abs(ring[:, d] - c) <= 1e-12 * (1.0 + abs(c))
    if not np.any(on_open):
        raise exc("could not fit a truncation level inside the correction grid")
    T = float(np.min(ring[on_open] @ w)) * (1.0 - 1e-12) - 1e-12
    try:
        return build_plan(P, w, tol=tol, truncation=T)
    except DivergentWeight:
        raise
    except ValueError as err:
        raise exc(f"correction grid too small for a usable truncation: {err}") from err


def _refined(simplices, weight, pieces_cap: int = 4096):
    """Halve simplices at their longest edge until edges resolve e^{-<weight,x>}."""
    nw = float(np.linalg.norm(np.asarray(weight, dtype=float)))
    if nw == 0.0:
        return list(simplices)
    target2 = (3.0 / nw) ** 2
    out = []
    stack = list(simplices)
    while stack:
        S = stack.pop()
        pts = np.asarray(S.points, dtype=float)
        # the first longest edge (i, j), i < j, in row-major order
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        i, j = np.unravel_index(np.argmax(d2), d2.shape)
        if d2[i, j] <= target2 or len(out) + len(stack) >= pieces_cap:
            out.append(S)
            continue
        for k in (i, j):
            half = pts.copy()
            half[k] = 0.5 * (pts[i] + pts[j])
            stack.append(Simplex(tuple(map(tuple, half))))
    return out


# ---------------------------------------------------------------------------
# the canonical part of the potential integral

def _canonical_linear(P: LabeledPolyhedron, b, pl) -> float:
    """int_P u_P e^{-<b,x>} dx over the plan region.

    Each facet term L_k log L_k is integrated over geometric slabs
    2^{-m-1} R < L_k <= 2^{-m} R where it is smooth, so plain Gauss rules
    converge; each slab is the plan ring clipped twice. The leftover sliver
    at L_k <= 1e-8 R is below rounding.
    """
    b = np.asarray(b, dtype=float)
    ring = np.array(pl.ring)
    pieces = []
    for wk, ak in zip(P.scaled_normal_matrix(), P.offsets_array()):

        def term(X, wk=wk, ak=ak):
            L = X @ wk + ak
            return 0.5 * L * np.log(L) * np.exp(-(X @ b))

        R = float(np.max(ring @ wk + ak))
        hi = R
        floor = 1e-8 * R
        while hi > floor:
            lo = max(0.5 * hi, floor)
            slab = _clip(_clip(ring, wk, ak - lo), -wk, hi - ak)
            for S in _fan(slab):
                pieces.append(gauss_integral_simplex(S, term, order=_CANONICAL_ORDER))
            hi = lo if lo > floor else 0.0
    return stable_sum(pieces)


# ---------------------------------------------------------------------------
# one quadrature for d1, ding and the scan

class _DingQuadrature:
    """Gauss nodes and weights of both Ding integrals, fixed once.

    The dual volume uses the e^{-<beta,x>} plan; its integrand
    e^{v - <grad v, x>} det(Hess v) is e^{-R_0}, with R_0 the soliton residual
    at b = 0, evaluated boundary-stably by shrinker. The potential integral,
    when b_X is given, uses the e^{-<b_X,x>} plan with that weight folded
    into the Gauss weights and its canonical part computed once. On unbounded
    P both plans are cut inside the grid of the correction, so every
    correction on that grid is evaluated at the same nodes. Each refined
    simplex gets the one cached order-25 reference rule mapped onto it. A
    correction is sampled through its jet at the d1 nodes and its value at
    the potential-integral nodes: one Vandermonde matrix per axis and node
    set.
    """

    def __init__(self, P: LabeledPolyhedron, grid, tol: float, b_X=None):
        if np.any(P.offsets_array() <= 0.0):
            raise DivergentD1("a facet offset <= 0 makes the dual volume diverge")
        self.P = P
        self.tol = tol
        self.linear_rules = None
        if b_X is not None:
            b = np.asarray(b_X, dtype=float)
            pl = _fitted_plan(P, b, grid, tol, NotInE)
            self.F = pl.exp_integral()
            self.canonical = _canonical_linear(P, b, pl)
            rules = (gauss_simplex_rule(S, _ORDER) for S in _refined(pl.simplices, b))
            self.linear_rules = [(X, Wq * np.exp(-(X @ b))) for X, Wq in rules]
        beta = _beta(P)
        self.plan = _fitted_plan(P, beta, grid, tol, DivergentD1)
        self.dual_rules = [gauss_simplex_rule(S, _ORDER)
                           for S in _refined(self.plan.simplices, beta)]

    def sample(self, correction):
        """Correction arrays at the d1 nodes and values at the linear nodes."""
        dual = [_correction_arrays(correction, X, self.P.dim) for X, _ in self.dual_rules]
        if self.linear_rules is None:
            return dual, None
        values = [np.zeros(len(X)) if correction is None
                  else np.asarray(correction.value(X), dtype=float)
                  for X, _ in self.linear_rules]
        return dual, values

    def evaluate(self, samples, t=0.0):
        """d1, or the DingValue at t when b_X was given, of sampled corrections.

        The d1 tail estimate comes from the e^{-<beta,x>} plan.
        """
        dual_s, values = samples
        linear = None
        if values is not None:
            linear = (self.canonical + stable_sum(
                float(np.dot(wexp, s)) for (_, wexp), s in zip(self.linear_rules, values)
            )) / self.F
            if not math.isfinite(linear):
                raise NotInE("potential integral against the soliton weight is not finite")
        origin = np.zeros(self.P.dim)
        dual = stable_sum(
            float(np.dot(Wq, np.exp(-_residual_core(self.P, origin, X, *s))))
            for (X, Wq), s in zip(self.dual_rules, dual_s)
        )
        if not (math.isfinite(dual) and dual > 0.0):
            raise DivergentD1(f"dual volume evaluated to {dual} at t = {t}")
        tail = self.plan.tail_bound
        if tail / dual > self.tol:
            raise DivergentD1(
                f"truncation tail estimate {tail:.3e} exceeds "
                f"tolerance {self.tol:g} relative to d1 = {dual:.6g} at t = {t}"
            )
        if linear is None:
            return float(dual)
        return DingValue(t=float(t), d1=float(dual), value=float(linear - math.log(dual)))


def _corrections(P: LabeledPolyhedron, *potentials):
    """Corrections of canonical or corrected potentials on P; None if canonical."""
    if P.dim > 2:
        raise ValueError("Ding numerics are implemented in dimensions 1 and 2")
    corrections = [correction_of(v) for v in potentials]
    if any(v.polyhedron != P for v in potentials):
        raise ValueError("potential belongs to a different polyhedron")
    return corrections


# ---------------------------------------------------------------------------
# the dual volume and the Ding functional

def d1(v, P: LabeledPolyhedron, tol: float = 1e-8) -> float:
    """Dual volume of v: int_P e^{v - <grad v, x>} det(Hess v) dx.

    v is a canonical or corrected potential u_P + s on P. The integrand is
    e^{-R_0}, R_0 the boundary-stable soliton residual at b = 0, taken at
    fixed Gauss nodes. For unbounded P the region is cut inside the
    correction grid and the dropped tail, estimated through the
    e^{-<beta,x>} decay of the canonical factor, must stay below tol
    relative to the result. The potential is assumed strictly convex with
    surjective gradient; see check_space_E for a screening routine.
    Dimensions 1 and 2 only.
    """
    (corr,) = _corrections(P, v)
    q = _DingQuadrature(P, corr, tol)
    return q.evaluate(q.sample(corr))


def ding(v, P: LabeledPolyhedron, b_X=None, tol: float = 1e-8) -> DingValue:
    """D(v) = (1/F(b_X)) int_P v e^{-<b_X,x>} dx - log d1(v), tagged t = 0.

    v is a canonical or corrected potential on P. b_X defaults to the soliton
    vector of P; only there is D invariant under affine changes of v.
    Dimensions 1 and 2 only.
    """
    (corr,) = _corrections(P, v)
    if b_X is None:
        b_X = find_soliton_vector(P).b
    q = _DingQuadrature(P, corr, tol, b_X)
    return q.evaluate(q.sample(corr))


@dataclass(frozen=True)
class Geodesic:
    """Linear interpolation v_t = (1-t) v0 + t v1 of symplectic potentials.

    Both endpoints live on the same polyhedron; corrected endpoints must
    share grid axes so the blend is again a grid correction. Convexity of
    every v_t follows from convexity of the endpoints.
    """

    v0: object
    v1: object

    def __post_init__(self):
        P = self.v0.polyhedron
        if self.v1.polyhedron != P:
            raise ValueError("geodesic endpoints live on different polyhedra")
        c0 = correction_of(self.v0)
        c1 = correction_of(self.v1)
        if c0 is not None and c1 is not None:
            if len(c0.axes) != len(c1.axes) or not all(
                np.array_equal(a, b) for a, b in zip(c0.axes, c1.axes)
            ):
                raise ValueError("geodesic endpoints use different grids")

    @property
    def polyhedron(self) -> LabeledPolyhedron:
        return self.v0.polyhedron

    def corrections(self):
        """Endpoint corrections on a shared grid; (None, None) if canonical."""
        c0 = correction_of(self.v0)
        c1 = correction_of(self.v1)
        if c0 is None and c1 is None:
            return None, None
        if c0 is None:
            c0 = GridCorrection(c1.axes, np.zeros_like(c1.values))
        if c1 is None:
            c1 = GridCorrection(c0.axes, np.zeros_like(c0.values))
        return c0, c1

    def at(self, t: float):
        c0, c1 = self.corrections()
        if c0 is None:
            return CanonicalPotential(self.polyhedron)
        blend = GridCorrection(
            c0.axes, (1.0 - t) * c0.values + t * c1.values
        )
        return CorrectedPotential(self.polyhedron, blend)


def convexity_scan(v0, v1, P: LabeledPolyhedron, b_X=None, num_t: int = 9,
                   tol: float = 1e-8) -> list[DingValue]:
    """Sample D along the geodesic from v0 to v1 at num_t uniform t values.

    Every sample is one evaluation of the quadrature that ding uses, at the
    blend of the endpoint corrections' node values, so differences across t
    are free of regridding noise and the endpoints equal ding of v0 and v1
    whenever both carry a correction. Dimensions 1 and 2 only.
    """
    _corrections(P, v0, v1)
    if num_t < 2:
        raise ValueError("a scan needs at least two sample points")
    geo = Geodesic(v0, v1)
    if b_X is None:
        b_X = find_soliton_vector(P).b
    c0, c1 = geo.corrections()
    q = _DingQuadrature(P, c0, tol, b_X)
    (dual0, lin0), (dual1, lin1) = q.sample(c0), q.sample(c1)
    out = []
    for t in np.linspace(0.0, 1.0, num_t):
        dual = [tuple((1.0 - t) * a + t * b for a, b in zip(e0, e1))
                for e0, e1 in zip(dual0, dual1)]
        lin = [(1.0 - t) * s0 + t * s1 for s0, s1 in zip(lin0, lin1)]
        out.append(q.evaluate((dual, lin), t))
    return out


def second_differences(scan) -> np.ndarray:
    """Undivided central second differences of D over a uniform scan."""
    vals = np.array([s.value for s in scan])
    if len(vals) < 3:
        return np.zeros(0)
    return vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
