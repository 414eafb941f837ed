"""Ding functional: dual-volume oracles, gauge structure, geodesic convexity."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from toricshrink import ding as ding_module
from toricshrink.ding import (
    DingValue,
    DivergentD1,
    NotInE,
    _DingQuadrature,
    _canonical_linear,
    _quadrature,
    _refined,
    convexity_scan,
    ding,
    second_differences,
)
from toricshrink.polyhedra import box, from_halfspaces, half_line, interval
from toricshrink.potentials import (
    CanonicalPotential,
    CorrectedPotential,
    GridCorrection,
    NotConvexHere,
    correction_of,
)
from toricshrink.quadrature import Simplex, _dd_exp_batch, _line_rules, _reference_rule, \
    gauss_rules, gauss_simplex_rule, plan as build_plan, stable_sum
from toricshrink.shrinker import find_soliton_vector, residual, solve

TEARDROP = interval(-2, "2/3", 1, 3)


def pentagon():
    return from_halfspaces(
        2,
        [
            ((1, 0), 1, 2),
            ((0, 1), 1, 2),
            ((-1, 0), 1, 2),
            ((0, -1), 1, 2),
            ((-1, -1), 1, 3),
        ],
    )


def bump_values(axes, width=1.0 / 3.0):
    """Tensor bump supported on the middle third of the grid box."""
    vals = np.ones(tuple(len(a) for a in axes))
    for d, a in enumerate(axes):
        lo, hi = a[0], a[-1]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo) * width
        xi = (a - mid) / half
        g = np.where(np.abs(xi) < 1.0, np.exp(-1.0 / np.maximum(1.0 - xi**2, 1e-12)), 0.0)
        shape = [1] * len(axes)
        shape[d] = len(a)
        vals = vals * g.reshape(shape)
    return vals


# ---------------------------------------------------------------------------
# dual volume d1

def test_d1_canonical_closed_forms():
    assert ding(CanonicalPotential(interval(-2, 2)), interval(-2, 2)).d1 == pytest.approx(
        8.0, rel=1e-10
    )
    sq = box([(-2, 2), (-2, 2)])
    assert ding(CanonicalPotential(sq), sq).d1 == pytest.approx(64.0, rel=1e-10)
    hl = half_line(-2)
    assert ding(CanonicalPotential(hl), hl).d1 == pytest.approx(math.e, rel=1e-8)
    # teardrop: the stable integrand is (3x+10) e^{x}
    td = TEARDROP
    exact = 9.0 * math.exp(2.0 / 3.0) - math.exp(-2.0)
    assert ding(CanonicalPotential(td), td).d1 == pytest.approx(exact, rel=1e-10)


def test_d1_matches_dual_side_quadrature():
    P = interval(-2, 2)
    s = GridCorrection.from_function(
        lambda x: 0.05 * x[0] ** 2 - 0.02 * x[0] ** 3, [(-2.0, 2.0)], [14]
    )
    v = CorrectedPotential(P, s)
    got = ding(v, P, tol=1e-10).d1

    # independent y-side quadrature of e^{-phi} with phi the Legendre dual;
    # beyond |y| = 9 the tail is below 1e-6 relative and the gradient map
    # becomes uninvertible in doubles
    nodes, weights = np.polynomial.legendre.leggauss(400)
    Y = 9.0
    y = Y * nodes
    # v' is increasing on (-2, 2) and covers R: bisect v'(x) = y at every
    # node at once, down to adjacent doubles
    lo, hi = np.full_like(y, -2.0), np.full_like(y, 2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = v.gradient(mid[:, None])[:, 0] < y
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    phi = x * y - v.value(x[:, None])
    total = float(np.sum(Y * weights * np.exp(-phi)))
    assert got == pytest.approx(total, rel=1e-6)


def test_d1_constant_shift_scaling():
    P = interval(-2, 2)
    s = GridCorrection.from_function(lambda x: 0.03 * x[0] ** 2, [(-2.0, 2.0)], [10])
    base = ding(CorrectedPotential(P, s), P).d1
    for kappa in (-1.0, 0.7, 5.0):
        shifted = GridCorrection(s.axes, s.values + kappa)
        got = ding(CorrectedPotential(P, shifted), P).d1
        assert got == pytest.approx(math.exp(kappa) * base, rel=1e-10)


def test_d1_rejects_nonpositive_offsets():
    # b_X is given: find_soliton_vector rejects such offsets first
    P = interval(0, 4)
    with pytest.raises(DivergentD1):
        ding(CanonicalPotential(P), P, b_X=[0.0])


def test_d1_rejects_uncertified_tail(held):
    # the grid ends at x = 40, where the cut drops e^{-21} of F(1/2) and the
    # spill is below tol, but d1's tail estimate is not
    P = half_line(-2)
    v = CorrectedPotential(P, solve(P, b=[0.5], grid=16, truncation=20).correction)
    with pytest.raises(DivergentD1, match="truncation tail estimate"):
        ding(v, P, b_X=[0.5], tol=1e-6)
    (q,) = held.entries.values()
    assert q.dropped <= 1e-6 and q.spill <= 1e-6


@pytest.fixture(scope="module")
def half_line_at_32():
    # the correction grid ends at x = 64, where <beta, x> = 32
    P = half_line(-2)
    return P, CorrectedPotential(P, solve(P, grid=48, truncation=32).correction)


@pytest.mark.parametrize("b_X, share", [(0.1, "0.00136"), (0.01, "0.517")])
def test_ding_rejects_a_cut_that_drops_the_soliton_weight(half_line_at_32, b_X, share):
    # d1's cut at x = 64 keeps all but e^{-33} of e^{-x/2}, but drops
    # e^{-66 b_X} of F(b_X) for a slower weight
    P, v = half_line_at_32
    with pytest.raises(NotInE, match=f"the cut drops {share} of F"):
        ding(v, P, b_X=[b_X])
    q = _DingQuadrature(P, v.correction, 1e-8, [b_X])
    assert q.dropped == pytest.approx(math.exp(-66.0 * b_X), rel=1e-9)


def test_ding_at_beta_keeps_its_cut(half_line_at_32):
    # at b_X = beta = 1/2 d1's cut is also the soliton weight's own cut at
    # the grid's end, and D is pinned bit for bit; D with the canonical term
    # from mpmath is 0.1159315156577535
    P, v = half_line_at_32
    assert ding(v, P, b_X=[0.5]).value == 0.11593151565775339


@pytest.mark.parametrize("b_X", [0.29, 0.30, 0.35, 0.4, 0.5])
def test_spill_bounds_the_canonical_integral_past_the_cut(b_X):
    # v = u_P on [-2, 64] through a zero correction: D = (1/2)(1 - gamma -
    # log b)/b - 1 on the half-line, d1 = e. Past x = 64 the potential
    # integral falls slower than F(b_X); a call either raises or returns D
    # within its spill
    P = half_line(-2)
    zero = GridCorrection.from_function(lambda x: 0.0, [(-2.0, 64.0)], [16])
    v = CorrectedPotential(P, zero)
    exact = 0.5 * (1.0 - float(mpmath.euler) - math.log(b_X)) / b_X - 1.0
    q = _DingQuadrature(P, v.correction, 1e-8, [b_X])
    assert q.dropped <= 1e-8
    if b_X < 0.4:
        with pytest.raises(NotInE, match="past the cut it may reach"):
            ding(v, P, b_X=[b_X])
    else:
        assert q.spill <= 1e-8
        assert abs(ding(v, P, b_X=[b_X]).value - exact) <= q.spill


@pytest.mark.parametrize("P", [TEARDROP, pentagon()], ids=["teardrop", "pentagon"])
def test_ding_and_scan_default_to_the_soliton_vector(P):
    b = find_soliton_vector(P).b
    u = CanonicalPotential(P)
    s = GridCorrection.from_function(lambda x: 0.05 * np.sum(x * x, axis=-1),
                                     [(-2.0, 2.0)] * P.dim, [8] * P.dim)
    v = CorrectedPotential(P, s)
    assert ding(v, P) == ding(v, P, b_X=b)
    assert convexity_scan(u, v, P, num_t=3) == convexity_scan(u, v, P, b_X=b, num_t=3)


def test_d1_rejects_nonconvex():
    P = interval(-2, 2)
    s = GridCorrection.from_function(lambda x: -2.0 * x[0] ** 2, [(-2.0, 2.0)], [8])
    with pytest.raises(NotConvexHere):
        ding(CorrectedPotential(P, s), P).d1


def test_d1_stable_equals_direct_integrand():
    # the d1 integrand is e^{-R_0}, R_0 the stable residual at b = 0
    rng = np.random.default_rng(11)
    cases = [
        (interval(-2, 2), [(-2.0, 2.0)]),
        (box([(-2, 2), (-2, 2)]), [(-2.0, 2.0), (-2.0, 2.0)]),
        (interval(-1, 3, 1, 1), [(-1.0, 3.0)]),
        (TEARDROP, [(-2.0, 2.0 / 3.0)]),
    ]
    for P, dom in cases:
        s = GridCorrection.from_function(
            lambda x: 0.02 * float(np.sum(x**2)), dom, [8] * P.dim
        )
        v = CorrectedPotential(P, s)
        X = P.sample_interior(rng, 12)
        stable = np.exp(-residual(P, np.zeros(P.dim), X, s))
        for i, x in enumerate(X):
            det = float(np.linalg.det(v.hessian(x)))
            direct = det * math.exp(v.value(x) - float(v.gradient(x) @ x))
            assert stable[i] == pytest.approx(direct, rel=1e-9)


# ---------------------------------------------------------------------------
# the Ding functional

def test_ding_canonical_closed_forms():
    P = interval(-2, 2)
    got = ding(CanonicalPotential(P), P, b_X=[0.0])
    exact = (4.0 * math.log(2.0) - 1.0) - math.log(8.0)
    assert got.value == pytest.approx(exact, abs=1e-9)
    assert got.d1 == pytest.approx(8.0, rel=1e-10)

    hl = half_line(-2)
    got = ding(CanonicalPotential(hl), hl, b_X=[0.5])
    assert got.value == pytest.approx(math.log(2.0) - np.euler_gamma, abs=1e-8)

    sq = box([(-2, 2), (-2, 2)])
    got = ding(CanonicalPotential(sq), sq, b_X=[0.0, 0.0])
    exact = (8.0 * math.log(2.0) - 2.0) - math.log(64.0)
    assert got.value == pytest.approx(exact, abs=1e-9)


def test_ding_constant_shift_invariance():
    P = interval(-2, 2)
    s = GridCorrection.from_function(lambda x: 0.04 * x[0] ** 2, [(-2.0, 2.0)], [10])
    base = ding(CorrectedPotential(P, s), P, b_X=[0.0])
    for kappa in (1.0, -1.0, 5.0, -5.0):
        shifted = GridCorrection(s.axes, s.values + kappa)
        got = ding(CorrectedPotential(P, shifted), P, b_X=[0.0])
        assert got.value == pytest.approx(base.value, abs=1e-8)


def test_ding_affine_tilt_invariance_at_soliton_vector():
    # linear tilts are null directions only at b = b_X
    td = TEARDROP
    b = find_soliton_vector(td).b
    s = GridCorrection.from_function(lambda x: 0.02 * x[0] ** 2, [(-2.0, 2.0 / 3.0)], [10])
    base = ding(CorrectedPotential(td, s), td, b_X=b)
    tilted = GridCorrection(s.axes, s.values + 0.4 * s.axes[0] - 0.9)
    got = ding(CorrectedPotential(td, tilted), td, b_X=b)
    assert got.value == pytest.approx(base.value, abs=1e-8)


def test_ding_pentagon_gauge_invariance():
    P = pentagon()
    b = find_soliton_vector(P).b
    v = CanonicalPotential(P)
    base = ding(v, P, b_X=b)
    assert base.d1 > 0.0
    dom = [(-2.0, 2.0), (-2.0, 2.0)]
    tilt = GridCorrection.from_function(
        lambda x: 0.3 * x[0] - 0.2 * x[1] + 1.3, dom, [4, 4]
    )
    got = ding(CorrectedPotential(P, tilt), P, b_X=b)
    assert got.value == pytest.approx(base.value, abs=1e-7)


def test_ding_numerics_reject_dimension_three():
    P = box([(-2, 2), (-2, 2), (-2, 2)])
    v = CanonicalPotential(P)
    b = [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        ding(v, P, b_X=b)
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        convexity_scan(v, v, P, b_X=b)


class _ValueGradientHessian:
    """v = |x|^2 / 2 in 1D, given only through value/gradient/hessian."""

    def __init__(self, P):
        self.polyhedron = P

    def value(self, X):
        return 0.5 * np.sum(np.atleast_2d(X) ** 2, axis=1)

    def gradient(self, X):
        return np.atleast_2d(X).astype(float)

    def hessian(self, X):
        return np.ones((len(np.atleast_2d(X)), 1, 1))


def test_ding_rejects_potential_objects():
    # only canonical and corrected potentials have the stable d1 integrand
    P = interval(-2, 2)
    v = _ValueGradientHessian(P)
    with pytest.raises(TypeError):
        ding(v, P, b_X=[0.0])
    with pytest.raises(TypeError):
        convexity_scan(v, CanonicalPotential(P), P, b_X=[0.0])
    with pytest.raises(TypeError):
        convexity_scan(CanonicalPotential(P), v, P, b_X=[0.0])


# ---------------------------------------------------------------------------
# geodesics and scans

def _blend(v0, v1, t):
    """The potential (1 - t) v0 + t v1, its grid values blended on the
    endpoints' shared nodes: the reference for a scan's blend of samples."""
    c0, c1 = correction_of(v0), correction_of(v1)
    if c0 is None and c1 is None:
        return CanonicalPotential(v0.polyhedron)
    s0, s1 = (0.0 if c is None else c.values for c in (c0, c1))
    return CorrectedPotential(v0.polyhedron, GridCorrection(
        (c1 if c0 is None else c0).axes, (1.0 - t) * s0 + t * s1))


def test_geodesic_blend_and_validation():
    P = interval(-2, 2)
    s1 = GridCorrection.from_function(lambda x: 0.05 * x[0] ** 2, [(-2.0, 2.0)], [9])
    mid = _blend(CanonicalPotential(P), CorrectedPotential(P, s1), 0.5)
    x = np.array([0.7])
    assert mid.value(x) == pytest.approx(
        CanonicalPotential(P).value(x) + 0.5 * s1.value(x), abs=1e-12
    )
    other = GridCorrection.from_function(lambda x: x[0], [(-2.0, 2.0)], [12])
    with pytest.raises(ValueError, match="grid basis"):
        convexity_scan(CorrectedPotential(P, s1), CorrectedPotential(P, other), P, b_X=[0.0])


def test_scan_matches_single_evaluations():
    P = interval(-2, 2)
    s0 = GridCorrection.from_function(lambda x: 0.03 * x[0] ** 2, [(-2.0, 2.0)], [10])
    s1 = GridCorrection.from_function(
        lambda x: 0.02 * x[0] ** 2 + 0.01 * x[0] ** 3, [(-2.0, 2.0)], [10]
    )
    v0 = CorrectedPotential(P, s0)
    v1 = CorrectedPotential(P, s1)
    scan = convexity_scan(v0, v1, P, b_X=[0.0], num_t=5)
    assert [s.t for s in scan] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert scan[0].value == pytest.approx(ding(v0, P, b_X=[0.0]).value, abs=1e-10)
    assert scan[-1].value == pytest.approx(ding(v1, P, b_X=[0.0]).value, abs=1e-10)
    mid = _blend(v0, v1, 0.5)
    assert scan[2].value == pytest.approx(ding(mid, P, b_X=[0.0]).value, abs=1e-10)


def test_scan_endpoints_equal_ding_of_corrected_endpoints():
    rectangle = from_halfspaces(
        2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)]
    )
    for P, grid, truncation in ((rectangle, 14, 12.0), (half_line(-2), 48, 32.0)):
        b = find_soliton_vector(P).b
        s0 = solve(P, b=b, grid=grid, truncation=truncation).correction
        s1 = GridCorrection(s0.axes, s0.values + 0.3 * bump_values(s0.axes))
        v0, v1 = CorrectedPotential(P, s0), CorrectedPotential(P, s1)
        scan = convexity_scan(v0, v1, P, b_X=b, num_t=3)
        assert ding(v0, P, b_X=b).value == scan[0].value
        assert ding(v1, P, b_X=b).value == scan[-1].value


def test_scan_between_canonical_potentials_is_flat():
    P = interval(-2, 2)
    v = CanonicalPotential(P)
    scan = convexity_scan(v, v, P, b_X=[0.0], num_t=3)
    assert [s.value for s in scan] == [ding(v, P, b_X=[0.0]).value] * 3


def test_scan_convexity_random_geodesics():
    rng = np.random.default_rng(23)
    P1 = interval(-2, 2)
    P2 = box([(-2, 2), (-2, 2)])
    for P in (P1, P2):
        dom = [(-2.0, 2.0)] * P.dim
        for _ in range(4):
            c = 0.01 * rng.standard_normal((2, 4))

            def make(row):
                return GridCorrection.from_function(
                    lambda x: float(
                        row[0] * np.sum(x**2)
                        + row[1] * np.sum(x**3)
                        + row[2] * np.prod(x)
                        + row[3] * np.sum(x)
                    ),
                    dom,
                    [10] * P.dim,
                )

            v0 = CorrectedPotential(P, make(c[0]))
            v1 = CorrectedPotential(P, make(c[1]))
            scan = convexity_scan(v0, v1, P, b_X=[0.0] * P.dim, num_t=9)
            assert float(np.min(second_differences(scan))) >= -1e-9


def test_scan_affine_pair_is_flat():
    P = interval(-2, 2)
    res = solve(P, b=[0.0], grid=24)
    s0 = res.correction
    s1 = GridCorrection(s0.axes, s0.values + 0.3 * s0.axes[0] + 0.7)
    scan = convexity_scan(
        CorrectedPotential(P, s0), CorrectedPotential(P, s1), P, b_X=[0.0], num_t=7
    )
    vals = np.array([s.value for s in scan])
    assert float(np.max(vals) - np.min(vals)) <= 1e-8


def test_scan_convexity_on_half_line():
    P = half_line(-2)
    res = solve(P, b=[0.5], grid=48, truncation=24.0)
    axes = res.correction.axes
    w = bump_values(axes)
    v0 = CorrectedPotential(P, res.correction)
    v1 = CorrectedPotential(P, GridCorrection(axes, res.correction.values + 0.4 * w))
    # the estimated truncation tail (~7e-8 relative here) is constant across t
    # and cancels in differences, so a loose tail tolerance is enough
    scan = convexity_scan(v0, v1, P, b_X=[0.5], num_t=7, tol=1e-5)
    diffs = second_differences(scan)
    assert float(np.min(diffs)) >= -1e-9
    # a solution is the minimizer, so D grows away from t = 0
    assert scan[-1].value >= scan[0].value - 1e-10


def test_stationarity_at_solution():
    P = interval(-2, 2)
    res = solve(P, b=[0.0], grid=24)
    axes = res.correction.axes
    rng = np.random.default_rng(7)
    base = res.correction.values
    eps = 1e-4
    for _ in range(10):
        w = bump_values(axes) * rng.uniform(0.2, 1.0)
        w = w * rng.choice([-1.0, 1.0])
        plus = ding(
            CorrectedPotential(P, GridCorrection(axes, base + eps * w)), P, b_X=[0.0]
        ).value
        minus = ding(
            CorrectedPotential(P, GridCorrection(axes, base - eps * w)), P, b_X=[0.0]
        ).value
        assert abs(plus - minus) / (2.0 * eps) <= 1e-4


def test_second_differences_shape():
    vals = [DingValue(t=float(t), d1=1.0, value=float(t) ** 2) for t in range(5)]
    diffs = second_differences(vals)
    assert diffs == pytest.approx([2.0, 2.0, 2.0])


def test_ding_nodes_lie_inside_the_correction_grid():
    # each P leaves its grid box only through the open faces where solve
    # cut an unbounded axis (on the half-strip y = 8). A truncation level
    # taken as the largest <w,x> over P in the box lets the sublevel set
    # reach past such a face (near the half-strip's corner (1, 8)); the
    # fitted level is also tight: the plan's region touches an open face
    for P in (box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3]),
              from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 2, 2), ((0, -1), 3, 2)]),
              box([(-2, None), (-2, None)])):
        b = find_soliton_vector(P).b
        res = solve(P, b=b, grid=13)
        corr = res.correction
        q = _DingQuadrature(P, corr, 1e-8, b)
        lo, hi = np.array(corr.domain).T
        for X in [q.X] + [X for X, _ in q.linear_rules()]:
            assert np.all((X >= lo) & (X <= hi))
        ring = q.plan.ring
        open_faces = [(d, corr.domain[d][1 if side == "upper" else 0])
                      for d, side in res.truncated_axes]
        assert any(np.any(np.abs(ring[:, d] - c) <= 1e-9 * (1.0 + abs(c)))
                   for d, c in open_faces)


def _seeded_correction(P, dom, seed):
    rng = np.random.default_rng(seed)
    c = 0.01 * rng.standard_normal(4)
    return GridCorrection.from_function(
        lambda x: float(c[0] * np.sum(x**2) + c[1] * np.sum(x**3)
                        + c[2] * np.prod(x) + c[3] * np.sum(x)),
        dom, [9] * P.dim)


RECTANGLE = from_halfspaces(
    2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)])


@pytest.mark.parametrize("P, dom", [
    (TEARDROP, [(-2.0, 2.0 / 3.0)]),
    (RECTANGLE, [(-2.0, 2.0 / 3.0), (-1.0, 2.0)]),
])
def test_potential_integral_is_the_moment_pairing(P, dom):
    # <C, M> against the Gauss sum of the correction's values at the nodes of M
    b = find_soliton_vector(P).b
    for seed in (1, 2):
        corr = _seeded_correction(P, dom, seed)
        q = _DingQuadrature(P, corr, 1e-8, b)
        dense = math.fsum(float(np.dot(W, corr.value(X))) for X, W in q.linear_rules())
        assert corr.pair(q.moments) == pytest.approx(dense, rel=1e-14)


def _steep_square():
    """The square [-2, 2]^2 with an 8x8 correction 0.01 |x|^2 and the weight
    e^{-<b,x>} at b = (-400, 0), which _refined cuts into 4,096 pieces."""
    sq = box([(-2, 2), (-2, 2)])
    corr = GridCorrection.from_function(lambda x: 0.01 * float(x @ x), [(-2.0, 2.0)] * 2, (8, 8))
    return sq, corr, [-400.0, 0.0]


@pytest.mark.parametrize("case", ["teardrop", "rectangle", "steep square"])
def test_chunked_moments_equal_the_per_simplex_sum(case):
    if case == "steep square":
        P, corr, b = _steep_square()
    else:
        P, dom = {"teardrop": (TEARDROP, [(-2.0, 2.0 / 3.0)]),
                  "rectangle": (RECTANGLE, [(-2.0, 2.0 / 3.0), (-1.0, 2.0)])}[case]
        corr, b = _seeded_correction(P, dom, 1), find_soliton_vector(P).b
    q = _DingQuadrature(P, corr, 1e-8, b)
    V, vol, _ = q.linear_simplices
    M = 0.0
    for s in range(len(V)):
        X, W = gauss_rules(V[s:s + 1], vol[s:s + 1], 25)
        M = M + corr.moments(X, W * np.exp(-(X @ q.b) - q.shift))
    assert np.max(np.abs(q.moments - M)) <= 1e-15 * np.max(np.abs(M))


def test_moment_pass_holds_a_bounded_chunk_of_nodes():
    # 4,096 refined simplices of 625 nodes each: stacked at once their
    # Vandermonde matrices alone take hundreds of MiB
    P, corr, b = _steep_square()
    tracemalloc.start()
    try:
        q = _DingQuadrature(P, corr, 1e-8, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.linear_simplices[0]) == 4096
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("P, dom", [
    (TEARDROP, [(-2.0, 2.0 / 3.0)]),
    (RECTANGLE, [(-2.0, 2.0 / 3.0), (-1.0, 2.0)]),
    (pentagon(), [(-2.0, 2.0), (-2.0, 2.0)]),
])
def test_stacked_d1_equals_the_per_simplex_sum(P, dom):
    corr = _seeded_correction(P, dom, 3)
    q = _DingQuadrature(P, corr, 1e-8, find_soliton_vector(P).b)
    V, vol, _ = _refined(q.plan.simplices, q.plan.volumes,
                         0.5 * np.sum(P.scaled_normal_matrix(), axis=0))
    origin = np.zeros(P.dim)
    per_simplex = []
    for pts in V:
        X, W = gauss_simplex_rule(Simplex(tuple(map(tuple, pts))), 25)
        R0 = residual(P, origin, X, corr)
        per_simplex.append(float(np.dot(W, np.exp(-R0))))
    sample = q.sample(corr)
    got = q.scan(sample, sample, [0.0])[0].d1
    assert got == pytest.approx(math.fsum(per_simplex), rel=1e-14)


def square_canonical_ding(b1):
    """D of the canonical potential on [-2, 2]^2 at b = (b1, 0), with mpmath.

    u_P splits into x and y terms, so the potential integral over F is a
    sum of 1D ratios; d1 = 64. The weight is shifted to peak at 1.
    """
    with mpmath.workdps(30):
        def ratio(beta):
            def weight(x):
                return mpmath.exp(-beta * x - 2 * abs(beta))
            edge = [2 - mpmath.mpf(2) ** -k for k in range(12)]
            cuts = [-2] + edge + [2] if beta <= 0 else [-2] + [-e for e in edge[::-1]] + [2]
            term = mpmath.quad(lambda x: 0.5 * ((2 + x) * mpmath.log(2 + x)
                                                + (2 - x) * mpmath.log(2 - x)) * weight(x),
                               cuts)
            return term / mpmath.quad(weight, cuts)
        return float(ratio(b1) + ratio(0) - mpmath.log(64))


@pytest.mark.parametrize("b1", [-30.0, -100.0, -300.0])
def test_canonical_term_resolves_a_large_weight(b1):
    sq = box([(-2, 2), (-2, 2)])
    got = ding(CanonicalPotential(sq), sq, b_X=[b1, 0.0])
    assert got.value == pytest.approx(square_canonical_ding(b1), rel=1e-10)


def quadrant_canonical_ratio(b, S):
    """int u_P e^{-<b,x>} / int e^{-<b,x>} over the quadrant x, y >= -2 cut at
    x + y + 4 <= S, with mpmath.

    In X = x + 2 the region is the triangle X, Y >= 0, X + Y <= S and
    u_P = (X log X + Y log Y)/2; each term integrates in closed form across
    the other variable, which leaves 1D integrals.
    """
    with mpmath.workdps(40):
        b1, b2, S = mpmath.mpf(b[0]), mpmath.mpf(b[1]), mpmath.mpf(S)
        cuts = [0] + [c for c in (1, 2, 5, 10, 20, 40, 80) if c < S] + [S]

        def across(bj, bk, f):
            # int_0^S f(X) e^{-bj X} (1 - e^{-bk (S - X)}) / bk dX
            return mpmath.quad(lambda X: f(X) * mpmath.exp(-bj * X)
                               * -mpmath.expm1(-bk * (S - X)) / bk, cuts)

        def xlogx(X):
            return X * mpmath.log(X)

        term = across(b1, b2, xlogx) + across(b2, b1, xlogx)
        return float(term / 2 / across(b2, b1, lambda Y: 1))


def test_canonical_term_reaches_the_facets():
    # the canonical ladder cuts the quadrant at <beta, x> = T = 35.8, beta =
    # (1/2, 1/2), for b = (1, 3): the slivers along both facets are part of
    # the integral, not dropped
    quadrant = box([(-2, None), (-2, None)])
    b = np.array([1.0, 3.0])
    q = _DingQuadrature(quadrant, None, 1e-8, b_X=b)
    T = float(np.max(q.plan.ring @ np.array([0.5, 0.5])))
    assert 35.0 < T < 36.0
    ref = quadrant_canonical_ratio(b, 2.0 * T + 4.0)
    assert q.canonical / q.F == pytest.approx(ref, rel=1e-13)


def graded_canonical(P, b, ring, c):
    """int over the ring of u_P e^{-<b,x>-c} dx, Gauss-Legendre alone in l = L_k.

    The rule the package used before its log-weighted one, kept as a
    reference: pieces between the corner levels, graded by 1/2 toward l = 0
    from R down to R 2^-26 (R the largest L_k on the ring), then one piece
    down to l = 0, split until t moves by at most 3 across a piece; each
    slice found by crossing every ring edge, and exp[t_a, t_c] along it from
    the divided-difference kernel.
    """
    lam, g = _reference_rule(1, 20)
    p0, p1 = (ring[:1], ring[1:]) if P.dim == 1 else (ring, np.roll(ring, -1, axis=0))
    rise = np.abs((p1 - p0) @ b)

    def crossings(f0, f1, ell):
        mask = (np.minimum(f0, f1) <= ell[:, None]) & (ell[:, None] < np.maximum(f0, f1))
        s = (ell[:, None] - f0) / np.where(f1 == f0, 1.0, f1 - f0)
        return mask, p0 + s[..., None] * (p1 - p0)

    terms = []
    for wk, ak in zip(P.scaled_normal_matrix(), P.offsets_array()):
        levels = ring @ wk + ak
        f0, f1 = p0 @ wk + ak, p1 @ wk + ak
        slope = rise / np.where(f0 == f1, np.inf, np.abs(f1 - f0))
        R = float(np.max(levels))
        cuts = np.concatenate([levels, R * 0.5 ** np.arange(27), [0.0]])
        cuts = np.sort(cuts[(cuts >= max(float(np.min(levels)), 0.0)) & (cuts <= R)])
        cuts = cuts[np.append(True, np.diff(cuts) > 0)]
        lo, width = cuts[:-1], np.diff(cuts)
        active, _ = crossings(f0, f1, lo + 0.5 * width)
        steep = np.max(np.where(active, slope, 0.0), axis=1)
        count = np.maximum(1, np.ceil(width * steep / 3.0)).astype(int)
        piece = np.repeat(np.arange(len(lo)), count)
        h = (width / count)[piece]
        rank = np.arange(len(piece)) - np.repeat(np.cumsum(count) - count, count)
        ell = ((lo[piece] + rank * h)[:, None] + h[:, None] * lam[:, 0]).ravel()
        mask, pts = crossings(f0, f1, ell)
        if P.dim == 1:
            ends, length = pts, 1.0
        else:
            along = pts @ np.array([-wk[1], wk[0]])
            rows = np.arange(len(ell))
            ends = np.stack([pts[rows, np.argmin(np.where(mask, along, np.inf), axis=1)],
                             pts[rows, np.argmax(np.where(mask, along, -np.inf), axis=1)]],
                            axis=1)
            length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
        slices = length * _dd_exp_batch(-(ends @ b) - c, np.arange(P.dim)[None, :])[:, 0]
        terms.append((h[:, None] * g).ravel() * 0.5 * ell * np.log(ell) * slices
                     / np.linalg.norm(wk))
    return stable_sum(np.concatenate(terms))


def hexagon():
    return from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2),
                               ((0, -1), 1, 2), ((-1, -1), 1, 3), ((1, 1), 1, 3)])


@pytest.mark.parametrize("P", [
    pentagon(),
    hexagon(),
    from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, -1), 1, 2)]),
    box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3]),
], ids=["pentagon", "hexagon", "triangle", "half_strip"])
@pytest.mark.parametrize("tilt", [(0.0, 0.0), (-20.0, 7.0)])
def test_canonical_term_matches_the_graded_rule(P, tilt):
    b = find_soliton_vector(P).b + np.array(tilt)
    q = _DingQuadrature(P, None, 1e-8, b_X=b)
    ref = graded_canonical(P, b, q.plan.ring, q.shift)
    assert q.canonical == pytest.approx(ref, rel=1e-13)


def test_canonical_term_needs_few_nodes_per_facet():
    # one piece per facet of the square at b_X = 0: one Gauss-Legendre rule
    # and one -log u rule of order 20, where the graded rule took 540 nodes
    sq = box([(-2, 2), (-2, 2)])
    q = _DingQuadrature(sq, None, 1e-8, b_X=[0.0, 0.0])
    facets, terms = _canonical_linear(sq, q.b, q.plan.ring, q.shift)
    assert np.bincount(facets).tolist() == [40] * 4
    assert stable_sum(terms) == q.canonical


def test_line_rules_are_gauss_rules():
    (u, g), (v, gamma) = _line_rules(20)
    k = np.arange(40)[:, None]
    assert np.allclose(np.sum(g * u ** k, axis=1) * (k[:, 0] + 1), 1.0, rtol=1e-14, atol=0)
    # int_0^1 -log(u) u^k du = 1 / (k + 1)^2
    assert np.allclose(np.sum(gamma * v ** k, axis=1) * (k[:, 0] + 1) ** 2, 1.0,
                       rtol=1e-14, atol=0)
    for nodes, weights in ((u, g), (v, gamma)):
        assert np.all((0.0 < nodes) & (nodes < 1.0)) and np.all(weights > 0.0)
        assert not nodes.flags.writeable and not weights.flags.writeable


def test_refined_counts_what_its_cap_leaves_unresolved(half_line_at_32):
    # the weight's exponent spans 1,600 across the square at b_X = (-400, 0),
    # past what 4,096 pieces resolve; the benchmark's geodesics stay inside
    sq = box([(-2, 2), (-2, 2)])
    q = _DingQuadrature(sq, None, 1e-8, b_X=[-400.0, 0.0])
    assert (q.unresolved, len(q.linear_simplices[0])) == (4054, 4096)
    half_line, v = half_line_at_32
    for P, grid in ((sq, None), (TEARDROP, None), (RECTANGLE, None),
                    (half_line, v.correction)):
        q = _DingQuadrature(P, grid, 1e-8, b_X=find_soliton_vector(P).b)
        assert q.unresolved == 0


@pytest.mark.parametrize("P, dom", [
    (TEARDROP, [(-2.0, 2.0 / 3.0)]),
    (RECTANGLE, [(-2.0, 2.0 / 3.0), (-1.0, 2.0)]),
    (pentagon(), [(-2.0, 2.0), (-2.0, 2.0)]),
])
def test_scan_equals_ding_along_the_geodesic(P, dom):
    # the scan blends g and <C, M> linearly and the density as a quadratic
    # in t; ding of the blended potential samples it afresh at each t
    b = find_soliton_vector(P).b
    corrected = CorrectedPotential(P, _seeded_correction(P, dom, 4))
    for v0 in (CanonicalPotential(P), CorrectedPotential(P, _seeded_correction(P, dom, 5))):
        scan = convexity_scan(v0, corrected, P, b_X=b, num_t=9)
        for s in scan:
            ref = ding(_blend(v0, corrected, s.t), P, b_X=b)
            assert s.d1 == pytest.approx(ref.d1, rel=1e-14, abs=0.0)
            assert s.value == pytest.approx(ref.value, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("P, dom", [
    (TEARDROP, [(-2.0, 2.0 / 3.0)]),
    (RECTANGLE, [(-2.0, 2.0 / 3.0), (-1.0, 2.0)]),
])
def test_scan_blends_one_basis_on_other_nodes(P, dom):
    # s1 has s0's basis on uniform interior nodes: the scan blends their
    # Chebyshev coefficients, the linear geodesic of the two interpolants
    b = find_soliton_vector(P).b
    s0 = _seeded_correction(P, dom, 4)
    uniform = [np.linspace(a[0], a[-1], 9) for a in s0.axes]  # the same end nodes
    f = _seeded_correction(P, dom, 5).value
    s1 = GridCorrection(uniform, np.reshape([f(np.array(x)) for x in itertools.product(*uniform)],
                                            [9] * P.dim))
    assert s1.basis == s0.basis and not np.array_equal(s1.axes[0], s0.axes[0])
    scan = convexity_scan(CorrectedPotential(P, s0), CorrectedPotential(P, s1), P,
                          b_X=b, num_t=5)
    for s in scan:
        blend = GridCorrection.from_function(
            lambda x: (1.0 - s.t) * s0.value(x) + s.t * s1.value(x), dom, [9] * P.dim)
        ref = ding(CorrectedPotential(P, blend), P, b_X=b)
        assert s.d1 == pytest.approx(ref.d1, rel=1e-13, abs=0.0)
        assert s.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("P, w", [
    (box([(-2, 2), (-2, 2)]), [-30.0, 0.0]),
    (pentagon(), [5.0, -7.0]),
    (TEARDROP, [-12.0]),
])
def test_refined_resolves_the_weight_change_along_every_edge(P, w):
    # the weight varies only along w, so the square at (-30, 0) needs strips
    # across x_1 alone, far fewer pieces than halving at the longest edge
    w = np.asarray(w)
    pl = build_plan(P, w)
    V, vol, unresolved = _refined(pl.simplices, pl.volumes, w)
    assert len(V) < 4096 and unresolved == 0
    p = V @ w
    assert np.max(np.abs(p[:, :, None] - p[:, None, :])) <= 3.0
    assert math.fsum(vol) == pytest.approx(math.fsum(pl.volumes), rel=1e-13)


@pytest.mark.parametrize("P, f, dom", [
    (interval(-2, 2), lambda x: -0.3 * x[0] ** 2, [(-2.0, 2.0)]),
    (box([(-2, 2), (-2, 2)]), lambda x: -0.3 * float(np.sum(x**2)), [(-2.0, 2.0)] * 2),
])
def test_scan_toward_a_nonconvex_endpoint_is_rejected(P, f, dom):
    # v_0 is convex; the density turns nonpositive part way to v_1
    s = GridCorrection.from_function(f, dom, [8] * P.dim)
    with pytest.raises(NotConvexHere, match="density nonpositive near"):
        convexity_scan(CanonicalPotential(P), CorrectedPotential(P, s), P,
                       b_X=[0.0] * P.dim, num_t=9)


# ---------------------------------------------------------------------------
# the held quadrature: one per (P, tol, b_X, grid basis)

@pytest.fixture
def held():
    """The held quadratures, empty before and after the test."""
    _quadrature.cache_clear()
    yield _quadrature
    _quadrature.cache_clear()


@pytest.fixture(scope="module")
def geodesics(half_line_at_32):
    """The five kinds of geodesic that a Ding scan serves, as (P, v0, v1, b_X)."""
    rng = np.random.default_rng(5)
    out = {}
    sq = box([(-2, 2), (-2, 2)])
    ends = []
    for c in rng.uniform(-0.05, 0.05, (2, 6)):
        g = GridCorrection.from_function(
            lambda x, c=c: float(c[0] * x[0] ** 2 + c[1] * x[0] * x[1] + c[2] * x[1] ** 2
                                 + c[3] * x[0] ** 3 + c[4] * x[1] ** 3 + c[5] * x[0] ** 2 * x[1]),
            [(-2.0, 2.0)] * 2, (8, 8))
        ends.append(CorrectedPotential(sq, g))
    out["square"] = (sq, *ends)
    for k, P, grid in (("teardrop", TEARDROP, 48), ("rectangle", RECTANGLE, 14)):
        b = find_soliton_vector(P).b
        out[k] = (P, CanonicalPotential(P),
                  CorrectedPotential(P, solve(P, b=b, grid=grid).correction))
    P, v = half_line_at_32
    out["half_line"] = (P, CanonicalPotential(P), v)
    s = solve(RECTANGLE, grid=12).correction
    gx, gy = np.meshgrid(*s.axes, indexing="ij")
    tilted = GridCorrection(s.axes, s.values + 0.3 + 0.2 * gx - 0.4 * gy)
    out["affine"] = (RECTANGLE, CorrectedPotential(RECTANGLE, s),
                     CorrectedPotential(RECTANGLE, tilted))
    return {k: (P, v0, v1, find_soliton_vector(P).b) for k, (P, v0, v1) in out.items()}


@pytest.mark.parametrize("kind", ["square", "teardrop", "rectangle", "half_line", "affine"])
def test_warm_scans_equal_scans_from_a_fresh_quadrature(held, geodesics, kind):
    P, v0, v1, b = geodesics[kind]
    cold = convexity_scan(v0, v1, P, b_X=b)
    (q,) = held.entries.values()
    warm = convexity_scan(v0, v1, P, b_X=b)
    assert list(held.entries.values()) == [q]  # the second scan was a hit
    c0, c1 = correction_of(v0), correction_of(v1)
    fresh = _DingQuadrature(P, c1 if c0 is None else c0, 1e-8, b)
    assert fresh is not q
    ref = fresh.scan(fresh.sample(c0), fresh.sample(c1), np.linspace(0.0, 1.0, 9))
    assert cold == warm == ref
    end = ding(v1, P, b_X=b)
    assert (end.d1, end.value) == (ref[-1].d1, ref[-1].value)
    assert list(held.entries.values()) == [q]


@pytest.mark.parametrize("kind", ["rectangle", "half_line"])
def test_held_arrays_are_read_only(held, geodesics, kind):
    P, _, v, b = geodesics[kind]
    ding(v, P, b_X=b)
    (q,) = held.entries.values()
    arrays = [q.X, q.base, *q.form, *q.vander, q.moments, q.b, *q.linear_simplices[:2],
              q.plan.ring, q.plan.simplices, q.plan.volumes]
    assert len(q.vander) == P.dim
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_one_basis_holds_one_quadrature(held):
    P = TEARDROP
    b = find_soliton_vector(P).b
    dom = [(-2.0, 2.0 / 3.0)]

    def value(f, dom=dom, count=10, tol=1e-8, b=b):
        corr = GridCorrection.from_function(f, dom, [count])
        return ding(CorrectedPotential(P, corr), P, b_X=b, tol=tol)

    value(lambda x: 0.02 * x[0] ** 2)
    value(lambda x: 0.05 * x[0] ** 2 - 0.01 * x[0] ** 3)  # other values, one basis
    assert len(held.entries) == 1
    value(lambda x: 0.02 * x[0] ** 2, dom=[(-1.5, 0.5)])
    value(lambda x: 0.02 * x[0] ** 2, count=12)
    value(lambda x: 0.02 * x[0] ** 2, tol=1e-9)
    value(lambda x: 0.02 * x[0] ** 2, b=np.add(b, 0.25))
    ding(CanonicalPotential(P), P, b_X=b)
    assert len(held.entries) == 6
    bases = [key[3] for key in held.entries]
    assert [shape for _, shape in bases[:5]] == [(10,), (10,), (12,), (10,), (10,)]
    assert bases[1][0] == ((-1.5, 0.5),) and bases[0][0] == bases[2][0] != bases[1][0]
    assert bases[-1] is None


def test_a_quadrature_samples_only_its_own_basis():
    corr = GridCorrection.from_function(lambda x: 0.0, [(-2.0, 2.0 / 3.0)], [10])
    q = _DingQuadrature(TEARDROP, corr, 1e-8, find_soliton_vector(TEARDROP).b)
    with pytest.raises(ValueError, match="grid basis"):
        q.sample(GridCorrection.from_function(lambda x: 0.0, [(-2.0, 2.0 / 3.0)], [12]))


def test_held_nodes_stay_within_the_bound(held, monkeypatch):
    # the bound is one quadrature at _refined's cap in 2D. One canonical
    # teardrop quadrature holds 25 d1 nodes: with room for 60 the third key
    # drops the least recently used, and one larger than the bound leaves
    # nothing held
    assert ding_module._HELD_NODES == ding_module._PIECES * ding_module._ORDER ** 2
    monkeypatch.setattr(ding_module, "_HELD_NODES", 60)
    u = CanonicalPotential(TEARDROP)
    tols = [1e-8, 1e-9, 1e-10]
    for tol in tols:
        ding(u, TEARDROP, b_X=[0.0], tol=tol)
        assert held.nodes == sum(len(q.X) for q in held.entries.values()) <= 60
    assert [key[1] for key in held.entries] == tols[1:]
    ding(u, TEARDROP, b_X=[0.0], tol=tols[1])  # a hit becomes the most recently used
    ding(u, TEARDROP, b_X=[0.0], tol=tols[0])
    assert [key[1] for key in held.entries] == [tols[1], tols[0]]
    zero = GridCorrection.from_function(lambda x: 0.0, [(-2.0, 2.0 / 3.0), (-1.0, 2.0)], [8, 8])
    v = CorrectedPotential(RECTANGLE, zero)
    assert ding(v, RECTANGLE).d1 > 0.0
    assert held.nodes == 0 and not held.entries
    monkeypatch.setattr(ding_module, "_HELD_KEYS", 1)
    for tol in tols:
        ding(u, TEARDROP, b_X=[0.0], tol=tol)
    assert [key[1] for key in held.entries] == tols[-1:]


def test_a_hit_still_checks_the_cut(held, half_line_at_32):
    # the quadrature is held once built; what its cut drops is checked on
    # every call
    P, v = half_line_at_32
    for _ in range(2):
        with pytest.raises(NotInE, match="the cut drops 0.00136 of F"):
            ding(v, P, b_X=[0.1])
    assert len(held.entries) == 1


def test_a_hit_still_checks_convexity(held):
    P = interval(-2, 2)
    convex = GridCorrection.from_function(lambda x: 0.1 * x[0] ** 2, [(-2.0, 2.0)], [8])
    bent = GridCorrection.from_function(lambda x: -0.3 * x[0] ** 2, [(-2.0, 2.0)], [8])
    u = CanonicalPotential(P)
    convexity_scan(u, CorrectedPotential(P, convex), P, b_X=[0.0])
    (q,) = held.entries.values()
    with pytest.raises(NotConvexHere, match="density nonpositive near"):
        convexity_scan(u, CorrectedPotential(P, bent), P, b_X=[0.0])
    assert list(held.entries.values()) == [q]


@pytest.mark.parametrize("P, dom", [
    (interval(0, 4), None),                  # a facet offset <= 0
    (half_line(-2), [(-3.0, -2.5)]),         # the grid ends before P begins
])
def test_a_failed_construction_is_not_held(held, P, dom):
    v = CanonicalPotential(P) if dom is None else CorrectedPotential(
        P, GridCorrection.from_function(lambda x: 0.0, dom, [8]))
    with pytest.raises(DivergentD1):
        _DingQuadrature(P, None if dom is None else v.correction, 1e-8, [0.5])
    for _ in range(2):
        with pytest.raises(DivergentD1):
            ding(v, P, b_X=[0.5])
    assert not held.entries
