"""Ding functional: dual-volume oracles, gauge structure, geodesic convexity."""

import math

import numpy as np
import pytest

from toricshrink.ding import (
    DingValue,
    DivergentD1,
    Geodesic,
    _DingQuadrature,
    convexity_scan,
    d1,
    ding,
    second_differences,
)
from toricshrink.polyhedra import box, from_halfspaces, half_line, interval
from toricshrink.potentials import (
    CanonicalPotential,
    CorrectedPotential,
    GridCorrection,
    NotConvexHere,
)
from toricshrink.shrinker import find_soliton_vector, solve

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
    assert d1(CanonicalPotential(interval(-2, 2)), interval(-2, 2)) == pytest.approx(
        8.0, rel=1e-10
    )
    sq = box([(-2, 2), (-2, 2)])
    assert d1(CanonicalPotential(sq), sq) == pytest.approx(64.0, rel=1e-10)
    hl = half_line(-2)
    assert d1(CanonicalPotential(hl), hl) == pytest.approx(math.e, rel=1e-8)
    # teardrop: the stable integrand is (3x+10) e^{x}
    td = TEARDROP
    exact = 9.0 * math.exp(2.0 / 3.0) - math.exp(-2.0)
    assert d1(CanonicalPotential(td), td) == pytest.approx(exact, rel=1e-10)


def test_d1_matches_dual_side_quadrature():
    P = interval(-2, 2)
    s = GridCorrection.from_function(
        lambda x: 0.05 * x[0] ** 2 - 0.02 * x[0] ** 3, [(-2.0, 2.0)], [14]
    )
    v = CorrectedPotential(P, s)
    got = d1(v, P, tol=1e-10)

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
    base = d1(CorrectedPotential(P, s), P)
    for kappa in (-1.0, 0.7, 5.0):
        shifted = GridCorrection(s.axes, s.values + kappa)
        got = d1(CorrectedPotential(P, shifted), P)
        assert got == pytest.approx(math.exp(kappa) * base, rel=1e-10)


def test_d1_rejects_nonpositive_offsets():
    P = interval(0, 4)
    with pytest.raises(DivergentD1):
        d1(CanonicalPotential(P), P)


def test_d1_rejects_uncertified_tail():
    P = half_line(-2)
    s = GridCorrection.zeros([(-2.0, 3.0)], [8])
    with pytest.raises(DivergentD1):
        d1(CorrectedPotential(P, s), P)


def test_d1_rejects_nonconvex():
    P = interval(-2, 2)
    s = GridCorrection.from_function(lambda x: -2.0 * x[0] ** 2, [(-2.0, 2.0)], [8])
    with pytest.raises(NotConvexHere):
        d1(CorrectedPotential(P, s), P)


def test_d1_stable_equals_direct_integrand():
    # the d1 integrand is e^{-R_0}, R_0 the stable residual at b = 0
    rng = np.random.default_rng(11)
    cases = [
        (interval(-2, 2), [(-2.0, 2.0)]),
        (box([(-2, 2), (-2, 2)]), [(-2.0, 2.0), (-2.0, 2.0)]),
        (interval(-1, 3, 1, 1), [(-1.0, 3.0)]),
        (TEARDROP, [(-2.0, 2.0 / 3.0)]),
    ]
    from toricshrink.shrinker import _correction_arrays, _residual_core

    for P, dom in cases:
        s = GridCorrection.from_function(
            lambda x: 0.02 * float(np.sum(x**2)), dom, [8] * P.dim
        )
        v = CorrectedPotential(P, s)
        X = P.sample_interior(rng, 12)
        stable = np.exp(-_residual_core(P, np.zeros(P.dim), X,
                                        *_correction_arrays(s, X, P.dim)))
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
        d1(v, P)
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
        d1(v, P)
    with pytest.raises(TypeError):
        ding(v, P, b_X=[0.0])
    with pytest.raises(TypeError):
        convexity_scan(v, CanonicalPotential(P), P, b_X=[0.0])
    with pytest.raises(TypeError):
        convexity_scan(CanonicalPotential(P), v, P, b_X=[0.0])


# ---------------------------------------------------------------------------
# geodesics and scans

def test_geodesic_blend_and_validation():
    P = interval(-2, 2)
    s1 = GridCorrection.from_function(lambda x: 0.05 * x[0] ** 2, [(-2.0, 2.0)], [9])
    geo = Geodesic(CanonicalPotential(P), CorrectedPotential(P, s1))
    mid = geo.at(0.5)
    x = np.array([0.7])
    assert mid.value(x) == pytest.approx(
        CanonicalPotential(P).value(x) + 0.5 * s1.value(x), abs=1e-12
    )
    other = GridCorrection.from_function(lambda x: x[0], [(-2.0, 2.0)], [12])
    with pytest.raises(ValueError):
        Geodesic(CorrectedPotential(P, s1), CorrectedPotential(P, other))


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
    mid = Geodesic(v0, v1).at(0.5)
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
    # the certified truncation tail (~3e-6 relative here) is constant across t
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
    # the half-strip leaves its grid box only through the open face y = 8;
    # a truncation level taken as the largest <w,x> over P in the box lets
    # the sublevel set reach past that face near the corner (1, 8)
    P = box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3])
    b = find_soliton_vector(P).b
    corr = solve(P, b=b, grid=13).correction
    q = _DingQuadrature(P, corr, 1e-8, b)
    lo, hi = np.array(corr.domain).T
    for X, _ in q.dual_rules + q.linear_rules:
        assert np.all((X >= lo) & (X <= hi))
