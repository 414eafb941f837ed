"""Closed-form weighted integrals checked against analytic values and dense Gauss."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings, strategies as st

from toricshrink.polyhedra import (
    box, from_halfspaces, half_line, vertices,
)
from toricshrink.quadrature import (
    DivergentWeight,
    Simplex,
    divided_difference_exp,
    exp_integral_simplex,
    gauss_integral_simplex,
    gauss_rules,
    gauss_simplex_rule,
    stable_sum,
    plan,
    _dd_exp_batch,
    _fan,
    _geometry,
    _line_rules,
    _moment_multisets,
    _reference_rule,
    _ring,
    _series_terms,
    _windows,
)
from toricshrink import ding, quadrature, shrinker
from toricshrink.shrinker import _initial_weight, find_soliton_vector


def _mp_divided_difference(nodes):
    # the confluent divided-difference table in mpmath, from the float nodes;
    # it shares no code with the kernel
    xs = sorted(mpmath.mpf(float(x)) for x in nodes)
    m = len(xs) - 1
    table = {(i, i): mpmath.exp(x) for i, x in enumerate(xs)}
    for span in range(1, m + 1):
        for i in range(m + 1 - span):
            j = i + span
            if xs[j] == xs[i]:
                table[i, j] = mpmath.exp(xs[i]) / math.factorial(span)
            else:
                table[i, j] = (table[i + 1, j] - table[i, j - 1]) / (xs[j] - xs[i])
    return table[0, m]


def _reference_dd(nodes):
    """exp[nodes] to float from the table, at 30 digits past what it cancels.

    Each of the table's m levels divides by a gap between unequal nodes and
    cancels up to -log10 of the smallest such gap in digits: a fan cut at
    <b,x> = 40 has nodes one ulp apart, -40 and -40.00000000000001.
    """
    gaps = np.diff(np.sort(np.asarray(nodes, dtype=float)))
    gaps = gaps[gaps > 0]
    lost = (len(nodes) - 1) * max(0.0, -math.log10(np.min(gaps))) if len(gaps) else 0.0
    with mpmath.workdps(30 + math.ceil(lost)):
        return float(_mp_divided_difference(nodes))


def simplex_moments(S, b):
    """Integrals of e^{-<b,x>}, x e^{-<b,x>} and x x^T e^{-<b,x>} over S.

    The per-simplex reference for QuadraturePlan.moments, its divided
    differences from _reference_dd. With nodes t = -V b at
    the vertex rows V, the three are n! vol times exp[t], V^T e_1 and
    V^T E_2 V, where (e_1)_i = exp[t, t_i] and (E_2)_il = (1 + delta_il)
    exp[t, t_i, t_l]: appending a copy of node i differentiates with respect
    to t_i, which inserts a factor lambda_i in the barycentric integral
    representation.
    """
    V = np.array(S.points)
    t = list(-(V @ np.asarray(b, dtype=float)))
    k = len(t)
    e1 = np.array([_reference_dd(t + [t[i]]) for i in range(k)])
    E2 = np.empty((k, k))
    for i in range(k):
        for l in range(i, k):
            E2[i, l] = E2[l, i] = (1 + (i == l)) * _reference_dd(t + [t[i], t[l]])
    scale = math.factorial(S.dim) * S.volume
    return scale * _reference_dd(t), scale * (V.T @ e1), scale * (V.T @ E2 @ V)


def random_simplex(rng, n):
    while True:
        V = rng.uniform(-3, 3, size=(n + 1, n))
        S = Simplex(tuple(map(tuple, V)))
        if S.volume > 1e-2:
            return S


# ---------------------------------------------------------------------------
# divided differences

def test_dd_single_node():
    assert divided_difference_exp([0.3]) == pytest.approx(math.exp(0.3), rel=1e-15)


def test_dd_two_distinct_nodes():
    a, b = 0.2, 1.7
    expected = (math.exp(a) - math.exp(b)) / (a - b)
    assert divided_difference_exp([a, b]) == pytest.approx(expected, rel=1e-14)


def test_dd_confluent_nodes():
    # all nodes equal: exp[t,...,t] (m+1 copies) = e^t / m!
    for m in range(6):
        val = divided_difference_exp([0.4] * (m + 1))
        assert val == pytest.approx(math.exp(0.4) / math.factorial(m), rel=1e-13)


def test_dd_regime_boundary_consistency():
    # values straddling the series/matrix switch must agree
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = rng.integers(1, 6)
        center = rng.uniform(-5, 5)
        for spread in (0.99, 1.01):
            nodes = center + rng.uniform(-spread, spread, size=m + 1)
            nodes[0] = center - spread
            nodes[1] = center + spread
            v1 = divided_difference_exp(nodes)
            Z = np.diag(nodes.astype(float)) + np.diag(np.ones(m), 1)
            from scipy.linalg import expm

            v2 = float(expm(Z)[0, m])
            assert v1 == pytest.approx(v2, rel=1e-10)


@given(st.lists(st.floats(-8, 8), min_size=2, max_size=5), st.randoms())
@settings(max_examples=80, deadline=None)
def test_dd_symmetric_under_permutation(nodes, rnd):
    v1 = divided_difference_exp(nodes)
    shuffled = list(nodes)
    rnd.shuffle(shuffled)
    v2 = divided_difference_exp(shuffled)
    assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-300)


def test_dd_positive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        nodes = rng.uniform(-10, 10, size=rng.integers(1, 7))
        assert divided_difference_exp(nodes) > 0.0


def _eighty_term_series(xi, m):
    # the fixed 80-term series with a two-tiny-terms stop, kept as a reference
    kmax = 80
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
        tiny = abs(term) <= 1e-18 * abs(total)
        if k > 2 and tiny and prev_tiny:
            break
        prev_tiny = tiny
    return total


def test_short_series_matches_eighty_terms():
    # every set spans at most 2, so the kernel takes its whole window from
    # the short series
    rng = np.random.default_rng(11)
    radii = []
    for _ in range(2000):
        m = int(rng.integers(1, 6))
        nodes = rng.uniform(0.0, rng.uniform(0.0, 2.0), size=m + 1)
        xi = np.sort(nodes) - np.mean(nodes)
        radii.append(float(np.max(np.abs(xi))))
        ref = math.exp(np.mean(nodes)) * _eighty_term_series(xi, m)
        got = _dd_exp_batch(nodes[None, :], np.arange(m + 1)[None, :])[0, 0]
        assert abs(got - ref) <= 2e-15 * abs(ref)
    assert max(radii) > 1.0


def test_series_term_count_is_bounded():
    # the shifted nodes of a span <= 2 satisfy |xi| < 2
    assert _series_terms(0.0) == 1
    assert _series_terms(1.0) == 20
    assert max(_series_terms(r) for r in np.linspace(0.0, 2.0, 401)) == 26


def test_dd_confluent_nodes_to_order_eight():
    for t in (-3.0, 0.4, 2.5):
        for m in range(9):
            val = divided_difference_exp([t] * (m + 1))
            assert val == pytest.approx(math.exp(t) / math.factorial(m), rel=1e-14)


# ---------------------------------------------------------------------------
# the batched kernel

def test_kernel_matches_fifty_digit_divided_differences():
    # 400 multisets of sizes 2-5 from rows with repeated nodes: each row of 5
    # draws from 4 values whose extremes are its span, and the index rows
    # read its prefixes, so one batch pads rows of every size
    rng = np.random.default_rng(5)
    index = np.array([[0, 1, -1, -1, -1], [0, 1, 2, -1, -1],
                      [0, 1, 2, 3, -1], [0, 1, 2, 3, 4]])
    worst = 0.0
    with mpmath.workdps(50):
        for span in (2.0, 8.0, 30.0, 120.0):
            rows = []
            for _ in range(25):
                u = rng.uniform(-30, 30) + span * np.concatenate(
                    [[-0.5, 0.5], rng.uniform(-0.5, 0.5, size=2)])
                row = rng.permutation(rng.choice(u, size=5))
                row[:2] = rng.permutation(u[:2])
                rows.append(row)
            t = np.array(rows)
            got = _dd_exp_batch(t, index)
            for s, row in enumerate(t):
                for r, idx in enumerate(index):
                    ref = _mp_divided_difference(row[idx[idx >= 0]])
                    worst = max(worst, float(abs(got[s, r] / ref - 1)))
    assert worst < 2e-15


def test_kernel_raises_on_overflow_like_math_exp():
    with pytest.raises(OverflowError):
        divided_difference_exp([710.0, 0.0])
    with pytest.raises(OverflowError):
        _dd_exp_batch(np.array([[710.0, 0.0]]), _moment_multisets(2))


@pytest.mark.parametrize("M", range(1, 7))
def test_window_parents_match_enumeration(M):
    lo, hi, left, right = _windows(M)
    windows = [(i, i + s) for s in range(1, M) for i in range(M - s)]
    assert list(zip(lo.tolist(), hi.tolist())) == windows
    for w, (i, j) in enumerate(windows):
        for parents, (pi, pj) in ((left, (i - 1, j)), (right, (i, j + 1))):
            want = windows.index((pi, pj)) if (pi, pj) in windows else len(windows)
            assert parents[w] == want


def test_narrow_rows_sum_one_series_each(monkeypatch):
    # every row spans at most 2, so no window is wide: the recurrence reads
    # nothing, and only each row's whole window takes the series; rows of
    # one node take none
    windows = []

    def counting(xs, lo, hi):
        windows.append(len(xs))
        return narrow_series(xs, lo, hi)

    narrow_series = quadrature._narrow_series
    monkeypatch.setattr(quadrature, "_narrow_series", counting)
    rng = np.random.default_rng(8)
    t = rng.uniform(-1.0, 1.0, size=(7, 3)) + rng.uniform(-20, 20, size=(7, 1))
    t[:, 2] = t[:, 0]
    index = np.array([[0, -1, -1, -1, -1], [0, 1, -1, -1, -1], [0, 1, 2, -1, -1],
                      [0, 1, 2, 2, -1], [0, 1, 2, 0, 1]])
    got = _dd_exp_batch(t, index)
    assert sum(windows) == len(t) * (len(index) - 1)
    for s, row in enumerate(t):
        for r, idx in enumerate(index):
            ref = _reference_dd(row[idx[idx >= 0]])
            assert got[s, r] == pytest.approx(ref, rel=2e-15)


# ---------------------------------------------------------------------------
# simplex integrals

def test_unit_interval_exponential():
    S = Simplex(((0.0,), (1.0,)))
    for b in (0.3, -1.2, 4.0):
        expected = (1.0 - math.exp(-b)) / b
        assert exp_integral_simplex(S, [b]) == pytest.approx(expected, rel=1e-13)


def test_standard_triangle_area_and_first_moment():
    S = Simplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    assert exp_integral_simplex(S, [0.0, 0.0]) == pytest.approx(0.5, rel=1e-14)
    _, m1, m2 = simplex_moments(S, [0.0, 0.0])
    assert m1[0] == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert m2[0, 1] == pytest.approx(1.0 / 24.0, rel=1e-12)
    assert m2[0, 0] == pytest.approx(1.0 / 12.0, rel=1e-12)


def test_simplex_volume_takes_one_determinant(monkeypatch):
    # _fan's degeneracy check and the Gauss rule's weights read one volume
    S = Simplex(((0.0, 0.0), (2.0, 0.0), (0.0, 3.0)))
    calls = []
    det = np.linalg.det
    monkeypatch.setattr(np.linalg, "det", lambda E: calls.append(1) or det(E))
    assert S.volume == pytest.approx(3.0, rel=1e-15)
    assert S.volume == pytest.approx(3.0, rel=1e-15)
    gauss_simplex_rule(S, 4)
    assert len(calls) == 1


def test_closed_form_matches_dense_gauss_on_random_simplices():
    rng = np.random.default_rng(42)
    checked = 0
    for n in (1, 2, 3):
        for _ in range(17):
            S = random_simplex(rng, n)
            b = rng.uniform(-2, 2, size=n)
            exact = exp_integral_simplex(S, b)
            dense = gauss_integral_simplex(S, lambda X: np.exp(-(X @ b)))
            assert exact == pytest.approx(dense, rel=1e-8)
            checked += 1
    assert checked >= 50


def test_moments_match_dense_gauss():
    rng = np.random.default_rng(9)
    for n in (1, 2, 3):
        for _ in range(6):
            S = random_simplex(rng, n)
            b = rng.uniform(-1.5, 1.5, size=n)
            alphas = [tuple(int(i == j) for i in range(n)) for j in range(n)]
            alphas += [
                tuple((i == j) + (i == k) for i in range(n))
                for j in range(n)
                for k in range(j, n)
            ]
            _, m1, m2 = simplex_moments(S, b)
            for alpha in alphas:
                index = tuple(i for i, a in enumerate(alpha) for _ in range(a))
                exact = m1[index] if len(index) == 1 else m2[index]

                def f(X, alpha=alpha):
                    out = np.exp(-(X @ b))
                    for i, a in enumerate(alpha):
                        out = out * X[:, i] ** a
                    return out

                dense = gauss_integral_simplex(S, f)
                assert exact == pytest.approx(dense, rel=1e-8, abs=1e-12)


def test_translation_covariance():
    rng = np.random.default_rng(4)
    S = random_simplex(rng, 2)
    b = np.array([0.7, -0.4])
    c = np.array([1.3, -2.2])
    shifted = Simplex(tuple(tuple(np.array(p) + c) for p in S.points))
    lhs = exp_integral_simplex(shifted, b)
    rhs = math.exp(-float(b @ c)) * exp_integral_simplex(S, b)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# plans

def test_bounded_plan_square():
    P = box([(-2, 2), (-2, 2)])
    pl = plan(P, [0.0, 0.0])
    assert pl.cones == ()
    assert pl.exp_integral() == pytest.approx(16.0, rel=1e-12)
    b = [1.0, 2.0]
    val = plan(P, b).exp_integral()
    f1 = (math.exp(2) - math.exp(-2)) / 1.0
    f2 = (math.exp(4) - math.exp(-4)) / 2.0
    assert val == pytest.approx(f1 * f2, rel=1e-11)


def test_half_line_plan_matches_analytic():
    P = half_line(-2)
    pl = plan(P, [0.5])
    assert len(pl.simplices) == 0 and pl.cones == ((((-2.0,),), ((1.0,),)),)
    assert pl.exp_integral() == pytest.approx(2.0 * math.e, rel=1e-15)
    # first moment vanishes exactly at b = 1/2: the soliton normalization
    _, m1, m2 = pl.moments()
    assert m1[0] == pytest.approx(0.0, abs=1e-15)
    assert m2[0, 0] == pytest.approx(8.0 * math.e, rel=1e-15)


def test_quadrant_plan_is_product():
    P = box([(-2, None), (-2, None)])
    pl = plan(P, [0.5, 0.5])
    assert pl.exp_integral() == pytest.approx((2.0 * math.e) ** 2, rel=1e-15)


def test_fixed_truncation():
    P = half_line(-2)
    pl = plan(P, [0.5], truncation=12.0)
    assert pl.cones == () and max(x for (x,) in pl.ring) == 24.0
    # the cut drops [24, inf), which integrates to 2 e^{-12}
    assert pl.beyond == ((((24.0,),), ((1.0,),)),)
    assert pl.past().exp_integral() == pytest.approx(2.0 * math.exp(-12.0), rel=1e-15)
    with pytest.raises(ValueError, match="truncation"):
        plan(P, [0.5], truncation=-2.0)


def test_exact_plans_match_closed_forms():
    # F = e^{-<b,v>} / prod <b,r> on a cone v + cone(r_1, ..., r_n) with
    # |det r| = 1: both half-lines, the quadrant and the wedge, whose rays
    # (0, 1) and (1, -1) pair with b to b_2 and b_1 - b_2
    for sign in (1, -1):
        P = from_halfspaces(1, [((sign,), 1, 2)])
        for b in (0.5, 3.0, 1e-3):
            exact = math.exp(2 * b) / b
            assert plan(P, [sign * b]).exp_integral() == pytest.approx(exact, rel=1e-15)
    Q = box([(-2, None), (-2, None)])
    for b1, b2 in ((0.5, 0.5), (3.0, 0.1), (1.0, 1e-30)):
        exact = math.exp(2 * b1 + 2 * b2) / (b1 * b2)
        assert plan(Q, [b1, b2]).exp_integral() == pytest.approx(exact, rel=2e-16)
    W = from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)])
    for b1, b2 in ((1.0, 0.4), (0.75, 0.5), (5.0, 0.02)):
        exact = math.exp(2 * b1) / ((b1 - b2) * b2)
        assert plan(W, [b1, b2]).exp_integral() == pytest.approx(exact, rel=1e-15)


def test_integrals_past_the_float_range_raise():
    # F = e^{2b} / b is 1e300 at b = 1e-300, but the second moment 2 F / b^2
    # is not a float; at b = 1e-310 neither is F
    pl = plan(half_line(-2), [1e-300])
    assert pl.exp_integral() == pytest.approx(1e300, rel=1e-15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError):
            pl.moments()
        with pytest.raises(OverflowError):
            plan(half_line(-2), [1e-310]).exp_integral()


def test_wedge_plan_with_oblique_rays():
    # {x >= -2, x + y >= -2}: the recession rays (0, 1) and (1, -1) are not
    # orthogonal; u = x + 2, v = x + y + 2 make the integral a product
    P = from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)])
    # cut at <b,x> = 6: the triangle (-2, 0), (-2, 16), (14, -16)
    pl = plan(P, [1.0, 0.5], truncation=6)
    assert stable_sum(pl.volumes) == pytest.approx(128.0, rel=1e-14)


def test_divergent_weight_reports_ray():
    P = half_line(-2)
    for b in ([-1.0], [0.0]):
        with pytest.raises(DivergentWeight, match=re.escape("direction (1,)")):
            plan(P, b)


def test_divergent_on_improper_polyhedron():
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    with pytest.raises(DivergentWeight):
        plan(strip, [1.0, 0.0])


def _shoelace_area(P):
    pts = [v.point for v in vertices(P)]
    c = np.mean([[float(x) for x in p] for p in pts], axis=0)
    ring = sorted(pts, key=lambda p: math.atan2(float(p[1]) - c[1], float(p[0]) - c[0]))
    return abs(sum(p[0] * q[1] - q[0] * p[1]
                   for p, q in zip(ring, ring[1:] + ring[:1]))) / 2


@pytest.mark.parametrize("rows", [
    # hexagon: the square with two opposite corners cut
    [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
     ((1, 1), 1, 2), ((-1, -1), 1, 2)],
    # pentagon: the square with one corner cut
    [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
     ((-1, -1), 1, 2)],
])
def test_fan_triangulation_covers_polygon(rows):
    P = from_halfspaces(2, rows)
    area = _shoelace_area(P)
    assert isinstance(area, Fraction)
    assert stable_sum(plan(P, [0.0, 0.0]).volumes) == pytest.approx(float(area), rel=1e-14)


def _ring_area(ring):
    x, y = ring[:, 0], ring[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _orientation(V):
    (p, q, r) = V
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def test_fan_of_plan_rings_tiles_and_is_oriented():
    # plan rings: _ring of random convex corners, and the rings of the 2D
    # soliton_vectors polygons, cut at T = 20 where unbounded; each fan
    # simplex is counterclockwise and they tile the ring
    rng = np.random.default_rng(11)
    rings = []
    for _ in range(40):
        angles = rng.uniform(-np.pi, np.pi, size=rng.integers(3, 9))
        corners = np.stack([np.cos(angles), np.sin(angles)], axis=1) * rng.uniform(0.5, 3.0)
        corners = corners @ rng.uniform(-1, 1, size=(2, 2)) + rng.uniform(-5, 5, size=2)
        rings.append(_ring(corners))
    for _, (n, rows), _ in SOLITON_FAMILY:
        if n == 1:
            continue
        P = from_halfspaces(n, rows)
        T = None if P.is_bounded() else 20.0
        rings.append(plan(P, [1.0, 0.7], truncation=T).ring)
    for ring in rings:
        if _ring_area(ring) < 1e-6:
            continue
        V, volumes = _fan(ring)
        assert all(_orientation(S) > 0 for S in V)
        assert stable_sum(volumes) == pytest.approx(_ring_area(ring), rel=1e-12)


def test_stacked_gauss_rules_are_the_one_simplex_rules():
    rng = np.random.default_rng(5)
    for n in (1, 2):
        simplices = [random_simplex(rng, n) for _ in range(4)]
        X, W = gauss_rules(np.array([S.points for S in simplices]),
                           [S.volume for S in simplices], 7)
        rules = [gauss_simplex_rule(S, 7) for S in simplices]
        assert np.array_equal(X, np.concatenate([x for x, _ in rules]))
        assert np.array_equal(W, np.concatenate([w for _, w in rules]))


# the seven polygons of the soliton_vectors benchmark workload, with the
# number of Newton steps find_soliton_vector takes on each from the general
# start, 0 or _initial_weight where P is unbounded. The four axis-aligned
# products start at their factors' closed-form roots instead and take none
SOLITON_FAMILY = (
    ("teardrop", (1, [((1,), 1, 2), ((-1,), 3, 2)]), 6),
    ("rectangle", (2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)]), 6),
    ("pentagon", (2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
                      ((-1, -1), 1, 2)]), 4),
    ("quadrant", (2, [((1, 0), 1, 2), ((0, 1), 1, 2)]), 6),
    ("half_strip", (2, [((1, 0), 1, 2), ((-1, 0), 2, 2), ((0, 1), 3, 2)]), 5),
    ("hexagon", (2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
                     ((1, 1), 1, 2), ((-1, -1), 1, 2)]), 0),
    ("triangle", (2, [((1, 0), 1, 2), ((0, 1), 2, 2), ((-2, -3), 1, 2)]), 5),
)
PRODUCTS = ("teardrop", "rectangle", "quadrant", "half_strip")


def _weights(P):
    # b = 0 puts every node at 0 (every window narrow) where P is bounded;
    # the general start of unbounded P is _initial_weight instead
    sol = np.array(find_soliton_vector(P).b)
    start = np.zeros(P.dim) if P.is_bounded() else _initial_weight(P)
    return start, sol, sol + np.linspace(0.2, -0.1, P.dim)


@pytest.mark.parametrize("name, spec, iterations", SOLITON_FAMILY)
def test_plan_kernel_matches_per_simplex_sums(name, spec, iterations):
    # unbounded P is cut at <b,x> = 40, which makes wide simplices. The
    # moment of degree q is compared relative to R^q F, R the largest |x| on
    # the plan, which bounds it: m1 cancels to ~0 at the soliton vector.
    P = from_halfspaces(*spec)
    for b in _weights(P):
        pl = plan(P, b, truncation=None if P.is_bounded() else 40.0)
        simplices = [Simplex(tuple(map(tuple, V))) for V in pl.simplices]
        parts = [simplex_moments(S, b) for S in simplices]
        got = pl.moments()
        R = float(np.max(np.linalg.norm(pl.ring, axis=1)))
        for q in range(3):
            exact = np.apply_along_axis(stable_sum, 0, np.array([p[q] for p in parts]))
            assert np.all(np.abs(got[q] - exact) <= 1e-14 * R**q * got[0])
        F = stable_sum([p[0] for p in parts])
        assert abs(pl.exp_integral() - F) <= 1e-14 * F


@pytest.mark.parametrize("P", [from_halfspaces(*spec) for _, spec, _ in SOLITON_FAMILY] + [
    from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)]),
    half_line(-2),
    from_halfspaces(1, [((-1,), 1, 2)]),
    from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((2, 1), 1, 5), ((1, 2), 1, 5)]),
], ids=[name for name, _, _ in SOLITON_FAMILY]
    + ["wedge", "half_line", "half_line_flipped", "quadrant_cut_twice"])
def test_exact_plan_matches_a_cut_at_eighty(P):
    # the tail beyond <b,x> = 80 is below e^{-70} relative at these weights.
    # The quadrant cut twice has a fan, a half-strip and a corner.
    # By Cauchy-Schwarz |m1_i| <= sqrt(F m2_ii) and |m2_il| <= sqrt(m2_ii m2_ll),
    # so each moment is compared relative to its bound: m1 cancels at the
    # soliton vector. Bounded P has no cut, and both plans are the same.
    for b in _weights(P):
        exact = plan(P, b).moments()
        cut = plan(P, b, truncation=80.0).moments()
        F, _, m2 = exact
        d = np.sqrt(np.diag(m2))
        for q, scale in enumerate((F, np.sqrt(F) * d, np.outer(d, d))):
            assert np.all(np.abs(exact[q] - cut[q]) <= 1e-14 * scale)


def test_masked_lanes_raise_no_warnings():
    # wide spans put most windows on the recurrence and pad every short row;
    # no masked lane may overflow, divide by zero or form 0/0. The nodes are
    # those of a quadrant plan cut at <b,x> = 100
    Q = from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for b in ([1.0, 1.0], [0.05, 1.0], [3.0, 0.1]):
            pl = plan(Q, b, truncation=100.0)
            t = -(pl.simplices @ np.array(b))
            assert np.ptp(t) > 80
            assert np.all(np.isfinite(_dd_exp_batch(t, _moment_multisets(3))))
        rng = np.random.default_rng(4)
        for centre in (700.0, -700.0):
            t = centre + rng.uniform(-3, 3, size=(6, 3))
            t[:, 1] = t[:, 0]
            got = _dd_exp_batch(t, _moment_multisets(3))
            for s, row in enumerate(t):
                for r, idx in enumerate(_moment_multisets(3)):
                    ref = _reference_dd(row[idx[idx >= 0]])
                    assert got[s, r] == pytest.approx(ref, rel=2e-15)


UNBOUNDED = [
    (half_line(-2), ([0.5], [3.0], [0.01])),
    (from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 2, 2), ((0, 1), 3, 2)]),
     ([-0.72, 1.5], [2.0, 0.05], [0.0, 4.0])),
    (from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2)]),
     ([0.5, 0.5], [0.05, 1.0], [3.0, 0.1])),
    (from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)]),
     ([1.0, 0.4], [0.75, 0.5], [5.0, 0.02])),
]
UNBOUNDED_IDS = ["half_line", "half_strip", "quadrant", "oblique_wedge"]


@pytest.mark.parametrize("P, weights", UNBOUNDED, ids=UNBOUNDED_IDS)
def test_cut_and_past_make_the_exact_plan(P, weights):
    # a cut above every vertex leaves conv(crossings) + rec(P) past it, as
    # face x cone pieces, so the two plans together integrate P exactly.
    # By Cauchy-Schwarz |m1| <= sqrt(F tr m2) and |m2_il| <= tr m2
    verts = np.array([[float(x) for x in v.point] for v in vertices(P)])
    for b in weights:
        F, m1, m2 = plan(P, b).moments()
        top = float(np.max(verts @ b))
        for T in (top + 0.5, top + 3.0, top + 12.0):
            pl = plan(P, b, truncation=T)
            cut, past = pl.moments(), pl.past().moments()
            assert past[0] > 0.0 and len(pl.past().simplices) == 0
            for q, scale in enumerate((F, math.sqrt(F * np.trace(m2)), np.trace(m2))):
                assert np.all(np.abs(cut[q] + past[q] - (F, m1, m2)[q]) <= 2e-15 * scale)
            shifted = pl.past().moments(1.5)
            for q in range(3):
                assert np.allclose(shifted[q], math.exp(-1.5) * past[q], rtol=1e-15, atol=0.0)


def _reference_rung(P, beta, b_X, T, tol):
    """Whether the Ding cut at <beta,x> = T meets tol: its tail, dropped share
    and spill from the exact plans of P and of P past the cut, the polyhedron
    <2 beta, x> >= 2T (2 beta is integral) on P's facets along a ray."""
    normal = [int(round(2.0 * x)) for x in beta]
    g = math.gcd(*normal)
    along = [f for f in P.facets
             if any(np.dot(f.normal, r) == 0 for r in P.recession_rays())]
    past = from_halfspaces(P.dim, [(f.normal, f.label, f.offset) for f in along]
                           + [(tuple(x // g for x in normal), g, -2 * Fraction(T))])
    G, _, m2 = plan(past, beta).moments()
    if G + math.sqrt(G * np.trace(m2)) + np.trace(m2) > tol:
        return False
    c = float(np.max(-(np.array([[float(x) for x in v.point] for v in vertices(P)]) @ b_X)))
    G, m1, m2 = plan(past, b_X).moments(c)
    F = plan(P, b_X).exp_integral(c) - G
    if G / (F + G) > tol:
        return False
    W, a = P.scaled_normal_matrix(), P.offsets_array()
    square = sum(w @ m2 @ w + 2.0 * ak * (w @ m1) + (ak * ak + 1.0 / math.e) * G
                 for w, ak in zip(W, a))
    return 0.5 * square / F <= tol


@pytest.mark.parametrize("P, weights", UNBOUNDED, ids=UNBOUNDED_IDS)
def test_canonical_ladder_stops_at_the_first_rung_that_meets_tol(P, weights, monkeypatch):
    levels = []

    def recording_plan(P, b, truncation=None):
        levels.append(truncation)
        return plan(P, b, truncation)

    monkeypatch.setattr(ding, "build_plan", recording_plan)
    beta = ding._beta(P)
    verts = np.array([[float(x) for x in v.point] for v in vertices(P)])
    for b_X in weights:
        b_X = np.array(b_X)
        for tol in (1e-8, 1e-10, 1e-14):
            levels.clear()
            pl, tail, dropped, spill, _, _ = ding._fitted_plan(P, beta, None, tol, b_X)
            assert max(tail, dropped, spill) <= tol
            assert levels[0] == max(1.0, float(np.max(verts @ beta)) + P.dim + 2.0)
            assert all(T1 == T0 * 1.3 for T0, T1 in zip(levels, levels[1:]))
            assert float(np.max(pl.ring @ beta)) == pytest.approx(levels[-1], rel=1e-14)
            assert _reference_rung(P, beta, b_X, levels[-1], tol)
            assert len(levels) == 1 or not _reference_rung(P, beta, b_X, levels[-2], tol)


@pytest.mark.parametrize("name, spec, iterations", SOLITON_FAMILY)
def test_soliton_vector_takes_the_same_newton_steps(name, spec, iterations, monkeypatch):
    # a product's closed-form start passes Newton's first test; read as no
    # product, it takes the general start's steps
    P = from_halfspaces(*spec)
    assert find_soliton_vector(P).iterations == (0 if name in PRODUCTS else iterations)
    monkeypatch.setattr(shrinker, "_product_factors", lambda _: None)
    assert find_soliton_vector(P).iterations == iterations


# b of each SOLITON_FAMILY polygon. On the products, each component is the
# root of its factor's 1D barycentre int x e^{-bx} = 0, found by mpmath at
# 50 digits and rounded; the others are pinned to the last bit: which
# windows the kernel sums its series on is its own business, the minimiser
# is not
SOLITON_VECTORS = {
    "teardrop": (-1.3475669885427848,),
    "rectangle": (-1.3475669885427848, 0.7163752666356875),
    "pentagon": (-0.2173738317700386, -0.2173738317700386),
    "quadrant": (0.5, 0.5),
    "half_strip": (-0.7163752666356875, 1.5),
    "hexagon": (0.0, 0.0),
    "triangle": (-0.6439467652527258, -0.6143834711203041),
}


@pytest.mark.parametrize("name, spec, iterations", SOLITON_FAMILY)
def test_soliton_vector_is_pinned_and_reports_its_step(name, spec, iterations):
    sol = find_soliton_vector(from_halfspaces(*spec))
    want = np.array(SOLITON_VECTORS[name])
    assert np.all(np.abs(np.array(sol.b) - want) <= 1e-15 * np.abs(want))
    if name not in PRODUCTS:
        assert sol.b == SOLITON_VECTORS[name]
    assert sol.achieved <= 1e-10


def _log_F_second(P, b, h):
    # D^2 log F[h, h] at b: the variance of <h, x> under the law ~ e^{-<b,x>} on P
    F, g, H = shrinker.grad_hess_F(P, b)
    return float(h @ H @ h) / F - (float(g @ h) / F) ** 2


@pytest.mark.parametrize("name, P", [(name, from_halfspaces(*spec))
                                     for name, spec, _ in SOLITON_FAMILY] + [
    ("wedge", from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)])),
    ("quadrant_cut_twice",
     from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((2, 1), 1, 5), ((1, 2), 1, 5)])),
    ("half_line", half_line(-2)),
], ids=[name for name, _, _ in SOLITON_FAMILY] + ["wedge", "quadrant_cut_twice", "half_line"])
def test_log_F_is_standard_self_concordant(name, P):
    # log F is the cumulant generating function of the log-concave law
    # ~ e^{-<b,x>} on P, whose third central moment along any h is at most
    # 2 sigma^3 (Bubeck & Eldan, "The entropic barrier", COLT 2015):
    # |D^3 log F[h, h, h]| <= 2 (D^2 log F[h, h])^{3/2}, which makes
    # find_soliton_vector's Newton step safe without a line search. D^3 is a
    # central difference of D^2 along h with a step of 1e-4 sigma, whose
    # truncation error is about 1e-8 relative. The exponential law on the
    # half-line attains the bound
    rng = np.random.default_rng(33)
    b_X = np.array(find_soliton_vector(P).b)
    ratios = []
    for b in (b_X, b_X + rng.uniform(-0.1, 0.1, P.dim)):
        for _ in range(3):
            h = rng.normal(size=P.dim)
            h /= np.linalg.norm(h)
            d2 = _log_F_second(P, b, h)
            eps = 1e-4 / math.sqrt(d2)
            d3 = (_log_F_second(P, b + eps * h, h) - _log_F_second(P, b - eps * h, h)) / (2 * eps)
            ratios.append(abs(d3) / d2**1.5)
    assert max(ratios) <= 2.0 * (1 + 1e-5)
    if name == "half_line":
        assert min(ratios) >= 2.0 * (1 - 1e-5)


def test_plans_of_one_polyhedron_share_its_geometry():
    P = box([(-2, None), (-2, 2)])
    p1, p2 = plan(P, [0.7, 0.1]), plan(P, [1.3, -0.4])
    for f in ("ring", "simplices", "volumes", "cones"):
        assert getattr(p1, f) is getattr(p2, f)
    arrays = [p1.ring, p1.simplices, p1.volumes] + [c.rows for c in p1.cones]
    g = _geometry(P)
    arrays += [g.verts, g.rays, g.edges, plan(P, [0.7, 0.1], truncation=9.0).beyond[0].rows]
    for a in arrays:
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0


def test_cached_geometry_still_checks_every_weight():
    P = from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)])
    plan(P, [1.0, 0.5])
    # the first ray of the skeleton's order on which <b,r> <= 0
    for b, ray in (([0.0, 1.0], (1, -1)), ([1.0, -1.0], (0, 1)),
                   ([-1.0, -1.0], (0, 1)), ([-1.0, 0.5], (1, -1))):
        with pytest.raises(DivergentWeight, match=re.escape(f"direction {ray}")):
            plan(P, b)
    cube = box([(-2, 2)] * 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="dimensions 1 and 2"):
            plan(cube, [0.0, 0.0, 0.0])


def test_plan_rejects_dimension_three():
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        plan(box([(-2, 2)] * 3), [0.0, 0.0, 0.0])


def test_plan_deterministic():
    P = box([(-2, None), (-2, 2)])
    p1 = plan(P, [0.7, 0.1])
    p2 = plan(P, [0.7, 0.1])
    assert all(np.array_equal(getattr(p1, f), getattr(p2, f))
               for f in ("ring", "simplices", "volumes"))
    assert p1.cones == p2.cones
    assert p1.exp_integral() == p2.exp_integral()


def _duffy_rule(S, order):
    # the per-call Duffy collapse of the shared 1D rule, kept as a reference
    n = S.dim
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
    V = np.array(S.points)
    X = V[0] + lam @ (V[1:] - V[0])
    W = W * math.factorial(n) * S.volume
    return X, W


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("order", [20, 25, 30])
def test_cached_gauss_rule_is_bitwise_the_duffy_rule(n, order):
    rng = np.random.default_rng(100 * n + order)
    for _ in range(5):
        S = random_simplex(rng, n)
        X, W = gauss_simplex_rule(S, order)
        X_ref, W_ref = _duffy_rule(S, order)
        assert np.array_equal(X, X_ref)
        assert np.array_equal(W, W_ref)


@pytest.mark.parametrize("order", [1, 20, 25])
def test_reference_rule_integrates_monomials_to_rounding(order):
    # Christoffel weights: int_0^1 u^k du = 1/(k+1) for every k < 2 order;
    # order 1 is the midpoint rule
    lam, w = _reference_rule(1, order)
    k = np.arange(2 * order)[:, None]
    err = np.abs(np.sum(w * lam[:, 0] ** k, axis=1) * (k[:, 0] + 1) - 1.0)
    assert np.max(err) <= 1e-14


def test_gauss_rule_returns_fresh_arrays():
    S = Simplex(((0.0, 0.0), (2.0, 0.0), (0.0, 1.0)))
    X, W = gauss_simplex_rule(S, 20)
    X0, W0 = X.copy(), W.copy()
    X[:] = np.nan
    W[:] = np.nan
    X1, W1 = gauss_simplex_rule(S, 20)
    assert np.array_equal(X1, X0)
    assert np.array_equal(W1, W0)
    lam, w = _reference_rule(2, 20)
    assert not lam.flags.writeable
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 0.0


# ---------------------------------------------------------------------------
# summation

def test_stable_sum_exact():
    assert stable_sum([1e16, 1.0, -1e16]) == 1.0
    rng = np.random.default_rng(2)
    vals = list(rng.uniform(-1, 1, size=1000))
    assert stable_sum(vals) == math.fsum(vals)
