"""Soliton vector, stable residual, and the closed-form solver against oracles."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from scipy.optimize import brentq

from toricshrink.cli import main
from toricshrink.ding import convexity_scan
from toricshrink.polyhedra import box, from_halfspaces, half_line, interval, \
    save_polyhedron
from toricshrink.potentials import CanonicalPotential, CorrectedPotential, GridCorrection, \
    NoConvergence, lobatto_nodes
from toricshrink.quadrature import DivergentWeight
from toricshrink.shrinker import (
    NotAProduct,
    _PHI2_TAYLOR,
    _axis_second_derivative,
    _axis_series,
    _defect,
    _product_factors,
    find_soliton_vector,
    grad_hess_F,
    residual,
    solve,
    weighted_volume,
)

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


def teardrop_shooting_b():
    # 1/u'' solves W' = bW - x with W vanishing at both endpoints; eliminating
    # the free constant gives 3(1-2b)e^{8b/3} = 2b+3
    psi = lambda b: 3.0 * (1.0 - 2.0 * b) * math.exp(8.0 * b / 3.0) - (2.0 * b + 3.0)
    return brentq(psi, -2.0, -0.5, xtol=1e-14)


def teardrop_variational_b():
    # critical point of F: the first weighted moment of the interval vanishes
    def moment(b):
        anti = lambda x: -math.exp(-b * x) * (x / b + 1.0 / b**2)
        return anti(2.0 / 3.0) - anti(-2.0)

    return brentq(moment, -2.0, -0.5, xtol=1e-14)


# ---------------------------------------------------------------------------
# the functional F

def test_weighted_volume_values():
    assert weighted_volume(interval(-2, 2), [0.0]) == pytest.approx(4.0, rel=1e-12)
    assert weighted_volume(half_line(-2), [0.5]) == pytest.approx(
        2.0 * math.e, rel=1e-10
    )


def test_grad_hess_match_finite_differences():
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(4):
        cases.append((interval(-2, 2), rng.uniform(-1, 1, size=1)))
        cases.append((box([(-2, 2), (-2, 2)]), rng.uniform(-1, 1, size=2)))
    cases.append((half_line(-2), np.array([0.8])))
    cases.append((box([(-2, None), (-2, 2)]), np.array([0.6, -0.3])))
    assert len(cases) >= 10
    h = 1e-5
    for P, b in cases:
        F, g, H = grad_hess_F(P, b)
        n = P.dim
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            gfd = (weighted_volume(P, b + e)
                   - weighted_volume(P, b - e)) / (2 * h)
            assert g[j] == pytest.approx(gfd, rel=1e-6, abs=1e-8)
            _, gp, _ = grad_hess_F(P, b + e)
            _, gm, _ = grad_hess_F(P, b - e)
            hfd = (gp - gm) / (2 * h)
            assert np.allclose(H[j], hfd, rtol=1e-5, atol=1e-7)


def test_hessian_positive_definite_at_random_weights():
    rng = np.random.default_rng(21)
    count = 0
    for P in (interval(-2, 2), box([(-2, 2), (-2, 2)]), half_line(-2)):
        for _ in range(7):
            b = rng.uniform(-0.8, 0.8, size=P.dim)
            if not P.is_bounded():
                b = np.abs(b) + 0.3
            _, _, H = grad_hess_F(P, b)
            np.linalg.cholesky(H)
            count += 1
    assert count >= 20


# ---------------------------------------------------------------------------
# soliton vectors

def test_soliton_vector_half_line():
    sol = find_soliton_vector(half_line(-2), tol=1e-12)
    assert abs(sol.b[0] - 0.5) <= 1e-8


def test_soliton_vector_symmetric_cases():
    sol = find_soliton_vector(interval(-2, 2), tol=1e-12)
    assert abs(sol.b[0]) <= 1e-10
    sol2 = find_soliton_vector(box([(-2, 2), (-2, 2)]), tol=1e-12)
    assert np.linalg.norm(sol2.b) <= 1e-10


def test_soliton_vector_quadrant_and_mixed():
    sol = find_soliton_vector(box([(-2, None), (-2, None)]), tol=1e-12)
    assert np.allclose(sol.b, [0.5, 0.5], atol=1e-8)
    sol2 = find_soliton_vector(box([(-2, 2), (-2, None)]), tol=1e-12)
    assert abs(sol2.b[0]) <= 1e-8 and abs(sol2.b[1] - 0.5) <= 1e-8


def test_teardrop_characterizations_agree():
    b_ode = teardrop_shooting_b()
    b_var = teardrop_variational_b()
    assert b_ode == pytest.approx(b_var, abs=1e-12)
    sol = find_soliton_vector(TEARDROP, tol=1e-12)
    assert sol.b[0] == pytest.approx(b_ode, abs=1e-9)


def test_soliton_vector_rejects_improper():
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    with pytest.raises(DivergentWeight):
        find_soliton_vector(strip)


def _barycentre_root(lo, hi):
    # the root of int_lo^hi x e^{-bx} dx = 0 at 50 digits: b = z/w, where
    # coth z - 1/z = c/w on [c - w, c + w], and |z| lies in [|y|, 1/(1 - |y|)]
    with mpmath.workdps(50):
        lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in map(Fraction, (lo, hi)))
        c, w = (lo + hi) / 2, (hi - lo) / 2
        y = abs(c / w)
        z = mpmath.findroot(lambda z: mpmath.coth(z) - 1 / z - y, (y, 1 / (1 - y)),
                            solver="anderson")
        return float(mpmath.sign(c) * z / w)


@pytest.mark.parametrize("lo, hi, labels", [
    ("-1/100", 100, (1, 1)),
    (-100, "1/100", (1, 1)),
    ("-1/1000000", 1, (1, 1)),
    (-1, 3, (2, 5)),
    (-2, "2.000000001", (1, 1)),
], ids=["far_right", "far_left", "near_zero_end", "orbifold", "near_symmetric"])
def test_interval_starts_at_its_closed_form_root(lo, hi, labels):
    # b is the factor's root, which Newton accepts without a step. F < 1 on
    # the near_zero_end interval, and on near_symmetric the gradient is small
    # wherever b is, so the test |grad F| <= tol max(1, F) is absolute there
    # and would pass well away from b_X (3.7500003e-10 against 3.7499999981e-10)
    sol = find_soliton_vector(interval(lo, hi, *labels))
    want = _barycentre_root(lo, hi)
    assert sol.iterations == 0
    assert abs(sol.b[0] - want) <= 1e-15 * abs(want)


def test_half_line_factors_are_exact():
    # b = -1/end on a half-line: exactly 1/2, and 3/2 on the half-strip's y
    # axis, y >= -2/3, where its defect is exactly 0
    assert find_soliton_vector(half_line(-2)).b == (0.5,)
    assert find_soliton_vector(box([(-2, None), (-2, None)])).b == (0.5, 0.5)
    strip = box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3])
    assert find_soliton_vector(strip).b[1] == 1.5
    res = solve(strip)
    assert res.b[1] == 1.5
    assert _defect(_product_factors(strip)[1].facets[0], res.b[1]) == 0.0


def test_non_products_take_the_general_start():
    # unbounded and not a product, the wedge starts at _initial_weight and
    # the quadrant cut twice too; the strip's y axis has no facet. The
    # wedge's b_X is (1, 1/2) exactly: x + 2 and x + y + 2 are independent
    # exponential laws of mean 2 there. The cut quadrant's is t(1, 1), t the
    # root of its barycentre's x component, 0.53269454916434524499871... by
    # mpmath at 60 digits
    wedge = from_halfspaces(2, [((1, 0), 1, 2), ((1, 1), 1, 2)])
    cut = from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((2, 1), 1, 5), ((1, 2), 1, 5)])
    for P, b, steps in ((wedge, (1.0, 0.5), 7),
                        (cut, (0.5326945491643452, 0.5326945491643452), 6)):
        sol = find_soliton_vector(P)
        assert (sol.b, sol.iterations) == (b, steps)
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    with pytest.raises(DivergentWeight, match=r"contains the line \(0, 1\)"):
        find_soliton_vector(strip)


@pytest.mark.parametrize("make", [
    lambda k: from_halfspaces(2, [((1, 0), 1, 2 * k), ((0, 1), 1, k), ((-2, -3), 1, k)]),
    lambda k: from_halfspaces(2, [((1, 0), 1, 2 * k), ((0, 1), 2, 2 * k), ((-2, -3), 1, 2 * k)]),
    lambda k: from_halfspaces(2, [((1, 0), 1, 2 * k), ((1, 1), 1, 2 * k)]),
], ids=["small_triangle", "triangle", "wedge"])
def test_soliton_vector_is_scale_free(make):
    # b_X of kP is b_X(P)/k. Newton's decrement does not change under
    # b -> b/k, nor does the general start, so the stop and the steps do not
    # see the scale. A stop with the scale of F or of P ends 4e-5 relative
    # off on the first triangle at k = 1e-3, and a start with no scale puts
    # e^3414 at a vertex of the wedge at k = 1e3
    b1 = np.array(find_soliton_vector(make(1)).b)
    for k in (Fraction(1, 1000), 1000):
        kb = float(k) * np.array(find_soliton_vector(make(k)).b)
        assert np.all(np.abs(kb - b1) <= 1e-13 * np.abs(b1))


@pytest.mark.parametrize("P", [
    half_line(1), from_halfspaces(1, [((-1,), 1, -1)]), interval(1, 3), interval(0, 2),
    half_line(0), box([(1, 3), (-2, 2)]),
], ids=["x>=1", "x<=-1", "[1,3]", "[0,2]", "x>=0", "[1,3]x[-2,2]"])
def test_soliton_vector_needs_the_origin_inside(P):
    # a weighted barycentre lies in the interior, and at a critical point of
    # F it is the origin: with an offset <= 0 there is none, though F -> 0
    # along a direction in which a tol-relative gradient test would pass
    with pytest.raises(ValueError, match="origin is not interior"):
        find_soliton_vector(P)


@pytest.mark.parametrize("k, error, message", [
    (300, NoConvergence, "Hessian of F is singular"),
    (400, OverflowError, "too large for a float"),
], ids=["1e-300", "1e-400"])
def test_soliton_vector_far_out_is_a_numerical_error(k, error, message):
    # on [-10^-k, 1], b_X is about 10^k: at k = 300 the Hessian underflows to
    # [[0.0]], at k = 400 the closed-form start overflows a float; neither is
    # a validation error
    with pytest.raises(error, match=message):
        find_soliton_vector(interval(Fraction(-1, 10**k), 1))


# ---------------------------------------------------------------------------
# residuals of model solutions

def test_gaussian_residual_constant():
    P = half_line(-2)
    rng = np.random.default_rng(3)
    X = P.sample_interior(rng, 200)
    R = residual(P, [0.5], X)
    assert np.std(R) <= 1e-9
    assert np.allclose(R, math.log(2.0), atol=1e-10)


def test_round_sphere_residual_constant():
    P = interval(-2, 2)
    rng = np.random.default_rng(4)
    X = P.sample_interior(rng, 200)
    R = residual(P, [0.0], X)
    assert np.std(R) <= 1e-9
    assert np.allclose(R, -math.log(2.0), atol=1e-12)


def test_square_residual_constant():
    P = box([(-2, 2), (-2, 2)])
    rng = np.random.default_rng(5)
    X = P.sample_interior(rng, 100)
    R = residual(P, [0.0, 0.0], X)
    assert np.allclose(R, -math.log(4.0), atol=1e-12)


def test_residual_defined_on_boundary():
    P = interval(-2, 2)
    vals = residual(P, [0.0], np.array([[-2.0], [2.0], [0.0]]))
    assert np.allclose(vals, -math.log(2.0), atol=1e-12)


def test_residual_matches_unstable_formula_in_interior():
    rng = np.random.default_rng(6)
    for P in (interval(-2, 2), box([(-2, 2), (-2, 2)])):
        dom = [(-2.0, 2.0)] * P.dim
        s = GridCorrection.from_function(
            lambda x: 0.04 * float(np.sum(x**2) - np.prod(x)), dom, [6] * P.dim
        )
        u = CorrectedPotential(P, s)
        b = rng.uniform(-0.3, 0.3, size=P.dim)
        for x in P.sample_interior(rng, 8):
            direct = (
                float(u.gradient(x) @ x)
                - u.value(x)
                - float(np.dot(b, x))
                - math.log(float(np.linalg.det(u.hessian(x))))
            )
            stable = residual(P, b, x, correction=s)
            assert stable == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_residual_affine_shift_property():
    # adding an affine function to s changes R by a constant only
    P = interval(-2, 2)
    rng = np.random.default_rng(7)
    X = P.sample_interior(rng, 20)
    s0 = GridCorrection.from_function(lambda x: 0.05 * x[0] ** 2, [(-2.0, 2.0)], [7])
    s1 = GridCorrection.from_function(
        lambda x: 0.05 * x[0] ** 2 + 0.3 * x[0] - 1.1, [(-2.0, 2.0)], [7]
    )
    R0 = residual(P, [0.1], X, correction=s0)
    R1 = residual(P, [0.1], X, correction=s1)
    diff = R1 - R0
    assert np.max(np.abs(diff - diff.mean())) <= 1e-10
    assert diff.mean() == pytest.approx(1.1, abs=1e-10)


# ---------------------------------------------------------------------------
# closed-form solve

def affine_residual(xs, vals):
    """Sup-norm residual of the best affine fit."""
    A = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    return float(np.max(np.abs(vals - A @ coef)))


def test_solve_round_sphere():
    res = solve(interval(-2, 2), b=[0.0], grid=48)
    assert res.residual_deviation <= 1e-9
    assert res.constant == pytest.approx(-math.log(2.0), abs=1e-9)
    lo, hi = res.domain[0]
    xs = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 60)
    vals = np.array([res.correction.value([x]) for x in xs])
    assert affine_residual(xs, vals) <= 1e-6


def test_solve_gaussian_truncated():
    res = solve(half_line(-2), b=[0.5], grid=48, truncation=12.0)
    assert res.truncated_axes == ((0, "upper"),)
    assert res.domain[0] == (-2.0, 24.0)
    assert res.residual_deviation <= 1e-9
    assert res.constant == pytest.approx(math.log(2.0), abs=1e-9)
    lo, hi = res.domain[0]
    xs = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 60)
    vals = np.array([res.correction.value([x]) for x in xs])
    assert affine_residual(xs, vals) <= 1e-6


def test_solve_square_2d():
    res = solve(box([(-2, 2), (-2, 2)]), b=[0.0, 0.0], grid=16)
    assert res.residual_deviation <= 1e-9
    assert res.constant == pytest.approx(-math.log(4.0), abs=1e-9)
    assert float(np.max(np.abs(res.correction.values))) <= 1e-8


@pytest.mark.parametrize(
    "P, grid",
    [
        # orbifold rectangle: labels 1, 3 on x and 2, 1 on y, even grid
        (box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1]), 16),
        # half-strip: the y axis is cut at the truncation plane
        (box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3]), 13),
    ],
)
def test_solve_2d_is_tensor_sum_of_factor_solves(P, grid):
    b = find_soliton_vector(P).b
    res = solve(P, b=b, grid=grid)
    assert res.residual_deviation <= 1e-9
    # the factor on axis d is cut out by the facets with normal +-e_d
    factors = [from_halfspaces(1, [((f.normal[d],), f.label, f.offset)
                                   for f in P.facets if f.normal[d] != 0])
               for d in range(2)]
    sols = [solve(f, b=[b[d]], grid=grid) for d, f in enumerate(factors)]
    for d, sol in enumerate(sols):
        assert np.array_equal(res.correction.axes[d], sol.correction.axes[0])
    s1, s2 = (sol.correction.values for sol in sols)
    assert np.allclose(res.correction.values, s1[:, None] + s2[None, :],
                       rtol=0.0, atol=1e-12)
    assert res.constant == pytest.approx(sols[0].constant + sols[1].constant,
                                         abs=1e-10)
    assert float(np.max(np.abs(res.correction.values))) > 1e-3


@pytest.mark.parametrize(
    "P, grids",
    [
        (box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1]), (12, 13, 14, 16, 20)),
        (box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3]), (12, 13)),
        (TEARDROP, (48, 64)),
    ],
)
def test_solve_constant_is_grid_independent(P, grids):
    # the gauge s(0) = grad s(0) = 0 is pinned through the interpolant, not
    # at a grid node, so the constant belongs to the equation
    b = find_soliton_vector(P).b
    constants = [solve(P, b=b, grid=g).constant for g in grids]
    assert max(constants) - min(constants) <= 1e-12


def test_solve_fine_teardrop_grid():
    res = solve(TEARDROP, grid=128)
    assert res.residual_deviation <= 1e-9


def teardrop_oracle(b):
    """u'' = 1/W on (-2, 2/3) from the boundary value problem for W."""
    Cc = (2.0 / b - 1.0 / b**2) * math.exp(2.0 * b)

    def W(x):
        return Cc * np.exp(b * x) + x / b + 1.0 / b**2

    def upp_canonical(x):
        return 0.5 / (x + 2.0) + 4.5 / (2.0 - 3.0 * x)

    def spp(x):
        return 1.0 / W(x) - upp_canonical(x)

    return W, spp


def test_teardrop_solver_matches_shooting_oracle():
    b = teardrop_shooting_b()
    res = solve(TEARDROP, b=[b], grid=48)
    assert res.residual_deviation <= 1e-8

    W, spp = teardrop_oracle(b)
    lo, hi = res.domain[0]
    assert (lo, hi) == (-2.0, pytest.approx(2.0 / 3.0))
    xs = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 80)

    # correction values match up to an affine gauge
    s_solver = np.array([res.correction.value([x]) for x in xs])
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    t_fit = np.cos(np.pi * (np.arange(300) + 0.5) / 300)
    c2 = C.chebfit(t_fit, [spp(mid + half * t) for t in t_fit], 200)
    c1 = C.chebint(c2, lbnd=0.0)
    c0 = C.chebint(c1, lbnd=0.0)
    s_oracle = half**2 * C.chebval((xs - mid) / half, c0)
    diff = s_solver - s_oracle
    assert affine_residual(xs, diff) <= 1e-4

    # and the metric itself matches without any gauge freedom
    upp_solver = np.array(
        [res.correction.hessian([x])[0, 0] + 0.5 / (x + 2.0) + 4.5 / (2.0 - 3.0 * x)
         for x in xs]
    )
    assert np.allclose(upp_solver, 1.0 / W(xs), rtol=1e-6, atol=1e-8)


def test_solve_soliton_vector_found_automatically():
    res = solve(interval(-2, 2), grid=24)
    assert abs(res.b[0]) <= 1e-9


def test_solve_rejects_non_product():
    with pytest.raises(NotAProduct):
        solve(pentagon(), b=[0.0, 0.0])


def test_solve_divergent_direction():
    with pytest.raises(DivergentWeight):
        solve(half_line(-2), b=[-1.0])


def test_solve_on_a_strip_is_a_divergent_weight(tmp_path, capsys):
    # every facet of the strip |x| <= 2 is axis-aligned, but it contains the
    # lines along (0, 1), on which no weight is integrable
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    with pytest.raises(DivergentWeight, match="contains the line"):
        solve(strip, b=[0.5, 0.5])
    path = tmp_path / "strip.json"
    save_polyhedron(strip, path)
    assert main(["solve", str(path), "--b", "0.5,0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: validation: polyhedron contains the line")


def mp_axis_solution(lo, m_lo, hi, m_hi):
    """b_X, s'' and s(x) = int_0^x (x - t) s''(t) dt on [lo, hi] at 30 digits.

    b_X is the root of the first moment of e^{-bx}; s'' = 1/W - u_P'' is
    the plain difference, with W from the ODE's closed form seen from the
    nearer end, so each end's W vanishes there exactly.
    """
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    moment = lambda b: (mpmath.exp(-b * lo) * (lo / b + 1 / b**2)
                        - mpmath.exp(-b * hi) * (hi / b + 1 / b**2))
    b = mpmath.findroot(moment, mpmath.mpf("-0.5"))
    mid = (lo + hi) / 2

    def W(t):
        end = lo if t < mid else hi
        return (1 + b * t - (1 + b * end) * mpmath.exp(b * (t - end))) / b**2

    spp = lambda t: 1 / W(t) - m_lo / (2 * (t - lo)) - m_hi / (2 * (hi - t))

    def s(x):
        x = mpmath.mpf(float(x))
        cuts = [0, mid, x] if min(0, x) < mid < max(0, x) else [0, x]
        return mpmath.quad(lambda t: (x - t) * spp(t), cuts)

    return b, spp, s


def test_closed_form_matches_mpmath_at_the_nodes():
    with mpmath.workdps(30):
        bx, _, sx = mp_axis_solution(-2, 1, mpmath.mpf(2) / 3, 3)
        by, _, sy = mp_axis_solution(-1, 2, 2, 1)
        res = solve(TEARDROP, b=[float(bx)], grid=32)
        ref = np.array([float(sx(x)) for x in res.correction.axes[0]])
        assert np.max(np.abs(res.correction.values - ref)) <= 1e-13
        rect = box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1])
        res = solve(rect, b=[float(bx), float(by)], grid=14)
        ref = [np.array([float(f(x)) for x in axis])
               for f, axis in zip((sx, sy), res.correction.axes)]
        assert np.max(np.abs(res.correction.values - (ref[0][:, None] + ref[1]))) <= 1e-13


def test_second_derivative_does_not_cancel_at_the_facets():
    # 1/W and u_P'' both grow like m/(2h) at a facet; their plain
    # difference would lose about log10(1/h) digits there
    h = 10.0 ** -np.arange(1, 9)
    x = np.concatenate([-2.0 + h, 2.0 / 3.0 - h])
    with mpmath.workdps(30):
        b, spp, _ = mp_axis_solution(-2, 1, mpmath.mpf(2) / 3, 3)
        ref = np.array([float(spp(mpmath.mpf(float(t)))) for t in x])
    got = _axis_second_derivative(TEARDROP, float(b))(x)
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_solve_reports_its_offnode_deviation():
    # the series is exact at the nodes; between them the grid interpolant
    # carries the discretization error, which falls with the grid
    rect = box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1])
    b = find_soliton_vector(rect).b
    res = [solve(rect, b=b, grid=g) for g in (8, 12, 24)]
    off = [r.offnode_deviation for r in res]
    assert off[0] > 1e-10 and off[0] > 100 * off[1] and off[2] <= 1e-14
    assert res[0].residual_deviation <= 1e-13 and res[0].iterations == 0


ORBIFOLD_RECTANGLE = from_halfspaces(
    2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)])


@pytest.mark.parametrize("P, grid, tol, converged", [
    # the grid interpolant misses tol between the nodes by about 4e-9,
    # though the residual at the nodes is at rounding
    (ORBIFOLD_RECTANGLE, 8, 1e-11, False),
    # the residual misses tol by rounding alone, the interpolant meets it
    (TEARDROP, 64, 1e-15, True),
], ids=["rectangle_8", "teardrop_64"])
def test_solve_reports_whether_its_offnode_deviation_meets_tol(P, grid, tol, converged):
    res = solve(P, grid=grid, tol=tol)
    assert res.converged is converged
    assert (res.offnode_deviation <= tol) is converged
    if converged:
        assert res.offnode_deviation <= 1e-16 and res.residual_deviation > tol
    else:
        assert 1e-9 < res.offnode_deviation < 1e-8 and res.residual_deviation <= 1e-13


def sampled_offnode_deviation(P, res):
    """The largest gap between the grid interpolant and the series at the
    grid's midpoints, and the largest |s| at the nodes: the sample that the
    tail bound replaced, computed from the same series as before."""
    mids = [0.5 * (x[1:] + x[:-1]) for x in res.correction.axes]
    s_mids = 0.0
    for d, (F, (lo, hi)) in enumerate(zip(_product_factors(P), res.domain)):
        if len(F.facets) > 1:
            stack = _axis_series(F, res.b[d], lo, hi)
            t = (mids[d] - 0.5 * (lo + hi)) / (0.5 * (hi - lo))
            s_d = (C.chebvander(t, len(stack) - 1) @ stack)[:, 0]
        else:
            s_d = np.zeros(len(mids[d]))
        s_mids = np.add.outer(s_mids, s_d) if d else s_d
    pts = np.stack(np.meshgrid(*mids, indexing="ij"), axis=-1).reshape(-1, P.dim)
    gap = np.max(np.abs(res.correction.value(pts) - np.ravel(s_mids)))
    return gap, np.max(np.abs(res.correction.values))


HALF_STRIP = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 2, 2), ((0, 1), 3, 2)])
LABELED_BOX = box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1])


@pytest.mark.parametrize("P, grid", [
    *((ORBIFOLD_RECTANGLE, g) for g in (12, 13, 14, 16, 20)),
    (HALF_STRIP, 12), (HALF_STRIP, 13), (TEARDROP, 48), (TEARDROP, 64),
    *((LABELED_BOX, g) for g in (8, 12, 24)),
], ids=[*(f"rectangle_{g}" for g in (12, 13, 14, 16, 20)), "half_strip_12", "half_strip_13",
        "teardrop_48", "teardrop_64", *(f"labeled_box_{g}" for g in (8, 12, 24))])
def test_the_offnode_bound_dominates_the_midpoint_sample(P, grid):
    # 2 sum_{k>N} |c_k| bounds the interpolant's miss everywhere in exact
    # arithmetic, so it holds the midpoint sample up to rounding, and it is
    # tight wherever the tail is above rounding
    res = solve(P, grid=grid)
    sample, scale = sampled_offnode_deviation(P, res)
    assert res.offnode_deviation >= sample - 1e-15 * scale
    if sample >= 1e-13:
        assert res.offnode_deviation <= 1.5 * sample


@pytest.mark.parametrize("labels, converged, grid", [
    ((1, 10), True, (28,)), ((1, 30), False, (258,)), ((1, 60), True, (64,)),
    ((7, 200), False, (258,)),
], ids=["1_10", "1_30", "1_60", "7_200"])
def test_an_unresolved_series_is_not_converged(labels, converged, grid):
    # on x >= -2/m_0, -x >= -2/m_1 at b_X, the s'' series of (1, 30) and
    # (7, 200) does not chop by n = 256, though the residual meets tol and
    # the default grid, one node per coefficient, leaves no tail: converged
    # says so
    P = from_halfspaces(1, [((1,), labels[0], 2), ((-1,), labels[1], 2)])
    res = solve(P, b=find_soliton_vector(P).b)
    assert res.converged is converged and res.grid == grid
    assert res.offnode_deviation == 0.0 and res.residual_deviation <= 1e-10


QUADRANT = box([(-2, None), (-2, None)])
DEFAULT_GRIDS = [(TEARDROP, (17,)), (ORBIFOLD_RECTANGLE, (17, 14)), (HALF_STRIP, (14, 3)),
                 (half_line(-2), (3,)), (QUADRANT, (3, 3))]
DEFAULT_IDS = ["teardrop", "rectangle", "half_strip", "half_line", "quadrant"]


@pytest.mark.parametrize("P, grid", DEFAULT_GRIDS, ids=DEFAULT_IDS)
def test_a_default_solve_takes_one_node_per_series_coefficient(P, grid):
    # on as many Lobatto nodes as its series has coefficients, a factor's
    # interpolant is its series, so the tail bound is exactly 0; an
    # unbounded factor, where s = 0, keeps 3 nodes, one of them inside P
    res = solve(P)
    assert res.grid == grid and res.correction.values.shape == grid
    assert res.offnode_deviation == 0.0 and res.converged is True


@pytest.mark.parametrize("grid", [None, 16], ids=["default", "16"])
@pytest.mark.parametrize("P", [ORBIFOLD_RECTANGLE, HALF_STRIP], ids=["rectangle", "half_strip"])
def test_the_factor_residuals_sum_to_the_2d_residual(P, grid):
    # R_P, <grad s, x> - s and log D split over the factors, so the outer sum
    # of the 1D residuals that solve takes is the 2D residual of the tensor
    # sum, read here through the grid correction at every node
    res = solve(P, grid=grid)
    X = np.stack(np.meshgrid(*res.correction.axes, indexing="ij"), axis=-1).reshape(-1, 2)
    R = residual(P, res.b, X, correction=res.correction)
    assert abs(float(np.mean(R)) - res.constant) <= 1e-14
    assert res.residual_deviation <= 1e-14
    assert float(np.max(np.abs(R - np.mean(R)))) <= 1e-14


@pytest.mark.parametrize("P", [P for P, _ in DEFAULT_GRIDS], ids=DEFAULT_IDS)
def test_a_scan_to_a_default_solve_reads_what_a_fine_grid_gives(P):
    # the default grid holds each factor's series whole, so the Ding scan
    # from the canonical potential sees the solution that 48 nodes (1D) or
    # 24 per axis carry
    u = CanonicalPotential(P)
    new, old = (convexity_scan(u, CorrectedPotential(P, solve(P, grid=g).correction), P,
                               num_t=3) for g in (None, 48 if P.dim == 1 else 24))
    for a, b in zip(new, old):
        assert a.d1 == pytest.approx(b.d1, rel=1e-14, abs=0.0)
        assert a.value == pytest.approx(b.value, rel=1e-14, abs=0.0)


def test_teardrop_verdicts_near_the_soliton_vector():
    # away from b_X, W from the two facets disagrees by O(|b - b_X|), and
    # the residual shows it
    b = find_soliton_vector(TEARDROP).b[0]
    res = solve(TEARDROP, b=[b + 1e-8])
    assert 1e-9 <= res.residual_deviation <= 1e-6
    with pytest.raises(NoConvergence, match="residual deviation"):
        solve(TEARDROP, b=[b + 1e-4])


@pytest.mark.parametrize("b", [5.0, 800.0, -800.0])
def test_interval_far_from_its_soliton_vector_does_not_converge(b):
    # far from b_X the nearer-facet profiles turn nonconvex (b = 5), which
    # reads as a missed soliton vector, or overflow (|b| = 800), which the
    # series refuses to sample; neither gives a numpy warning
    match = "soliton vector" if b == 5.0 else "profile of the factor on .* is not finite"
    with pytest.raises(NoConvergence, match=match):
        solve(interval(-2, 2), b=[b])


def test_an_overflowing_profile_is_not_blamed_on_b():
    # b_X = -1500 exactly; phi_2(n b h) overflows on the far side of the
    # midpoint, where |b| h passes about 709, and its NaN coefficients
    # would chop to a zero series and a residual deviation of 6
    P = from_halfspaces(1, [((1,), 1, 2), ((-1,), 3000, 2)])
    b = find_soliton_vector(P)
    assert b.b == (-1500.0,) and b.achieved <= 1e-12
    with pytest.raises(NoConvergence, match=r"factor on \[-2, 0.000666667\] is not finite"):
        solve(P, b=b.b)


def test_the_last_grid_node_stays_in_the_factor():
    # lo + (hi - lo) rounds past hi on [-2, 2e-5], where the residual was
    # asked for outside P (ValueError); with the ends set to lo and hi,
    # solve reports the profile's overflow
    P = interval(-2, "1/50000", 1, 100000)
    assert lobatto_nodes(-2.0, 2e-5, 64)[-1] == 2e-5
    with pytest.raises(NoConvergence, match="not finite"):
        solve(P, b=find_soliton_vector(P).b, grid=64)


@pytest.mark.parametrize("grid", [(12,), (12, 13, 14)])
def test_a_per_axis_grid_has_one_entry_per_axis(grid):
    rect = box([(-2, "2/3"), (-1, 2)], labels=[1, 3, 2, 1])
    with pytest.raises(ValueError, match=f"needs 2 entries, one per axis, not {len(grid)}"):
        solve(rect, grid=grid)


def reference_axis_series(F, b, lo, hi):
    """The factor series as numpy's chebinterpolate, chebint and pad form
    it, with phi_2's Taylor series through np.polyval: the reference that
    _axis_series reproduces bit for bit."""
    def phi2(z):
        small = np.abs(z) < 1.0
        zb = np.where(small, 1.0, z)
        return np.where(small, np.polyval(_PHI2_TAYLOR, z), (np.expm1(zb) - zb) / zb**2)

    def profile(x):
        h = [f.normal[0] * x + 2.0 / f.label for f in F.facets]
        near = []
        for f, hk, ho, fo in zip(F.facets, h, h[::-1], F.facets[::-1]):
            m, kappa, p = f.label, _defect(f, b), phi2(f.normal[0] * b * hk)
            W = 2.0 * hk / m - kappa * hk * hk * p
            near.append(kappa * m * hk * p / (2.0 * W) - fo.label / (2.0 * ho))
        return np.where(h[0] <= h[1], near[0], near[1])

    level = 2.0**-50 * sum(f.label**2 / 4.0 for f in F.facets)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for n in (16, 32, 64, 128, 256):
        c2 = C.chebinterpolate(lambda t: profile(mid + half * t), n - 1)
        big = np.flatnonzero(np.abs(c2) > level)
        if big.size == 0 or big[-1] < n - n // 4:
            break
    c2 = c2[: big[-1] + 1] if big.size else np.zeros(1)
    c1 = half * C.chebint(c2, lbnd=-mid / half)
    c0 = half * C.chebint(c1, lbnd=-mid / half)
    return np.column_stack([np.pad(c, (0, len(c2) + 2 - len(c))) for c in (c0, c1, c2)])


def mirrored(P):
    return from_halfspaces(1, [((-f.normal[0],), f.label, f.offset) for f in P.facets])


# the bounded factors of the benchmark's rectangle, half-strip and teardrop;
# labels (1, 3), (1, 30) and (1, 300), whose series take 32, 256 and 256 samples
SERIES_FACTORS = [interval(-2, "2/3", 1, 3), interval(-1, 2, 2, 1), interval(-2, 1, 1, 2),
                  interval(-2, "1/15", 1, 30), interval(-2, "1/150", 1, 300)]


@pytest.mark.parametrize("F", SERIES_FACTORS + [mirrored(F) for F in SERIES_FACTORS])
def test_axis_series_is_bitwise_the_numpy_series(F):
    b = find_soliton_vector(F).b[0]
    lo, hi = sorted(float(-f.normal[0] * f.offset / f.label) for f in F.facets)
    ref = reference_axis_series(F, b, lo, hi)
    got = _axis_series(F, b, lo, hi)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_axis_series_is_bitwise_the_numpy_series_off_center():
    # [-2, 2 + 1e-9] puts the origin 5e-10 off the midpoint, so both
    # integrals take their constants from a lower bound other than 0; at
    # b = 0, u_P solves the equation and s'' chops to the zero series
    F = interval(-2, 2)
    for b in (0.0, 0.2, -0.3):
        ref = reference_axis_series(F, b, -2.0, 2.0 + 1e-9)
        got = _axis_series(F, b, -2.0, 2.0 + 1e-9)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("b", [0.4, 0.6, 1.0])
def test_half_line_off_its_soliton_component_does_not_converge(b):
    # the non-growing profile (1 + bx)/b^2 has no admissible correction
    # unless b = m/2
    with pytest.raises(NoConvergence, match="defect"):
        solve(half_line(-2), b=[b])


@pytest.mark.parametrize("P", [interval(-1, 1), half_line(-3),
                               box([(-3, 3), (-2, 2)]), interval(-2, 2, 1, 2)])
def test_solve_needs_shrinker_normalized_offsets(P):
    with pytest.raises(ValueError, match="shrinker-normalized"):
        solve(P)


def test_unbounded_factors_are_exactly_flat():
    # kappa = 0 exactly on the half-line at b = 1/2, and on the half-strip,
    # whose b_y is exactly 3/2; the correction is flat along y
    assert not np.any(solve(half_line(-2), b=[0.5]).correction.values)
    strip = box([(-2, 1), ("-2/3", None)], labels=[1, 2, 3])
    res = solve(strip, truncation=32)
    assert res.truncated_axes == ((1, "upper"),)
    assert float(np.max(np.ptp(res.correction.values, axis=1))) <= 1e-13
    assert float(np.ptp(res.correction.values[:, 0])) > 1e-2
