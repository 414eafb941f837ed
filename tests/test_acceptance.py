"""Acceptance gate: analytic-oracle checks of the full pipeline.

Each test pins one user-facing guarantee with its tolerance and runtime
budget and prints a single PASS line (visible with -s or -rP). Oracles are
closed forms or independent brute-force computations, never frozen outputs
of the code under test.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from scipy.optimize import brentq

from toricshrink.ding import convexity_scan, second_differences
from toricshrink.lattice import quotient_group
from toricshrink.polyhedra import (
    box,
    from_halfspaces,
    half_line,
    interval,
    structure_group,
    vertices,
)
from toricshrink.potentials import (
    CanonicalPotential,
    CorrectedPotential,
    GridCorrection,
    check_boundary_conditions,
)
from toricshrink.quadrature import (
    Simplex,
    exp_integral_simplex,
    gauss_integral_simplex,
)
from toricshrink.shrinker import (
    find_soliton_vector,
    grad_hess_F,
    residual,
    solve,
    weighted_volume,
)

TEARDROP = interval(-2, "2/3", 1, 3)


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s over budget {self.budget}s"
            )


def _report(line, timer):
    print(f"PASS {line} ({timer.elapsed:.2f}s)")


def affine_residual(xs, vals):
    A = np.column_stack([np.ones_like(xs), xs])
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    return float(np.max(np.abs(vals - A @ coef)))


def test_polyhedron_construction_is_fast():
    octahedron = [((sx, sy, sz), 1, 1)
                  for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]
    # twelve lines tangent to a near-circle, each one an edge of the 12-gon
    directions = [(1, 0), (2, 1), (1, 2), (0, 1), (-1, 2), (-2, 1),
                  (-1, 0), (-2, -1), (-1, -2), (0, -1), (1, -2), (2, -1)]
    dodecagon = [(d, 1, 5 if 0 in d else 11) for d in directions]
    for dim, rows in ((3, octahedron), (2, dodecagon)):
        with _Timer(0.15) as t:
            P = from_halfspaces(dim, rows)
        # both inequality systems are symmetric under x -> -x
        assert P.interior_point().tolist() == [0.0] * dim
        _report(f"{dim}D polyhedron with {len(rows)} facets built", t)
    assert len(vertices(P)) == 12


def test_gaussian_soliton_vector():
    with _Timer(1.0) as t:
        sol = find_soliton_vector(half_line(-2), tol=1e-12)
        err = abs(sol.b[0] - 0.5)
        assert err <= 1e-8
    _report(f"soliton vector on [-2,oo) is 0.5 to {err:.1e}", t)


def test_symmetric_soliton_vectors():
    with _Timer(1.0) as t:
        n1 = abs(find_soliton_vector(interval(-2, 2), tol=1e-12).b[0])
        n2 = float(np.linalg.norm(
            find_soliton_vector(box([(-2, 2), (-2, 2)]), tol=1e-12).b))
        assert n1 <= 1e-10 and n2 <= 1e-10
    _report(f"symmetric soliton vectors vanish to {max(n1, n2):.1e}", t)


def test_closed_form_residual_constancy():
    with _Timer(1.0) as t:
        rng = np.random.default_rng(3)
        stds = []
        for P, b in ((half_line(-2), [0.5]), (interval(-2, 2), [0.0])):
            X = P.sample_interior(rng, 200)
            stds.append(float(np.std(residual(P, b, X))))
        assert max(stds) <= 1e-9
    _report(f"canonical residuals constant, worst std {max(stds):.1e}", t)


def test_solver_recovers_round_sphere():
    with _Timer(30.0) as t:
        res = solve(interval(-2, 2), b=[0.0], grid=48)
        lo, hi = res.domain[0]
        xs = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 120)
        # the known solution is the canonical potential, so the correction
        # itself must be affine on the middle of the domain
        vals = np.array([res.correction.value([x]) for x in xs])
        err = affine_residual(xs, vals)
        assert err <= 1e-6
    _report(f"solve on [-2,2] matches round sphere to {err:.1e}", t)


def test_solver_recovers_gaussian():
    with _Timer(30.0) as t:
        res = solve(half_line(-2), b=[0.5], grid=48, truncation=12.0)
        lo, hi = res.domain[0]
        xs = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 120)
        vals = np.array([res.correction.value([x]) for x in xs])
        err = affine_residual(xs, vals)
        assert err <= 1e-6
    _report(f"solve on truncated [-2,oo) matches gaussian to {err:.1e}", t)


def test_orbifold_teardrop_pipeline():
    with _Timer(120.0) as t:
        groups = sorted(
            str(structure_group(TEARDROP, v.active_facets))
            for v in vertices(TEARDROP)
        )
        assert groups == ["Z/3", "trivial"]

        # independent oracle: 1/u'' solves W' = bW - x, W = 0 at both ends;
        # eliminating the constant gives the shooting condition below
        psi = lambda b: (3.0 * (1.0 - 2.0 * b) * math.exp(8.0 * b / 3.0)
                         - (2.0 * b + 3.0))
        b = brentq(psi, -2.0, -0.5, xtol=1e-14)
        res = solve(TEARDROP, grid=48)
        assert abs(res.b[0] - b) <= 1e-4

        Cc = (2.0 / b - 1.0 / b**2) * math.exp(2.0 * b)
        W = lambda x: Cc * np.exp(b * x) + x / b + 1.0 / b**2
        lo, hi = res.domain[0]
        xs = np.linspace(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo), 80)
        upp = np.array(
            [res.correction.hessian([x])[0, 0]
             + 0.5 / (x + 2.0) + 4.5 / (2.0 - 3.0 * x) for x in xs]
        )
        err = float(np.max(np.abs(upp - 1.0 / W(xs)) * np.abs(W(xs))))
        assert err <= 1e-4
    _report(f"teardrop groups Z/1, Z/3; solve vs shooting oracle {err:.1e}", t)


def test_weighted_volume_derivatives():
    with _Timer(10.0) as t:
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(4):
            cases.append((interval(-2, 2), rng.uniform(-1, 1, size=1)))
            cases.append((box([(-2, 2), (-2, 2)]), rng.uniform(-1, 1, size=2)))
        cases.append((half_line(-2), np.array([0.8])))
        cases.append((box([(-2, None), (-2, 2)]), np.array([0.6, -0.3])))
        assert len(cases) == 10
        h = 1e-5
        worst = 0.0
        for P, b in cases:
            F, g, H = grad_hess_F(P, b)
            for j in range(P.dim):
                e = np.zeros(P.dim)
                e[j] = h
                gfd = (weighted_volume(P, b + e)
                       - weighted_volume(P, b - e)) / (2 * h)
                worst = max(worst, abs(g[j] - gfd) / max(abs(gfd), 1e-12))
                _, gp, _ = grad_hess_F(P, b + e)
                _, gm, _ = grad_hess_F(P, b - e)
                hfd = (gp - gm) / (2 * h)
                rel = np.abs(H[j] - hfd) / np.maximum(np.abs(hfd), 1e-10)
                worst = max(worst, float(np.max(rel)))
        assert worst <= 1e-6

        count = 0
        rng2 = np.random.default_rng(21)
        for P in (interval(-2, 2), box([(-2, 2), (-2, 2)]), half_line(-2),
                  box([(-2, None), (-2, None)])):
            for _ in range(5):
                b = rng2.uniform(-0.8, 0.8, size=P.dim)
                if not P.is_bounded():
                    b = np.abs(b) + 0.3
                _, _, H = grad_hess_F(P, b)
                np.linalg.cholesky(H)
                count += 1
        assert count == 20
    _report(f"grad/Hess match finite differences, worst rel {worst:.1e}; "
            f"Hessian PD at {count} weights", t)


def test_divided_difference_matches_dense_gauss():
    with _Timer(10.0) as t:
        rng = np.random.default_rng(77)
        worst = 0.0
        checked = 0
        while checked < 50:
            n = int(rng.integers(1, 4))
            V = rng.uniform(-2.5, 2.5, size=(n + 1, n))
            E = V[1:] - V[0]
            if abs(np.linalg.det(E)) < 0.05:
                continue
            S = Simplex(tuple(map(tuple, V)))
            b = rng.uniform(-1.0, 1.0, size=n)
            exact = exp_integral_simplex(S, b)
            dense = gauss_integral_simplex(S, lambda X: np.exp(-X @ b), order=30)
            worst = max(worst, abs(exact - dense) / abs(dense))
            checked += 1
        assert worst <= 1e-8
    _report(f"divided differences vs dense Gauss on 50 simplices, "
            f"worst rel {worst:.1e}", t)


def test_ding_convexity_and_rigidity():
    with _Timer(120.0) as t:
        rng = np.random.default_rng(5)
        sol_td = find_soliton_vector(TEARDROP, tol=1e-12)
        scans = []
        for P, b_X, count in (
            (interval(-2, 2), [0.0], 8),
            (box([(-2, 2), (-2, 2)]), [0.0, 0.0], 6),
            (TEARDROP, list(sol_td.b), 6),
        ):
            lo = -2.0
            hi = 2.0 if P is not TEARDROP else 2.0 / 3.0
            dom = [(lo, hi)] * P.dim
            for _ in range(count):
                c = 0.01 * rng.standard_normal((2, 4))

                def make(row):
                    return GridCorrection.from_function(
                        lambda x: float(
                            row[0] * np.sum(x**2) + row[1] * np.sum(x**3)
                            + row[2] * np.prod(x) + row[3] * np.sum(x)
                        ),
                        dom, [10] * P.dim,
                    )

                v0 = CorrectedPotential(P, make(c[0]))
                v1 = CorrectedPotential(P, make(c[1]))
                scan = convexity_scan(v0, v1, P, b_X=b_X, num_t=5)
                scans.append(float(np.min(second_differences(scan))))
        assert len(scans) == 20
        worst = min(scans)
        assert worst >= -1e-6

        # two affine gauges of one solution: the functional must be flat and
        # the endpoint difference must be affine
        P = interval(-2, 2)
        res = solve(P, b=[0.0], grid=24)
        s0 = res.correction
        s1 = GridCorrection(s0.axes, s0.values + 0.3 * s0.axes[0] + 0.7)
        v0, v1 = CorrectedPotential(P, s0), CorrectedPotential(P, s1)
        scan = convexity_scan(v0, v1, P, b_X=[0.0], num_t=7)
        vals = np.array([s.value for s in scan])
        flat = float(np.max(vals) - np.min(vals))
        assert flat <= 1e-6
        xs = np.linspace(-1.8, 1.8, 80)
        diff = np.array([v1.value([x]) - v0.value([x]) for x in xs])
        gauge = affine_residual(xs, diff)
        assert gauge <= 1e-6
    _report(f"20 geodesic scans convex (min 2nd diff {worst:.1e}); "
            f"affine pair flat to {flat:.1e}", t)


def test_ding_scan_is_fast():
    # one nine-point scan between two cubic corrections on the square, the
    # shape of the square geodesic of the ding_geodesics benchmark
    P = box([(-2, 2), (-2, 2)])
    rng = np.random.default_rng(7)
    ends = []
    for c in rng.uniform(-0.05, 0.05, size=(2, 6)):
        def f(p, c=c):
            x, y = p
            return (c[0] * x**2 + c[1] * x * y + c[2] * y**2
                    + c[3] * x**3 + c[4] * y**3 + c[5] * x**2 * y)
        g = GridCorrection.from_function(f, [(-2.0, 2.0), (-2.0, 2.0)], (8, 8))
        ends.append(CorrectedPotential(P, g))
    with _Timer(0.1) as t:
        scan = convexity_scan(*ends, P, b_X=[0.0, 0.0], num_t=9)
    worst = float(np.min(second_differences(scan)))
    assert worst >= -1e-6
    _report(f"9-point Ding scan on the square (min 2nd diff {worst:.1e})", t)


def _coset_structure(a, b, c, d):
    """Invariant factors of Z^2/<(a,b),(c,d)> by enumerating all cosets.

    adj(A) maps v to a complete coset invariant mod det, so the image grid
    over [0,D)^2 enumerates the quotient directly.
    """
    det = a * d - b * c
    D = abs(det)
    x, y = np.meshgrid(np.arange(D), np.arange(D), indexing="ij")
    p = (x * d - y * c) % det
    q = (-x * b + y * a) % det
    order = len(np.unique(p + D * q))
    g = np.gcd.reduce(np.gcd(np.gcd(p, q), D).ravel())
    exponent = D // int(g)
    d1 = order // exponent
    return order, tuple(f for f in (d1, exponent) if f > 1)


def test_quotient_group_brute_force():
    with _Timer(5.0) as t:
        span = range(-4, 5)
        checked = 0
        for a in span:
            for b in span:
                for c in span:
                    for d in span:
                        D = abs(a * d - b * c)
                        if not 1 <= D <= 24:
                            continue
                        g = quotient_group([[a, b], [c, d]], 2)
                        order, factors = _coset_structure(a, b, c, d)
                        assert g.order == D == order
                        assert g.invariant_factors == factors
                        checked += 1
        assert checked > 4000
    _report(f"quotient groups match coset enumeration on {checked} matrices", t)


class _DoubledLog:
    """u = 2 u_P: correction gradient blows up like log at every facet."""

    def __init__(self, P):
        self.polyhedron = P
        self.correction = CanonicalPotential(P)

    def value(self, x):
        return 2.0 * self.correction.value(x)

    def gradient(self, x):
        return 2.0 * self.correction.gradient(x)

    def hessian(self, x):
        return 2.0 * self.correction.hessian(x)


def test_boundary_condition_detector():
    with _Timer(10.0) as t:
        five = (
            interval(-2, 2),
            TEARDROP,
            half_line(-2),
            box([(-2, 2), (-2, 2)]),
            box([(-2, None), (-2, 2)]),
        )
        for P in five:
            assert check_boundary_conditions(P, CanonicalPotential(P)).ok
            if P.dim == 1:
                lo = float(min(v.point_float[0] for v in vertices(P)))
                bump = GridCorrection.from_function(
                    lambda x: 0.05 * math.exp(-x[0] ** 2), [(lo, lo + 6.0)], [10]
                )
            else:
                bump = GridCorrection.from_function(
                    lambda x: 0.05 * math.exp(-float(np.sum(x**2))),
                    [(-2.0, 2.0)] * 2, [8, 8],
                )
            assert check_boundary_conditions(P, CorrectedPotential(P, bump)).ok
            assert not check_boundary_conditions(P, _DoubledLog(P)).ok
    _report("boundary detector: canonical and bump pass, doubled log fails "
            "on 5 polyhedra", t)
