"""Tests of the benchmark's independent oracles.

    python3 -m pytest perfbench/test_oracles.py

The oracles are checked against closed forms and against each other, and
every check is shown to reject a slightly perturbed output.
"""

import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

INTERVAL = (1, (((1,), 1, 2), ((-1,), 1, 2)))


def _ok(checks):
    return all(c.ok for c in checks)


def test_axis_roots_solve_the_barycentre_equation():
    assert O.soliton_vector(*INTERVAL)[0] == pytest.approx(0.0, abs=1e-15)
    assert O.soliton_vector(*W.HALF_LINE)[0] == 0.5
    (b,) = O.soliton_vector(*W.TEARDROP)
    lo, hi = -2, mp.mpf(2) / 3
    moment = mp.quad(lambda x: x * mp.exp(-b * x), [lo, hi])
    assert abs(moment) < 1e-14
    # a half-line that points down: x <= 2
    assert O.soliton_vector(1, (((-1,), 1, 2),))[0] == -0.5


def test_polygon_quadrature_agrees_with_product_roots():
    dim, rows = W.RECTANGLE
    assert np.allclose(O.polygon_soliton_vector(dim, rows),
                       O.soliton_vector(dim, rows), rtol=0, atol=1e-14)
    assert np.allclose(O.soliton_vector(*W.HEXAGON), 0.0, atol=1e-14)
    b = O.soliton_vector(*W.PENTAGON)
    assert b[0] == pytest.approx(b[1], abs=1e-14) and b[0] < 0


def test_profile_W_vanishes_at_both_ends():
    dim, rows = W.TEARDROP
    (b,) = O.soliton_vector(dim, rows)
    Wf = O.profile_W(-2.0, b)
    assert abs(Wf(-2.0)) < 1e-15 and abs(Wf(2.0 / 3.0)) < 1e-13
    h = 1e-6
    # W'(lo) = 2/m for the facet label m = 1
    assert (Wf(-2.0 + h) - Wf(-2.0 - h)) / (2 * h) == pytest.approx(2.0, rel=1e-8)
    x = np.linspace(-2, 2, 5)
    assert np.allclose(O.profile_W(-2.0, 0.0)(x), 0.5 * (4 - x**2))


def test_canonical_d1_closed_forms():
    assert O.canonical_d1(*INTERVAL) == pytest.approx(8.0, rel=1e-15)
    assert O.canonical_d1(*W.SQUARE) == pytest.approx(64.0, rel=1e-15)
    exact = 9.0 * math.exp(2.0 / 3.0) - math.exp(-2.0)
    assert O.canonical_d1(*W.TEARDROP) == pytest.approx(exact, rel=1e-15)
    assert O.canonical_d1(*W.HALF_LINE) == pytest.approx(math.e, rel=1e-15)


def test_box_ding_values_at_the_canonical_potential():
    ts = [0.0, 1.0]
    (d1, D), _ = O.box_ding_values(*W.SQUARE, [0.0, 0.0], {}, {}, ts)
    assert d1 == pytest.approx(64.0, rel=1e-14)
    assert D == pytest.approx(4 * math.log(4) - 2 - math.log(64), rel=1e-14)


def test_vertex_groups_by_coset_enumeration():
    dim, rows = W.TRIANGLE
    groups = [O.vertex_group([[rows[i][1] * c for c in rows[i][0]] for i in act])
              for act in O.polygon_vertices(dim, rows).values()]
    assert sorted(groups) == [(2,), (3,), (4,)]
    assert O.vertex_group([[2, 0], [0, 2]]) == (2, 2)
    assert O.vertex_group([[3]]) == (3,)
    assert O.vertex_group([[1, 0], [0, 1]]) == ()


def test_perturbed_outputs_fail_their_checks():
    b = O.soliton_vector(*W.TEARDROP)
    assert _ok(O.check_soliton_vector(b, b))
    assert not _ok(O.check_soliton_vector(b + 1e-6, b))

    exact = O.canonical_d1(*W.TEARDROP)
    assert _ok(O.check_value(exact, exact, "d1"))
    assert not _ok(O.check_value(exact * (1 + 1e-6), exact, "d1"))

    assert _ok(O.check_convex([1.0, 0.5, 0.25, 0.5, 1.0]))
    assert not _ok(O.check_convex([0.0, 1e-5, 0.0]))
    assert _ok(O.check_flat([2.0, 2.0 + 1e-9, 2.0]))
    assert not _ok(O.check_flat([2.0, 2.0 + 1e-5, 2.0]))
    assert not _ok(O.check_minimum_at_end([1.0, 0.9, 0.95]))

    dim, rows = W.TRIANGLE
    verts = O.polygon_vertices(dim, rows)
    assert _ok(O.check_vertices(dim, rows, verts))
    assert not _ok(O.check_vertices(dim, rows, dict(list(verts.items())[1:])))
    groups = {p: O.vertex_group([[rows[i][1] * c for c in rows[i][0]] for i in act])
              for p, act in verts.items()}
    assert _ok(O.check_groups(dim, rows, groups))
    wrong = dict(groups)
    wrong[next(iter(wrong))] = (2, 2)
    assert not _ok(O.check_groups(dim, rows, wrong))


def test_product_solution_check_rejects_a_perturbed_correction():
    # on the square with b = 0 the canonical potential solves: s = 0 exactly
    from toricshrink.potentials import lobatto_nodes

    dim, rows = (2, (((1, 0), 1, 2), ((-1, 0), 1, 2), ((0, 1), 1, 2), ((0, -1), 1, 2)))
    axes = [lobatto_nodes(-2.0, 2.0, 14)] * 2
    zero = np.zeros((14, 14))
    assert _ok(O.check_product_solution(dim, rows, [0.0, 0.0], axes, zero))
    gx, gy = np.meshgrid(*axes, indexing="ij")
    bump = 1e-6 * (gx**2 + gx * gy)
    assert not _ok(O.check_product_solution(dim, rows, [0.0, 0.0], axes, bump))


def test_program_solve_passes_and_shifted_b_fails():
    from toricshrink.polyhedra import from_halfspaces
    from toricshrink.shrinker import solve

    dim, rows = W.RECTANGLE
    b = O.soliton_vector(dim, rows)
    res = solve(from_halfspaces(dim, rows), b=b, grid=12)
    checks = O.check_product_solution(dim, rows, b, res.correction.axes,
                                      res.correction.values)
    assert _ok(checks) and _ok(O.check_soliton_vector(res.b, b))
    assert not _ok(O.check_soliton_vector(np.add(res.b, [1e-6, 0.0]), b))
    assert not _ok(O.check_product_solution(dim, rows, b, res.correction.axes,
                                            res.correction.values * (1 + 1e-4)))
