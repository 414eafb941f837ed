"""Potentials: canonical values, grid corrections, detectors."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from toricshrink import potentials
from toricshrink.polyhedra import box, from_halfspaces, half_line, interval, vertices
from toricshrink.potentials import (
    BoundaryReport,
    CanonicalPotential,
    CorrectedPotential,
    GridCorrection,
    OutOfDomain,
    _density_at,
    _density_form,
    _prod_except,
    check_boundary_conditions,
    check_space_E,
    lobatto_nodes,
)
from toricshrink.shrinker import find_soliton_vector, solve

SQ = box([(-2, 2), (-2, 2)])
TEARDROP = interval(-2, "2/3", 1, 3)
ORBIFOLD_RECTANGLE = from_halfspaces(
    2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)])


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


# ---------------------------------------------------------------------------
# canonical potential

def test_canonical_interval_values():
    u = CanonicalPotential(interval(-2, 2))
    assert u.value([0.0]) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
    assert u.gradient([0.0])[0] == pytest.approx(0.0, abs=1e-15)
    assert u.hessian([0.0])[0, 0] == pytest.approx(0.5, rel=1e-14)
    assert u.gradient([1.0])[0] == pytest.approx(0.5 * math.log(3.0), rel=1e-13)


def test_canonical_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    for P in (SQ, half_line(-2), interval(-2, 2)):
        u = CanonicalPotential(P)
        for x in P.sample_interior(rng, 6):
            g = u.gradient(x)
            assert np.allclose(g, fd_gradient(u.value, x), rtol=1e-6, atol=1e-8)
            H = u.hessian(x)
            Hfd = np.array([fd_gradient(lambda z: u.gradient(z)[i], x)
                            for i in range(P.dim)])
            assert np.allclose(H, Hfd, rtol=1e-5, atol=1e-7)


def test_canonical_out_of_domain():
    u = CanonicalPotential(interval(-2, 2))
    with pytest.raises(OutOfDomain):
        u.value([2.0])
    with pytest.raises(OutOfDomain):
        u.value([3.0])


def test_batch_evaluation_shapes():
    u = CanonicalPotential(SQ)
    X = np.zeros((5, 2))
    assert u.value(X).shape == (5,)
    assert u.gradient(X).shape == (5, 2)
    assert u.hessian(X).shape == (5, 2, 2)


# ---------------------------------------------------------------------------
# grid corrections

def test_grid_correction_reproduces_polynomial_1d():
    f = lambda x: 0.3 * x[0] ** 3 - x[0] + 2.0
    g = GridCorrection.from_function(f, [(-2.0, 2.0)], [9])
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=1)
        assert g.value(x) == pytest.approx(f(x), rel=1e-12, abs=1e-12)
        assert g.gradient(x)[0] == pytest.approx(0.9 * x[0] ** 2 - 1.0, rel=1e-10,
                                                 abs=1e-10)
        assert g.hessian(x)[0, 0] == pytest.approx(1.8 * x[0], rel=1e-9, abs=1e-9)


def test_grid_correction_reproduces_polynomial_2d():
    f = lambda x: x[0] ** 2 * x[1] + 0.5 * x[1] ** 2 - x[0]
    g = GridCorrection.from_function(f, [(-2.0, 2.0), (-1.0, 3.0)], [7, 7])
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = np.array([rng.uniform(-2, 2), rng.uniform(-1, 3)])
        assert g.value(x) == pytest.approx(f(x), rel=1e-11, abs=1e-11)
        gx = np.array([2 * x[0] * x[1] - 1.0, x[0] ** 2 + x[1]])
        assert np.allclose(g.gradient(x), gx, rtol=1e-9, atol=1e-9)
        H = np.array([[2 * x[1], 2 * x[0]], [2 * x[0], 1.0]])
        assert np.allclose(g.hessian(x), H, rtol=1e-8, atol=1e-8)


def _reference_partials(g, X):
    # chebval/chebval2d of the chebder coefficients, derived on every call
    lo, hi = np.array(g.domain).T
    T = (2.0 * X - (lo + hi)) / (hi - lo)
    scale = 2.0 / (hi - lo)

    def ev(c):
        return C.chebval(T[:, 0], c) if g.dim == 1 else C.chebval2d(T[:, 0], T[:, 1], c)

    def der(c, *axes):
        for a in axes:
            c = C.chebder(c, 1, axis=a)
        return c

    # each value comes with the sum of |coefficients| behind it, the scale of
    # the rounding error of either summation order, since |T_k| <= 1
    c = g._coef
    dims = range(g.dim)
    value = (ev(c), np.sum(np.abs(c)))
    grad = [(ev(der(c, i)) * scale[i], np.sum(np.abs(der(c, i))) * scale[i])
            for i in dims]
    hess = {(i, j): (ev(der(c, i, j)) * scale[i] * scale[j],
                     np.sum(np.abs(der(c, i, j))) * scale[i] * scale[j])
            for i in dims for j in dims}
    return value, grad, hess


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("count", range(8, 21, 2))
def test_grid_correction_matches_chebval_reference(dim, count, monkeypatch):
    rng = np.random.default_rng(10 * dim + count)
    domain = [(-2.0, 2.0), (-1.0, 3.0)][:dim]
    axes = [lobatto_nodes(lo, hi, count + d) for d, (lo, hi) in enumerate(domain)]
    g = GridCorrection(axes, rng.normal(size=tuple(len(a) for a in axes)))
    lo, hi = np.array(domain).T
    interior = rng.uniform(lo, hi, size=(40, dim))
    # corners, and points on each edge of the domain
    edge = rng.uniform(lo, hi, size=(8 * dim, dim))
    for k in range(len(edge)):
        d = k % dim
        edge[k, d] = (lo, hi)[k // dim % 2][d]
    X = np.vstack([interior, edge, lo, hi])
    (ref, csum), grad, hess = _reference_partials(g, X)
    assert np.all(np.abs(g.value(X) - ref) <= 1e-14 * csum)
    G = g.gradient(X)
    for i, (ref, csum) in enumerate(grad):
        assert np.all(np.abs(G[:, i] - ref) <= 1e-14 * csum)
    H = g.hessian(X)
    for (i, j), (ref, csum) in hess.items():
        assert np.all(np.abs(H[:, i, j] - ref) <= 1e-14 * csum)
    # the jet reads the same stacked coefficients from one Vandermonde
    # matrix per axis
    built = []
    chebvander = C.chebvander
    monkeypatch.setattr(C, "chebvander", lambda *a: built.append(1) or chebvander(*a))
    s, G_jet, H_jet = g.jet(X)
    assert len(built) == dim
    assert np.array_equal(s, g.value(X))
    assert np.array_equal(G_jet, G)
    assert np.array_equal(H_jet, H)


def test_partials_at_the_affine_geodesic_size():
    # 12 x 12 coefficients at 2,500 points: each row of the jet matches one
    # product per stacked array
    rng = np.random.default_rng(12)
    domain = [(-2.0, 2.0 / 3.0), (-1.0, 2.0)]
    g = GridCorrection([lobatto_nodes(lo, hi, 12) for lo, hi in domain],
                       rng.normal(size=(12, 12)))
    lo, hi = np.array(domain).T
    X = rng.uniform(lo, hi, size=(2500, 2))
    V = g.vander(X)
    s, G, H = g.jet(X, V)
    rows = [s, G[:, 0], G[:, 1], H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]]
    for c, r in zip(g._stack, rows, strict=True):
        ref = np.sum((V[0] @ c) * V[1], axis=-1)
        assert np.max(np.abs(r - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("count", [8, 14, 24])
def test_every_reader_gives_the_jets_bits(dim, count):
    # a grid correction and the canonical potential on the same box; the
    # canonical jet must keep the bits of its per-reader formulas, written
    # out below as the reference
    rng = np.random.default_rng(5)
    domain = [(-2.0, 2.0), (-1.0, 3.0)][:dim]
    g = GridCorrection([lobatto_nodes(lo, hi, count) for lo, hi in domain],
                       rng.normal(size=(count,) * dim))
    P = box(domain)
    W, a = P.scaled_normal_matrix(), P.offsets_array()
    lo, hi = np.array(domain).T
    for m in (1, 2, 3, 6, 40, 2500):
        X = rng.uniform(lo, hi, size=(m, dim))
        L = X @ W.T + a
        reference = (0.5 * np.sum(L * np.log(L), axis=1), 0.5 * (1.0 + np.log(L)) @ W,
                     0.5 * np.einsum("mi,ij,ik->mjk", 1.0 / L, W, W))
        u_P = CanonicalPotential(P)
        assert all(np.array_equal(r, j) for r, j in zip(reference, u_P.jet(X)))
        for u in (g, u_P):
            s, G, H = u.jet(X)
            assert np.array_equal(u.value(X), s)
            assert np.array_equal(u.gradient(X), G)
            assert np.array_equal(u.hessian(X), H)
            # a single point returns a float, an (n,) gradient and an (n, n) Hessian
            x = X[0]
            s, G, H = u.jet(x)
            assert isinstance(s, float) and G.shape == (dim,) and H.shape == (dim, dim)
            assert u.value(x) == s
            assert np.array_equal(u.gradient(x), G)
            assert np.array_equal(u.hessian(x), H)


def test_grid_correction_json_roundtrip():
    g = GridCorrection.from_function(lambda x: math.sin(x[0]), [(-2.0, 2.0)], [12])
    d = g.to_dict()
    h = GridCorrection.from_dict(d)
    assert np.allclose(g.values, h.values)
    x = np.array([0.37])
    assert h.value(x) == pytest.approx(g.value(x), rel=1e-14)
    with pytest.raises(ValueError, match="kind"):
        GridCorrection.from_dict({"kind": "spline", "axes": [[0, 1]], "values": [0, 0]})


def test_grid_correction_validation():
    with pytest.raises(ValueError):
        GridCorrection([np.array([0.0, 1.0])], np.zeros(3))
    with pytest.raises(ValueError):
        GridCorrection([np.array([1.0, 0.0])], np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["value", "first node", "middle node", "last node"])
def test_grid_correction_rejects_non_finite_entries(bad, where):
    # NaN compares False, so a NaN node passes a test for diff <= 0
    axis, values = np.linspace(-2.0, 2.0, 5), np.zeros(5)
    if where == "value":
        values[1] = bad
    else:
        axis[{"first node": 0, "middle node": 2, "last node": -1}[where]] = bad
    with pytest.raises(ValueError, match="finite|strictly increasing"):
        GridCorrection([axis], values)
    with pytest.raises(ValueError, match="finite|strictly increasing"):
        GridCorrection([np.linspace(-1.0, 1.0, 3), axis], np.zeros((3, 5)) + values)


def test_lobatto_nodes_and_differentiation():
    xs = lobatto_nodes(-2.0, 2.0, 9)
    assert xs[0] == -2.0 and xs[-1] == 2.0
    assert np.all(np.diff(xs) > 0)
    # the interpolant on the nodes differentiates a cubic exactly
    s = GridCorrection([xs], 0.5 * xs**3 - 2.0 * xs)
    assert np.allclose(s.gradient(xs[:, None])[:, 0], 1.5 * xs**2 - 2.0, atol=1e-10)


# ---------------------------------------------------------------------------
# gradient image

def test_legendre_inverse_hits_any_target():
    # on [-2, 2], u_P'(x) = artanh(x / 2): x = 2 tanh(y) solves u_P'(x) = y
    # for every real y, so the gradient image of the canonical potential is R
    u = CanonicalPotential(interval(-2, 2))
    for y in (-8.0, -1.0, 0.0, 3.0, 11.0):
        x = 2.0 * math.tanh(y)
        assert u.gradient([x])[0] == pytest.approx(y, abs=1e-7)


# ---------------------------------------------------------------------------
# boundary detector

FIVE = [
    interval(-2, 2),
    interval(-2, "2/3", 1, 3),
    half_line(-2),
    box([(-2, 2), (-2, 2)]),
    box([(-2, None), (-2, None)]),
]


def test_canonical_passes_boundary_conditions():
    for P in FIVE:
        rep = check_boundary_conditions(P, CanonicalPotential(P))
        assert rep.ok, f"canonical potential flagged on {P}"


def test_smooth_bump_passes_boundary_conditions():
    for P in FIVE:
        if P.dim == 1:
            lo = float(min(v.point_float[0] for v in vertices(P)))
            dom = [(lo, lo + 6.0)]
            s = GridCorrection.from_function(
                lambda x: 0.05 * math.exp(-x[0] ** 2), dom, [10]
            )
        else:
            dom = [(-2.0, 2.0), (-2.0, 2.0)]
            s = GridCorrection.from_function(
                lambda x: 0.05 * math.exp(-x[0] ** 2 - x[1] ** 2), dom, [8, 8]
            )
        rep = check_boundary_conditions(P, CorrectedPotential(P, s))
        assert rep.ok


class _DoubledLog:
    """u = 2 u_P: the correction equals u_P itself, with boundary log terms."""

    def __init__(self, P):
        self.polyhedron = P
        self.correction = CanonicalPotential(P)

    def value(self, x):
        return 2.0 * self.correction.value(x)

    def gradient(self, x):
        return 2.0 * self.correction.gradient(x)

    def hessian(self, x):
        return 2.0 * self.correction.hessian(x)


def test_doubled_log_fails_detector():
    for P in FIVE:
        rep = check_boundary_conditions(P, _DoubledLog(P))
        assert not rep.ok
        # the failure is in the correction growth, not the density
        assert not rep.correction_ok


def _stable_density(P, s_hess, X):
    """det(Hess u) prod_i L_i at the points X, as the boundary checks read it."""
    L = X @ P.scaled_normal_matrix().T + P.offsets_array()
    return _density_at(_density_form(P, L), s_hess)


def test_boundary_density_value_interval():
    # for u_P on [-2,2]: det Hess = 2/(L0 L1), so the density is 2, also in
    # the limit on either facet
    X = np.array([[-2.0], [-1.5], [0.0], [1.2], [2.0]])
    dens = _stable_density(interval(-2, 2), np.zeros((len(X), 1, 1)), X)
    assert np.allclose(dens, 2.0, rtol=1e-12, atol=0.0)


def test_boundary_density_of_corrected_potential_is_stable():
    s = GridCorrection.from_function(
        lambda x: 0.05 * math.exp(-x[0] ** 2 - x[1] ** 2), [(-2.0, 2.0)] * 2, [8, 8]
    )
    u = CorrectedPotential(SQ, s)
    # inside, the stable form is det(Hess u) prod L_i
    X = SQ.sample_interior(np.random.default_rng(3), 20)
    L = X @ SQ.scaled_normal_matrix().T + SQ.offsets_array()
    naive = np.linalg.det(u.hessian(X)) * np.prod(L, axis=1)
    assert np.allclose(_stable_density(SQ, s.hessian(X), X), naive, rtol=1e-12, atol=0.0)
    # on a facet and at a corner it is the limit from inside
    for x in ([-2.0, 0.3], [-2.0, 2.0]):
        X = np.array([x, np.array(x) - 1e-9 * np.sign(x)])
        on, inside = _stable_density(SQ, s.hessian(X), X)
        assert on > 0.0
        assert on == pytest.approx(inside, rel=1e-7)


def _expanded_density(P, L, s_hess):
    """det(Hess(u_P + s)) prod_i L_i term by term: the density's reference."""
    W = P.scaled_normal_matrix()
    N = len(P.facets)
    m = L.shape[0]
    if P.dim == 1:
        w = W[:, 0]
        out = np.zeros(m)
        for k in range(N):
            out += 0.5 * w[k] ** 2 * _prod_except(L, (k,))
        out += s_hess[:, 0, 0] * np.prod(L, axis=1)
        return out
    out = np.zeros(m)
    for j, k in itertools.combinations(range(N), 2):
        cross = W[j, 0] * W[k, 1] - W[j, 1] * W[k, 0]
        if cross != 0.0:
            out += 0.25 * cross**2 * _prod_except(L, (j, k))
    detS = s_hess[:, 0, 0] * s_hess[:, 1, 1] - s_hess[:, 0, 1] ** 2
    for k in range(N):
        p = np.array([-W[k, 1], W[k, 0]])
        quad = np.einsum("mij,i,j->m", s_hess, p, p)
        out += 0.5 * quad * _prod_except(L, (k,))
    out += detS * np.prod(L, axis=1)
    return out


DENSITY_DOMAINS = {
    "teardrop": interval(-2, "2/3", 1, 3),
    "half_line": half_line(-2),
    "rectangle": from_halfspaces(
        2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)]),
    "pentagon": from_halfspaces(
        2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
            ((-1, -1), 1, 3)]),
    "hexagon": from_halfspaces(
        2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
            ((1, 1), 1, 2), ((-1, -1), 1, 2)]),
    "triangle": from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 2, 2), ((-2, -3), 1, 2)]),
}


@pytest.mark.parametrize("name", list(DENSITY_DOMAINS))
def test_density_form_equals_the_expanded_density(name):
    # interior points, a point inside every facet (L_k = 0) and every vertex
    P = DENSITY_DOMAINS[name]
    rng = np.random.default_rng(7)
    X = np.vstack([P.sample_interior(rng, 40)]
                  + [P.facet_interior_point(i)[None] for i in range(len(P.facets))]
                  + [np.array(v.point, dtype=float)[None] for v in vertices(P)])
    L = X @ P.scaled_normal_matrix().T + P.offsets_array()
    assert np.any(L == 0.0)
    form = _density_form(P, L)
    n = P.dim
    G = rng.standard_normal((len(X), n, n))
    if n == 1:
        assert not np.any(form[1])
        # the solve's Gauss-Newton steps rest on this: the same bits as the expansion
        for H in (G, -G, np.zeros_like(G)):
            assert np.array_equal(_density_at(form, H), _expanded_density(P, L, H))
        return
    # positive semidefinite: every term is >= 0, so each value has a relative error
    H = G @ G.transpose(0, 2, 1)
    ref = _expanded_density(P, L, H)
    assert np.all(np.abs(_density_at(form, H) - ref) <= 1e-15 * np.abs(ref))
    # indefinite: terms cancel, so the error is taken relative to the largest value
    H = G + G.transpose(0, 2, 1)
    ref = _expanded_density(P, L, H)
    assert np.max(np.abs(_density_at(form, H) - ref)) <= 1e-15 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# admissible space

def test_canonical_in_space_on_half_line():
    P = half_line(-2)
    rep = check_space_E(P, CanonicalPotential(P), [0.5])
    assert rep.in_space
    assert rep.hessian_positive and rep.gradient_surjective


def test_canonical_in_space_on_square():
    rep = check_space_E(SQ, CanonicalPotential(SQ), [0.0, 0.0])
    assert rep.in_space


@pytest.mark.parametrize("P, grid", [(half_line(-2), 16),
                                     (box([(-2, None), (-2, None)]), 10)])
def test_solution_in_space_probes_its_rays_on_the_grid(P, grid):
    # on unbounded P the ray probe stops where the correction grid ends: at
    # truncation 3 the grid ends at 6, before the probe's default reach of 7
    s = solve(P, grid=grid, truncation=3.0).correction
    u = CorrectedPotential(P, s)
    probes = []
    gradient = u.gradient
    u.gradient = lambda x: probes.append(np.array(x)) or gradient(x)
    rep = check_space_E(P, u, find_soliton_vector(P).b)
    assert rep.in_space
    lo, hi = np.array(s.domain).T
    assert all(np.all((lo <= x) & (x <= hi)) for x in probes)
    assert max(np.max(x) for x in probes) == 6.0


@pytest.mark.parametrize("P, grid, most", [(ORBIFOLD_RECTANGLE, 14, 9), (TEARDROP, 48, 5)],
                         ids=["rectangle_14", "teardrop_48"])
def test_space_check_evaluates_each_point_set_once(P, grid, most, monkeypatch):
    # one jet for the 40 interior Hessians, then per facet one for the
    # boundary ladder and one for the gradient probe on it
    u = CorrectedPotential(P, solve(P, grid=grid).correction)
    shapes = []
    jet = GridCorrection.jet
    monkeypatch.setattr(GridCorrection, "jet",
                        lambda self, x, vander=None: shapes.append(np.shape(x))
                        or jet(self, x, vander))
    assert check_space_E(P, u, find_soliton_vector(P).b).in_space
    assert len(shapes) <= most
    assert all(len(shape) == 2 and shape[0] > 1 for shape in shapes), shapes


@pytest.mark.parametrize("P", [ORBIFOLD_RECTANGLE, TEARDROP], ids=["rectangle", "teardrop"])
def test_space_check_builds_each_facet_ladder_once(P, monkeypatch):
    # the boundary checks and the gradient probe read the same ladders
    built = []
    ladder = potentials.facet_ladder
    monkeypatch.setattr(potentials, "facet_ladder",
                        lambda P, i: built.append(i) or ladder(P, i))
    assert check_space_E(P, CanonicalPotential(P), find_soliton_vector(P).b).in_space
    assert built == list(range(len(P.facets)))


@pytest.mark.parametrize("k, convex", [(0.5, False), (0.2, True)])
def test_hessian_positive_fails_where_one_sample_fails(k, convex):
    # u_xx = 2/(4 - x^2) - 2k on the square: at k = 1/2 negative for
    # |x| < sqrt(2) only, so some of the 40 samples pass and some fail;
    # at k = 1/5 positive everywhere
    s = GridCorrection.from_function(lambda x: -k * x[0] ** 2, [(-2.0, 2.0)] * 2, [5, 5])
    u = CorrectedPotential(SQ, s)
    lowest = np.linalg.eigvalsh(u.hessian(SQ.sample_interior(np.random.default_rng(0), 40)))[:, 0]
    assert np.any(lowest > 0.0)
    assert bool(np.all(lowest > 0.0)) is convex
    assert check_space_E(SQ, u, [0.0, 0.0]).hessian_positive is convex


def test_divergent_weight_not_integrable():
    P = half_line(-2)
    rep = check_space_E(P, CanonicalPotential(P), [-1.0])
    assert not rep.integrable and not rep.in_space


def test_nonconvex_potential_not_in_space():
    s = GridCorrection.from_function(lambda x: -5.0 * x[0] ** 2, [(-2.0, 2.0)], [5])
    u = CorrectedPotential(interval(-2, 2), s)
    rep = check_space_E(interval(-2, 2), u, [0.0])
    assert not rep.hessian_positive and not rep.in_space


def test_report_carries_caveat_note():
    rep = check_space_E(SQ, CanonicalPotential(SQ), [0.0, 0.0])
    assert "not a certificate" in rep.note
