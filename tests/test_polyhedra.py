"""Exactness and classification tests for labeled polyhedra."""

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.spatial import HalfspaceIntersection

from test_lattice import rref, saturation_basis
from toricshrink import lattice
from toricshrink.lattice import AbelianGroup, diagonalize, primitive_reduce, quotient_group
from toricshrink.polyhedra import (
    EmptyFace,
    EmptyPolyhedron,
    DegenerateProjection,
    Facet,
    LabeledPolyhedron,
    NotProper,
    NotSimple,
    RedundantFacet,
    box,
    delzant_data,
    from_halfspaces,
    half_line,
    interval,
    normal_fan,
    polyhedron_from_dict,
    polyhedron_to_dict,
    _face,
    _skeleton,
    structure_group,
    validate,
    vertices,
)


def facet_values(P, x):
    """The values <x, m_i n_i> + a_i at x, one per facet."""
    return P.scaled_normal_matrix() @ np.asarray(x, dtype=float) + P.offsets_array()


def square(side=2):
    return box([(-side, side), (-side, side)])


def pentagon():
    return from_halfspaces(
        2,
        [
            ((1, 0), 1, 0),
            ((0, 1), 1, 0),
            ((-1, 0), 1, 3),
            ((0, -1), 1, 3),
            ((-1, -1), 1, 4),
        ],
    )


def octahedron():
    rows = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                rows.append(((sx, sy, sz), 1, 1))
    return from_halfspaces(3, rows)


# ---------------------------------------------------------------------------
# construction and rejection

def test_interval_shrinker_normalized():
    P = interval(-2, 2)
    assert P.is_shrinker_normalized()
    assert np.all(facet_values(P, [0.0]) > 0.0) and not np.all(facet_values(P, [2.5]) > 0.0)
    assert interval(-2, Fraction(2, 3), 1, 3).is_shrinker_normalized()


def test_box_labels_keep_facets_at_their_bounds():
    P = box([(-2, 2), (-2, 2)], labels=[3, 1, 2, 1])
    assert [f.label for f in P.facets] == [3, 1, 2, 1]
    assert sorted(v.point for v in vertices(P)) == sorted(
        v.point for v in vertices(square())
    )
    with pytest.raises(ValueError):
        box([(-2, 2), (-2, None)], labels=[1, 2, 3, 4])


def test_equal_polyhedra_hash_and_compare_equal():
    # the hash is cached on the instance; equality still reads the facets
    rows = [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
            ((-1, -1), 1, Fraction(7, 2))]
    P, Q = from_halfspaces(2, rows), from_halfspaces(2, rows)
    assert P is not Q and P == Q and hash(P) == hash(Q) == hash(P)
    assert hash(P) == hash((P.dim, P.facets))
    assert {P: 1}[Q] == 1
    R = from_halfspaces(2, rows[:-1] + [((-1, -1), 2, Fraction(7, 2))])
    assert R != P and len({P, Q, R}) == 2


def test_empty_infeasible_rejected():
    with pytest.raises(EmptyPolyhedron):
        from_halfspaces(1, [((1,), 1, 0), ((-1,), 1, -2)])  # x >= 0 and x <= -2


def test_empty_interior_rejected():
    with pytest.raises(EmptyPolyhedron):
        from_halfspaces(1, [((1,), 1, 0), ((-1,), 1, 0)])  # the single point 0


def test_thin_interval_accepted():
    # width 1e-12 lies below any float margin, yet the interior is nonempty
    P = from_halfspaces(1, [((1,), 1, 0), ((-1,), 1, Fraction(1, 10**12))])
    assert np.all(facet_values(P, P.interior_point()) > 0.0)


def test_shallow_corner_cut_is_a_facet():
    # the cut facet is an edge of length sqrt(2) * 1e-10
    cut = ((-1, -1), 1, 4 - Fraction(1, 10**10))
    P = from_halfspaces(2, [(r.normal, r.label, r.offset) for r in square().facets] + [cut])
    assert len(vertices(P)) == 5


def test_slack_facet_rejected():
    with pytest.raises(RedundantFacet):
        from_halfspaces(
            2,
            [
                ((1, 0), 1, 2),
                ((-1, 0), 1, 2),
                ((0, 1), 1, 2),
                ((0, -1), 1, 2),
                ((1, 1), 1, 10),  # slack everywhere on the square
            ],
        )


def test_vertex_touching_facet_rejected():
    # x + y >= 0 meets the box [0,2]^2 only at the origin: not an (n-1)-face
    with pytest.raises(RedundantFacet):
        from_halfspaces(
            2,
            [
                ((1, 0), 1, 0),
                ((0, 1), 1, 0),
                ((-1, 0), 1, 2),
                ((0, -1), 1, 2),
                ((1, 1), 1, 0),
            ],
        )


@pytest.mark.parametrize("copy", [((1, 0), 1, 2), ((1, 0), 2, 4)])
def test_repeated_halfspace_rejected(copy):
    # the copy meets the square in a whole edge; only the repeat makes it redundant
    rows = [(f.normal, f.label, f.offset) for f in square().facets]
    with pytest.raises(RedundantFacet):
        from_halfspaces(2, rows + [copy])


def test_nonprimitive_normal_rejected():
    with pytest.raises(ValueError, match="primitive"):
        Facet(normal=(2, 4), label=1, offset=Fraction(2))


def test_label_must_be_positive():
    with pytest.raises(ValueError):
        Facet(normal=(1, 0), label=0, offset=Fraction(2))


@pytest.mark.parametrize("normal, label", [((1.5, 0), 1), ((1, 0), 2.7), ((1, 0), "2"),
                                           (("1", 0), 1), ((1, 0), None), ((1, 0), math.inf)])
def test_facet_rejects_non_integer_entries(normal, label):
    with pytest.raises(ValueError, match="must be integers"):
        Facet(normal=normal, label=label, offset=Fraction(2))


@pytest.mark.parametrize("offset", [math.inf, -math.inf, math.nan, "1/0"])
def test_non_finite_offsets_are_value_errors(offset):
    with pytest.raises(ValueError, match="must be a finite rational") as info:
        from_halfspaces(1, [((1,), 1, offset), ((-1,), 1, 2)])
    assert type(info.value) is ValueError


def test_facet_stores_integral_entries_as_int():
    f = Facet(normal=[np.int64(1), 0.0], label=Fraction(2), offset=Fraction(2))
    assert f.normal == (1, 0) and f.label == 2
    assert all(type(x) is int for x in f.normal + (f.label,))


def test_float_label_is_rejected_before_the_exact_layer():
    # a float label in the exact layer would make [-20/27, 2] read as empty
    with pytest.raises(ValueError, match="must be integers") as info:
        from_halfspaces(1, [((1,), 2.7, 2), ((-1,), 1, 2)])
    assert type(info.value) is ValueError


def _unchecked(dim, rows):
    """The polyhedron of rows without the construction checks."""
    P = object.__new__(LabeledPolyhedron)
    object.__setattr__(P, "dim", dim)
    object.__setattr__(P, "facets", tuple(
        Facet(normal=n, label=m, offset=Fraction(a)) for n, m, a in rows))
    return P


def _affine_dim(points, rays):
    """Dimension of conv(points) + cone(rays); -1 when there are no points."""
    if not points:
        return -1
    # the rank of the differences and the rays, each row cleared of its denominators
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]] + list(rays)
    lcms = [math.lcm(*(x.denominator for x in row)) for row in rows]
    return len(diagonalize([[x.numerator * (m // x.denominator) for x in row]
                            for row, m in zip(rows, lcms)])[0])


def rank_verdict(dim, rows):
    """The construction verdict from face dimensions, each a rank from
    diagonalize: (type, message), or None."""
    P = _unchecked(dim, rows)
    sk = _skeleton(P)
    if not sk.vertices:
        return EmptyPolyhedron, "inequality system is infeasible"
    full = dim - len(sk.lineality)
    if _affine_dim(*_face(P)) < full:
        return EmptyPolyhedron, "inequality system has empty interior"
    seen = set()
    for i, f in enumerate(P.facets):
        halfspace = (f.normal, f.offset / f.label)
        if halfspace in seen or _affine_dim(*_face(P, (i,))) < full - 1:
            return RedundantFacet, (
                f"facet {i} (normal {f.normal}) does not meet the "
                "polyhedron in a facet; labels on it would be meaningless"
            )
        seen.add(halfspace)
    return None


def random_system(rng):
    """(dim, rows, has lineality): random facets plus parallel copies of some."""
    dim = rng.randint(1, 4)
    # normals in the first k coordinates leave a lineality space when k < dim
    k = rng.randint(1, dim - 1) if dim > 1 and rng.random() < 0.25 else dim

    def normal():
        while not any(v := [rng.randint(-2, 2) for _ in range(k)]):
            pass
        return primitive_reduce(v + [0] * (dim - k))[0]

    rows = []
    for _ in range(rng.randint(1, dim + 3)):
        m = rng.randint(1, 3)
        rows.append((normal(), m, m * Fraction(rng.randint(-2, 6), rng.randint(1, 2))))
    sk = _skeleton(_unchecked(dim, rows))
    n, m = normal(), rng.randint(1, 3)
    if sk.vertices and all(sum(a * b for a, b in zip(r, n)) >= 0 for r, _ in sk.rays):
        # a supporting hyperplane: it meets the vertices in a face of any dimension
        low = min(sum(a * b for a, b in zip(p, n)) for p, _ in sk.vertices)
        rows.append((n, m, -m * low))
    for _ in range(rng.choice([0, 0, 1, 2])):
        n, m, a = rng.choice(rows)
        c = rng.randint(2, 3)
        rows.append(rng.choice([
            (n, m, a),  # exact repeat
            (n, c * m, c * a),  # the same half-space under another label
            (tuple(-x for x in n), m, -a),  # the opposite half-space, same hyperplane
            (tuple(-x for x in n), c, c * Fraction(rng.randint(-2, 4)) - c * a / m),  # slab
            (n, m, a + rng.choice([-1, 1]) * Fraction(1, c)),  # shifted parallel copy
        ]))
    rng.shuffle(rows)
    return dim, rows, k < dim


def test_construction_matches_the_rank_verdict():
    rng = random.Random(30)
    outcomes, with_lineality = {}, 0
    for _ in range(400):
        dim, rows, lineal = random_system(rng)
        try:
            from_halfspaces(dim, rows)
            got = None
        except (EmptyPolyhedron, RedundantFacet) as e:
            got = type(e), str(e)
        assert got == rank_verdict(dim, rows), (dim, rows)
        verdict = got if got is None or got[0] is EmptyPolyhedron else RedundantFacet
        outcomes[verdict] = outcomes.get(verdict, 0) + 1
        with_lineality += lineal
    # every verdict is exercised, and lineality often enough to count
    assert len(outcomes) == 4 and min(outcomes.values()) >= 20, outcomes
    assert with_lineality >= 50


def test_warm_construction_runs_no_elimination(monkeypatch):
    P = pentagon()
    original, calls = lattice.diagonalize, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "toricshrink" or name.startswith("toricshrink."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert pentagon() == P
    assert calls == []


# ---------------------------------------------------------------------------
# validation verdicts

def test_square_is_proper_rational_simple():
    rep = validate(square())
    assert rep.all_ok
    assert rep.improper_line is None and rep.nonsimple_vertex is None


def test_half_plane_improper_with_line_witness():
    P = from_halfspaces(2, [((1, 0), 1, 2)])
    rep = validate(P)
    assert not rep.proper
    w = rep.improper_line
    assert w is not None and w[0] == 0 and w[1] != 0


def test_octahedron_not_simple():
    rep = validate(octahedron())
    assert rep.proper and not rep.simple
    point, active = rep.nonsimple_vertex
    assert len(active) == 4
    assert sorted(abs(c) for c in point) == [0.0, 0.0, 1.0]
    with pytest.raises(NotSimple):
        vertices(octahedron())
    with pytest.raises(NotSimple):
        normal_fan(octahedron())


# ---------------------------------------------------------------------------
# vertices

def test_interval_vertices_exact():
    P = interval(-2, Fraction(2, 3), 1, 3)
    vs = vertices(P)
    pts = sorted(v.point for v in vs)
    assert pts == [(Fraction(-2),), (Fraction(2, 3),)]
    by_pt = {v.point: v for v in vs}
    assert by_pt[(Fraction(-2),)].edge_generators == ((1,),)
    assert by_pt[(Fraction(2, 3),)].edge_generators == ((-1,),)


def test_square_vertex_edges():
    vs = vertices(square())
    assert len(vs) == 4
    corner = {v.point: v for v in vs}[(Fraction(-2), Fraction(-2))]
    assert set(corner.edge_generators) == {(1, 0), (0, 1)}


@pytest.mark.parametrize("P", [
    interval(-2, Fraction(2, 3), 1, 3),
    from_halfspaces(2, [((1, 0), 2, 2), ((0, 1), 3, 2), ((-2, -3), 1, 2)]),
    box([(-2, 2), (-1, 3), (-2, 5)], labels=[1, 2, 3, 1, 4, 2]),
    # the CI simplex, and one whose active rows have no integral inverse
    from_halfspaces(3, [((1, 0, 0), 1, 2), ((0, 1, 0), 2, 2), ((0, 0, 1), 3, 2),
                        ((-1, -1, -1), 1, 2)]),
    from_halfspaces(3, [((1, 0, 0), 2, 2), ((0, 1, 0), 3, 2), ((0, 0, 1), 5, 2),
                        ((-1, -2, -3), 1, 2)]),
    from_halfspaces(4, [((1, 0, 0, 0), 2, 2), ((0, 1, 0, 0), 3, 2), ((0, 0, 1, 0), 1, 2),
                        ((0, 0, 0, 1), 5, 2), ((-1, -1, -2, -3), 2, 2)]),
], ids=["teardrop", "triangle", "box3", "simplex3", "simplex3-nonintegral", "simplex4"])
def test_edge_generators_leave_one_facet_each(P):
    # the edge in position k leaves active_facets[k]: primitive, parallel to
    # every other active facet, and pointing into P across facet k
    vs = vertices(P)
    assert vs
    for v in vs:
        rows = [P.facets[i].scaled_normal for i in v.active_facets]
        assert len(v.edge_generators) == len(rows) == P.dim
        for k, w in enumerate(v.edge_generators):
            assert math.gcd(*w) == 1
            pairings = [sum(a * b for a, b in zip(w, r)) for r in rows]
            assert pairings[k] > 0
            assert pairings[:k] + pairings[k + 1:] == [0] * (P.dim - 1)


def qhull_vertices(P):
    A = P.scaled_normal_matrix()
    a = P.offsets_array()
    hs = np.column_stack([-A, -a])
    hi = HalfspaceIntersection(hs, P.interior_point())
    return np.array(sorted(map(tuple, np.round(hi.intersections, 9))))


def test_pentagon_vertices_match_qhull():
    P = pentagon()
    ours = np.array(sorted(tuple(float(c) for c in v.point) for v in vertices(P)))
    oracle = qhull_vertices(P)
    assert ours.shape == oracle.shape == (5, 2)
    assert np.allclose(ours, oracle, atol=1e-9)


def test_random_polygons_match_qhull():
    rng = np.random.default_rng(7)
    built = 0
    while built < 8:
        k = rng.integers(3, 7)
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=k))
        rows = []
        for th in angles:
            n = (int(np.round(3 * np.cos(th))), int(np.round(3 * np.sin(th))))
            if n == (0, 0):
                continue
            n = primitive_reduce(n)[0]
            rows.append((n, 1, int(rng.integers(1, 5))))
        rows = list({r[0]: r for r in rows}.values())
        if len(rows) < 3:
            continue
        try:
            P = from_halfspaces(2, rows)
        except (EmptyPolyhedron, RedundantFacet):
            continue
        if not P.is_bounded():
            continue
        ours = np.array(sorted(tuple(float(c) for c in v.point) for v in vertices(P)))
        oracle = qhull_vertices(P)
        assert ours.shape == oracle.shape
        assert np.allclose(ours, oracle, atol=1e-8)
        built += 1


# ---------------------------------------------------------------------------
# cones

def test_asymptotic_cone_of_polytope_is_origin():
    assert square().recession_rays() == []
    assert square().is_bounded()


def test_half_line_recession_ray():
    P = half_line(-2)
    assert P.recession_rays() == [(1,)]
    assert not P.is_bounded()


@pytest.mark.parametrize("dim, rows", [
    (2, [((1, 0), 1, 2), ((0, 1), 1, 2)]),  # quadrant
    (1, [((1,), 1, 2)]),  # half-line
    (2, [((1, 0), 1, 2), ((-1, 0), 2, 2), ((0, 1), 3, 2)]),  # half-strip
    (2, [((1, 0), 1, 2), ((1, 1), 1, 2)]),  # wedge with non-orthogonal rays
    (3, [((1, 0, 0), 1, 2), ((0, 1, 0), 1, 2), ((0, 0, 1), 1, 2)]),  # orthant
    (3, [((1, 0, 0), 1, 2), ((0, 1, 0), 1, 2), ((0, 0, 1), 1, 2),
         ((-1, -1, -1), 1, 2)]),  # simplex
])
def test_recession_rays_match_brute_force(dim, rows):
    P = from_halfspaces(dim, rows)
    rays = brute_force_rays(P)
    assert P.recession_rays() == rays
    assert P.is_bounded() == (rays == [])


def brute_force_rays(P):
    """Primitive d in [-4, 4]^n with <n_i, d> >= 0 for every facet normal n_i,
    where the normals with <n_i, d> = 0 have rank n - 1."""
    n = P.dim
    A = np.array([f.normal for f in P.facets])
    rays = []
    for d in itertools.product(range(-4, 5), repeat=n):
        vals = A @ d
        if math.gcd(*d) != 1 or np.any(vals < 0):
            continue
        active = A[vals == 0]
        if (np.linalg.matrix_rank(active) if len(active) else 0) == n - 1:
            rays.append(d)
    return sorted(rays)


def test_recession_rays_refuse_a_line():
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    assert not strip.is_bounded()
    with pytest.raises(ValueError, match="line"):
        strip.recession_rays()


def test_vertices_refuse_a_line():
    # the strip has no vertices; an empty list would read as success
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    with pytest.raises(NotProper, match=r"^contains line: \(0, 1\)$"):
        vertices(strip)


def test_ray_extraction_skips_interior_directions():
    # the recession cone is the dual of cone{(1,0),(1,2)}; the normals
    # themselves are interior rays of it and must not appear in the output
    P = from_halfspaces(2, [((1, 0), 1, 2), ((1, 2), 1, 2)])
    assert P.recession_rays() == [(0, 1), (2, -1)]


def test_3d_quadrant_cone_rays():
    P = box([(-2, None)] * 3)
    assert P.recession_rays() == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_cone_with_line_refuses_ray_form():
    P = from_halfspaces(2, [((1, 0), 1, 2)])
    assert validate(P).improper_line is not None
    with pytest.raises(ValueError, match="line"):
        P.recession_rays()


# ---------------------------------------------------------------------------
# decomposition P = Conv(vertices) + C(P)

def test_minkowski_quadrant():
    P = box([(-2, None), (-2, None)])
    assert [v.point for v in vertices(P)] == [(Fraction(-2), Fraction(-2))]
    assert P.recession_rays() == [(0, 1), (1, 0)]


def test_minkowski_sampling_stays_inside():
    P = box([(-2, 2), (-2, None)])
    verts = vertices(P)
    rng = np.random.default_rng(3)
    rays = np.array(P.recession_rays(), dtype=float)
    for _ in range(50):
        w = rng.dirichlet(np.ones(len(verts)))
        x = sum(wi * v.point_float for wi, v in zip(w, verts))
        for r in rays:
            x = x + rng.exponential(1.0) * r
        assert np.all(facet_values(P, x) >= -1e-9)


# ---------------------------------------------------------------------------
# structure groups

def test_structure_group_single_facet_is_label_cyclic():
    P = interval(-2, Fraction(2, 3), 1, 3)
    assert structure_group(P, [0]) == AbelianGroup()
    G = structure_group(P, [1])
    assert G.invariant_factors == (3,)
    assert str(G) == "Z/3"


def test_structure_group_2d_vertex():
    # vertex where facets with scaled normals (1,0) and (2,4) meet
    P = from_halfspaces(
        2,
        [
            ((1, 0), 1, 2),
            ((1, 2), 2, 2),
            ((-1, 0), 1, 4),
            ((0, -1), 1, 4),
        ],
    )
    G = structure_group(P, [0, 1])
    assert G.invariant_factors == (4,)


def test_structure_group_edge_in_3d():
    P = from_halfspaces(
        3,
        [
            ((1, 0, 0), 1, 5),
            ((-1, 0, 0), 1, 5),
            ((0, 1, 0), 1, 5),
            ((0, -1, 0), 1, 5),
            ((0, 0, 1), 1, 5),
            ((0, 0, -1), 1, 5),
            ((1, 1, 2), 2, 2),
        ],
    )
    G = structure_group(P, [6])
    assert G.invariant_factors == (2,)


def test_labeled_3d_simplex_vertex_groups():
    # at a simplicial vertex the group is Z^3 modulo the three active scaled
    # normals: its order is their |det|, and here each group is cyclic
    P = from_halfspaces(3, [((1, 0, 0), 1, 2), ((0, 1, 0), 2, 2),
                            ((0, 0, 1), 3, 2), ((-1, -1, -1), 1, 2)])
    groups = []
    for v in vertices(P):
        G = structure_group(P, v.active_facets)
        (a, b, c), (d, e, f), (g, h, i) = (P.facets[k].scaled_normal for k in v.active_facets)
        assert G.order == abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
        groups.append(str(G))
    assert groups == ["Z/6", "Z/2", "Z/3", "Z/6"]


def test_structure_group_empty_face():
    P = pentagon()
    # x = 0 and x + y = 4 meet at (0,4), outside the pentagon
    with pytest.raises(EmptyFace):
        structure_group(P, [0, 4])


def test_structure_group_dependent_normals():
    with pytest.raises(ValueError, match="dependent"):
        structure_group(square(), [0, 1])  # opposite facets


def saturation_quotient(normals, scaled):
    """Lambda/<m_i n_i> by its definition: coordinates of the scaled normals
    in a basis of the saturation Lambda of span{n_i}, then their quotient."""
    basis = saturation_basis(normals)
    k = len(basis)
    coords = []
    for v in scaled:
        R, pivots = rref([[b[d] for b in basis] + [v[d]] for d in range(len(v))])
        assert pivots == list(range(k))
        c = [R[i][k] for i in range(k)]
        assert all(x.denominator == 1 for x in c)
        coords.append([int(x) for x in c])
    return quotient_group(coords, k)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_structure_group_is_the_saturation_quotient(data):
    n = data.draw(st.sampled_from([2, 3]))
    k = data.draw(st.integers(1, n))
    vec = st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any)
    normals = [primitive_reduce(v)[0] for v in data.draw(st.lists(vec, min_size=k, max_size=k))]
    assume(np.linalg.matrix_rank(np.array(normals)) == k)
    labels = data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
    # the k independent facets alone: their intersection is a face of P
    P = from_halfspaces(n, [(v, m, 2) for v, m in zip(normals, labels)])
    scaled = [f.scaled_normal for f in P.facets]
    assert structure_group(P, range(k)) == saturation_quotient(normals, scaled)


# ---------------------------------------------------------------------------
# delzant data

def test_delzant_interval():
    d = delzant_data(interval(-2, 2))
    assert d.projection == ((1,), (-1,))
    assert [tuple(map(abs, k)) for k in d.kernel_basis] == [(1, 1)]
    assert d.offsets == (Fraction(2), Fraction(2))


def test_delzant_teardrop():
    d = delzant_data(interval(-2, Fraction(2, 3), 1, 3))
    assert d.projection == ((1,), (-3,))
    (k,) = d.kernel_basis
    assert tuple(map(abs, k)) == (3, 1)


def test_delzant_rejects_degenerate():
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    with pytest.raises(DegenerateProjection):
        delzant_data(strip)


def test_delzant_square_kernel_dimension():
    d = delzant_data(square())
    assert len(d.kernel_basis) == 2
    M = np.array(d.projection)
    for k in d.kernel_basis:
        assert np.all(np.array(k) @ M == 0)


# ---------------------------------------------------------------------------
# normal fan

def test_normal_fan_square_has_nine_cones():
    cones = normal_fan(square())
    assert len(cones) == 9
    sizes = sorted(len(c.face_indices) for c in cones)
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2]


def test_normal_fan_interval():
    cones = normal_fan(interval(-2, 2))
    gens = sorted(c.generators for c in cones)
    assert gens == [(), ((-1,),), ((1,),)]


def test_normal_fan_half_line():
    cones = normal_fan(half_line(-2))
    assert len(cones) == 2


def in_cone(generators, x):
    """Exact membership: x = G c with c >= 0 for independent generators G."""
    n = len(generators)
    R, pivots = rref([[g[d] for g in generators] + [Fraction(x[d])] for d in range(len(x))])
    assert pivots == list(range(n))
    return all(R[j][n] >= 0 for j in range(n))


def test_normal_fan_covers_directions():
    rng = np.random.default_rng(11)
    for P, count in ((pentagon(), 5), (box([(-2, 2)] * 4), 16)):
        cones = [c for c in normal_fan(P) if len(c.face_indices) == P.dim]
        assert len(cones) == count
        for _ in range(40):
            # a generic direction lies in the interior of exactly one cone
            x = rng.normal(size=P.dim)
            assert sum(in_cone(c.generators, x) for c in cones) == 1


# ---------------------------------------------------------------------------
# dimension 4

def test_4d_box_discrete_layer():
    P = box([(-2, 2)] * 4)
    assert validate(P).all_ok
    vs = vertices(P)
    assert len(vs) == 16
    units = {tuple(s * int(k == d) for k in range(4)) for d in range(4) for s in (1, -1)}
    for v in vs:
        assert all(abs(c) == 2 for c in v.point)
        assert len(v.edge_generators) == 4 and set(v.edge_generators) <= units
        # each edge points into P: away from the coordinate where the vertex sits
        for g in v.edge_generators:
            axis = next(i for i in range(4) if g[i])
            assert g[axis] * v.point[axis] < 0
        assert structure_group(P, v.active_facets) == AbelianGroup()
    assert len(normal_fan(P)) == 3 ** 4
    d = delzant_data(P)
    assert len(d.projection) == 8 and len(d.kernel_basis) == 4
    M = np.array(d.projection)
    for k in d.kernel_basis:
        assert np.all(np.array(k) @ M == 0)


def diagonal_invariant_factors(ms):
    """Invariant factors of the direct sum of the Z/m: gcd/lcm pair swaps."""
    ms = list(ms)
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            g = math.gcd(ms[i], ms[j])
            ms[i], ms[j] = g, ms[i] * ms[j] // g
    return tuple(m for m in ms if m > 1)


def test_labeled_4d_box_vertex_groups():
    labels = [2, 1, 3, 1, 4, 5, 6, 1]
    P = box([(-2, 2)] * 4, labels=labels)
    vs = vertices(P)
    assert len(vs) == 16
    for v in vs:
        G = structure_group(P, v.active_facets)
        assert G.invariant_factors == diagonal_invariant_factors(
            labels[i] for i in v.active_facets)
    # Z/2 + Z/3 + Z/4 + Z/6 at the corner where every lower facet is active
    assert structure_group(P, [0, 2, 4, 6]).invariant_factors == (2, 6, 12)


# ---------------------------------------------------------------------------
# JSON

def test_json_roundtrip_with_fraction_offset():
    P = interval(-2, Fraction(2, 3), 1, 3)
    d = polyhedron_to_dict(P)
    assert d["facets"][1]["offset"] == 2
    Q = polyhedron_from_dict(d)
    assert Q == P


def test_json_parses_fraction_strings_and_ints():
    d = {
        "dim": 1,
        "facets": [
            {"normal": [1], "label": 1, "offset": "4/2"},
            {"normal": [-1], "label": 3, "offset": 2},
        ],
    }
    P = polyhedron_from_dict(d)
    assert P.facets[0].offset == 2
    assert P.is_shrinker_normalized()


@pytest.mark.parametrize("facet", [
    {"normal": [1], "label": 2.7, "offset": 2},
    {"normal": [1.5], "label": 1, "offset": 2},
    {"normal": [True], "label": 1, "offset": 2},
    {"normal": [1], "label": True, "offset": 2},
    {"normal": [1], "label": 1, "offset": 1e400},
    {"normal": [1], "label": 1, "offset": -math.inf},
    {"normal": [1], "label": 1, "offset": math.nan},
])
def test_json_rejects_non_integer_entries_and_non_finite_offsets(facet):
    with pytest.raises(ValueError) as info:
        polyhedron_from_dict({"dim": 1, "facets": [facet]})
    assert type(info.value) is ValueError


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        polyhedron_from_dict({"dim": 1})
    with pytest.raises(ValueError):
        polyhedron_from_dict(
            {"dim": 1, "facets": [{"normal": [1], "label": 1, "offset": "two"}]}
        )


@given(
    st.lists(st.fractions(min_value=-3, max_value=-1), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_json_roundtrip_boxes(lows):
    P = box([(lo, lo + 4) for lo in lows])
    assert polyhedron_from_dict(polyhedron_to_dict(P)) == P


# ---------------------------------------------------------------------------
# interior machinery used downstream

def test_interior_and_facet_points():
    P = pentagon()
    x = P.interior_point()
    assert np.all(facet_values(P, x) > 1e-12)
    for i in range(len(P.facets)):
        y = P.facet_interior_point(i)
        vals = facet_values(P, y)
        assert abs(vals[i]) < 1e-8
        others = np.delete(vals, i)
        assert np.all(others > 1e-6)


def test_square_interior_point_ignores_facet_order():
    rows = [(f.normal, f.label, f.offset) for f in square().facets]
    for order in itertools.permutations(rows):
        assert from_halfspaces(2, order).interior_point().tolist() == [0.0, 0.0]


def test_strip_points_and_structure_group():
    # the strip |x| <= 2 has the y-axis as lineality space
    strip = from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 1, 2)])
    assert np.all(facet_values(strip, strip.interior_point()) > 1e-12)
    for i in range(2):
        vals = facet_values(strip, strip.facet_interior_point(i))
        assert vals[i] == 0 and vals[1 - i] > 0
    assert structure_group(strip, [0]) == AbelianGroup()


def _samples_from_vertex_data(P, rng, count):
    # the sampler as it was built on vertices(P) and a margin on the facet values
    verts = [v.point_float for v in vertices(P)]
    rays = np.array(P.recession_rays(), dtype=float).reshape(-1, P.dim)
    center = P.interior_point()
    out = []
    while len(out) < count:
        w = rng.dirichlet(np.ones(len(verts)))
        x = np.sum([wi * v for wi, v in zip(w, verts)], axis=0)
        for r in rays:
            x = x + rng.exponential(3.0) * r / np.linalg.norm(r)
        x = 0.9 * x + 0.1 * center
        if np.all(facet_values(P, x) > 1e-10):
            out.append(x)
    return np.array(out)


@pytest.mark.parametrize("P", [
    interval(-2, "2/3", 1, 3),
    half_line(-2),
    from_halfspaces(2, [((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)]),
    box([(-2, None), (-2, None)]),
    from_halfspaces(2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, -1), 1, 2), ((-1, 0), 1, 3)]),
], ids=["teardrop", "half_line", "rectangle", "quadrant", "pentagon_cut"])
def test_sample_interior_matches_the_vertex_data_sampler(P):
    # the same draws in the same order give the same bits
    for seed in (0, 5):
        ref = _samples_from_vertex_data(P, np.random.default_rng(seed), 40)
        assert np.array_equal(P.sample_interior(np.random.default_rng(seed), 40), ref)


def test_sample_interior_respects_domain():
    P = box([(-2, None), (-2, 2)])
    rng = np.random.default_rng(5)
    pts = P.sample_interior(rng, 30)
    assert pts.shape == (30, 2)
    for x in pts:
        assert np.all(facet_values(P, x) > 1e-11)
