"""Labeled polyhedra: validation, faces, cones, structure groups, Delzant data.

A labeled polyhedron is P = { x : <x, m_i n_i> + a_i >= 0 } with primitive
integer normals n_i, positive integer labels m_i, and rational offsets a_i.
Predicates and verdicts (vertices, cones, ranks, nonempty interior,
irredundant facets, nonempty faces) use exact Fraction/integer arithmetic,
in any dimension. One enumeration over homogenised integer rows gives the
lineality space, the vertices and the extreme recession rays: cached per
polyhedron, it serves construction, validation, face verdicts, vertices and
interior points; with zero offsets it gives the lines and rays of a
half-space cone. Vertex edges come from one exact inverse of the active
rows, and structure groups from one Smith form.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .lattice import (
    integer_kernel,
    primitive_reduce,
    quotient_group,
    rref,
    AbelianGroup,
)


class EmptyPolyhedron(ValueError):
    """The inequality system has empty interior (or is infeasible)."""


class RedundantFacet(ValueError):
    """A facet inequality does not touch the polyhedron in an (n-1)-face."""


class NotSimple(ValueError):
    """A vertex meets more than n facets."""


class NotProper(ValueError):
    """The asymptotic cone contains a line."""


class EmptyFace(ValueError):
    """The selected facets have no common point on the polyhedron."""


class DegenerateProjection(ValueError):
    """The facet normals do not span the ambient space."""


# ---------------------------------------------------------------------------
# the exact enumeration over homogenised integer rows

def rational_to_primitive(vec) -> tuple[int, ...]:
    """Clear denominators of a rational direction and reduce to a primitive integer vector."""
    fracs = [Fraction(x) for x in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    prim, _ = primitive_reduce(ints)
    return prim


class _Skeleton(NamedTuple):
    """Vertices (point, active rows) and extreme rays (primitive direction,
    rows parallel to it) of Q ∩ L^perp, where L is the lineality space."""

    lineality: tuple[tuple[int, ...], ...]
    vertices: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]
    rays: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


def _enumerate(n: int, rows) -> _Skeleton:
    """Skeleton of Q = { x : <x, c_i> + a_i >= 0 } from integer rows (c_i, a_i).

    L is the kernel of the c_i. The cone { (x, s) : <x, c_i> + a_i s >= 0,
    s >= 0, x in L^perp } is pointed, so each extreme ray is the kernel of
    the lineality rows and n - dim L independent tight rows. Rays with
    s > 0 scale to the vertices, rays with s = 0 are the recession rays; Q is
    empty iff no ray has s > 0.
    """
    normals = [primitive_reduce(r[:n])[0] for r in rows]
    lineality = tuple(integer_kernel(normals)) if normals else tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n))
    rows = list(rows) + [(0,) * n + (1,)]
    fixed = [k + (0,) for k in lineality]
    verts, rays = {}, {}
    for subset in itertools.combinations(rows, n - len(lineality)):
        R, pivots = rref(fixed + list(subset))
        if len(pivots) != n:
            continue
        free = next(c for c in range(n + 1) if c not in pivots)
        w = [int(c == free) for c in range(n + 1)]
        for i, c in enumerate(pivots):
            w[c] = -R[i][free]
        w = rational_to_primitive(w)
        vals = [sum(r * wi for r, wi in zip(row, w)) for row in rows]
        if min(vals) < 0:
            if max(vals) > 0:
                continue
            w, vals = [-x for x in w], [-v for v in vals]
        *x, s = w
        active = tuple(i for i, v in enumerate(vals[:-1]) if v == 0)
        if s:
            verts[tuple(Fraction(xi, s) for xi in x)] = active
        else:
            rays[tuple(x)] = active
    return _Skeleton(lineality, tuple(sorted(verts.items())), tuple(sorted(rays.items())))


# ---------------------------------------------------------------------------
# core types

@dataclass(frozen=True)
class Facet:
    """One half-space <x, m n> + a >= 0 with its labeling integer m."""

    normal: tuple[int, ...]
    label: int
    offset: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(int(x) for x in self.normal))
        object.__setattr__(self, "offset", Fraction(self.offset))
        prim, mult = primitive_reduce(self.normal)
        if mult != 1:
            raise ValueError(
                f"normal {self.normal} is not primitive (divide by {mult}; "
                "the labeling integer is separate data)"
            )
        if self.label < 1:
            raise ValueError("facet label must be a positive integer")

    @property
    def scaled_normal(self) -> tuple[int, ...]:
        return tuple(self.label * x for x in self.normal)


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone in half-space or generator form.

    halfspaces: integer normals of { x : <n, x> >= 0 } constraints.
    generators: rational ray generators (primitive integers after clearing denominators).
    The cone is in generator form exactly when generators is given. A
    half-space cone reads its lines and extreme rays from the exact
    enumeration of its rows with zero offsets.
    """

    dim: int
    halfspaces: tuple[tuple[int, ...], ...] | None = None
    generators: tuple[tuple[Fraction, ...], ...] | None = None
    face_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.halfspaces is None and self.generators is None:
            raise ValueError("a cone needs halfspaces or generators")

    def _skeleton(self) -> _Skeleton:
        if self.halfspaces is None:
            raise ValueError("line and ray enumeration need the half-space form")
        return _enumerate(self.dim, [tuple(h) + (0,) for h in self.halfspaces])

    # -- predicates ---------------------------------------------------------

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.generators is None:
            if not self.halfspaces:
                return True
            A = np.array(self.halfspaces, dtype=float)
            return bool(np.all(A @ x >= -tol))
        gens = self.generators
        if not gens:
            return bool(np.linalg.norm(x) <= tol)
        G = np.array([[float(g) for g in ray] for ray in gens], dtype=float)
        # Caratheodory: x is in the cone iff it is in the cone on some rank(G)
        # independent generators, where lstsq gives its coordinates; B max(c, 0)
        # lies in the cone for any subset, so dependent subsets do no harm
        for subset in itertools.combinations(G, np.linalg.matrix_rank(G)):
            B = np.array(subset).T
            c = np.linalg.lstsq(B, x, rcond=None)[0]
            if np.linalg.norm(B @ np.maximum(c, 0.0) - x) <= tol * (1.0 + np.linalg.norm(x)):
                return True
        return False

    def contains_line(self) -> tuple[int, ...] | None:
        """A line direction inside the cone, or None (needs the half-space form)."""
        lineality = self._skeleton().lineality
        return lineality[0] if lineality else None

    def is_pointed(self) -> bool:
        return self.contains_line() is None

    # -- conversions ----------------------------------------------------------

    def ray_generators(self) -> list[tuple[int, ...]]:
        """Primitive integer ray generators, sorted for a half-space cone (which must be pointed)."""
        if self.generators is not None:
            return [rational_to_primitive(g) for g in self.generators]
        sk = self._skeleton()
        if sk.lineality:
            raise ValueError("cone contains a line; no pointed ray description")
        return [r for r, _ in sk.rays]

    def to_generator_form(self) -> "Cone":
        if self.generators is not None:
            return self
        rays = self.ray_generators()
        return Cone(
            dim=self.dim,
            halfspaces=self.halfspaces,
            generators=tuple(tuple(Fraction(x) for x in r) for r in rays),
        )

    def is_trivial(self) -> bool:
        """True iff the cone is {0}."""
        if self.generators is None:
            sk = self._skeleton()
            return not sk.lineality and not sk.rays
        return not self.generators


def dual_cone(C: Cone) -> Cone:
    """Dual cone C' = { v : <v, w> >= 0 for all w in C }, in generator form."""
    if C.generators is None:
        # dual of an intersection of half-spaces is the cone on its normals
        gens = tuple(tuple(Fraction(x) for x in h) for h in C.halfspaces)
        return Cone(dim=C.dim, generators=gens)
    half = Cone(dim=C.dim, halfspaces=tuple(rational_to_primitive(g) for g in C.generators))
    if half.contains_line() is not None:
        # dual is not full-dimensional yet still pointed; keep half-space form
        return half
    return half.to_generator_form()


@dataclass(frozen=True)
class VertexData:
    point: tuple[Fraction, ...]
    active_facets: tuple[int, ...]
    edge_generators: tuple[tuple[int, ...], ...]

    @property
    def point_float(self) -> np.ndarray:
        return np.array([float(p) for p in self.point])


@dataclass(frozen=True)
class ValidationReport:
    proper: bool
    rational: bool
    simple: bool
    improper_line: tuple[int, ...] | None = None
    nonsimple_vertex: tuple | None = None

    @property
    def all_ok(self) -> bool:
        return self.proper and self.rational and self.simple


@dataclass(frozen=True)
class DelzantData:
    projection: tuple[tuple[int, ...], ...]  # N x n rows m_i n_i
    kernel_basis: tuple[tuple[int, ...], ...]  # integer basis of ker(projection map)
    offsets: tuple[Fraction, ...]


@dataclass(frozen=True)
class LabeledPolyhedron:
    dim: int
    facets: tuple[Facet, ...]

    def __post_init__(self):
        object.__setattr__(self, "facets", tuple(self.facets))
        if not self.facets:
            raise ValueError("a labeled polyhedron needs at least one facet")
        for f in self.facets:
            if len(f.normal) != self.dim:
                raise ValueError("facet normal length does not match dimension")
        _check_construction(self)

    # -- numeric views -------------------------------------------------------

    def scaled_normal_matrix(self) -> np.ndarray:
        return np.array([f.scaled_normal for f in self.facets], dtype=float)

    def offsets_array(self) -> np.ndarray:
        return np.array([float(f.offset) for f in self.facets])

    def linear_values(self, x) -> np.ndarray:
        """Values l_i(x) + a_i, one per facet."""
        x = np.asarray(x, dtype=float)
        return self.scaled_normal_matrix() @ x + self.offsets_array()

    def contains(self, x, tol: float = 1e-9) -> bool:
        return bool(np.all(self.linear_values(x) >= -tol))

    def interior_contains(self, x, margin: float = 1e-12) -> bool:
        return bool(np.all(self.linear_values(x) > margin))

    def interior_point(self) -> np.ndarray:
        return _relative_interior_point(*_face(self))

    def facet_interior_point(self, i: int) -> np.ndarray:
        i = range(len(self.facets))[i]  # negative i counts from the end, as for a list
        return _relative_interior_point(*_face(self, (i,)))

    def is_shrinker_normalized(self) -> bool:
        return all(f.offset == 2 for f in self.facets)

    def is_bounded(self) -> bool:
        sk = _skeleton(self)
        return not sk.lineality and not sk.rays

    def recession_rays(self) -> list[tuple[int, ...]]:
        """Primitive integer generators of the extreme rays of C(P), sorted."""
        sk = _skeleton(self)
        if sk.lineality:
            raise ValueError("cone contains a line; no pointed ray description")
        return [r for r, _ in sk.rays]

    def sample_interior(self, rng: np.random.Generator, count: int,
                        ray_scale: float = 3.0) -> np.ndarray:
        """Interior sample points: vertex convex combinations plus damped recession moves."""
        verts = [v.point_float for v in vertices(self)]
        rays = np.array(self.recession_rays(), dtype=float).reshape(-1, self.dim)
        center = self.interior_point()
        out = []
        tries = 0
        while len(out) < count:
            tries += 1
            if tries > 400 * count:
                raise RuntimeError("interior sampling failed to converge")
            if verts:
                w = rng.dirichlet(np.ones(len(verts)))
                x = np.sum([wi * v for wi, v in zip(w, verts)], axis=0)
            else:
                x = center.copy()
            for r in rays:
                x = x + rng.exponential(ray_scale) * r / np.linalg.norm(r)
            x = 0.9 * x + 0.1 * center  # pull off the boundary
            if self.interior_contains(x, margin=1e-10):
                out.append(x)
        return np.array(out)


# ---------------------------------------------------------------------------
# the skeleton: one exact enumeration per polyhedron

@lru_cache(maxsize=256)
def _skeleton(P: LabeledPolyhedron) -> _Skeleton:
    """The enumeration of P; active sets index its facets."""
    # each row scaled by its offset's denominator, so all arithmetic on
    # primitive integer rays is in integers
    return _enumerate(P.dim, [
        tuple(c * f.offset.denominator for c in f.scaled_normal) + (f.offset.numerator,)
        for f in P.facets
    ])


def _face(P: LabeledPolyhedron, spec=()):
    """Vertices and rays of the skeleton on which every facet in spec is tight."""
    sk = _skeleton(P)
    return tuple(
        [g for g, active in items if set(spec) <= set(active)]
        for items in (sk.vertices, sk.rays)
    )


def _affine_dim(points, rays) -> int:
    """Dimension of conv(points) + cone(rays); -1 when there are no points."""
    if not points:
        return -1
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    return len(rref(rows + [list(r) for r in rays])[1])


def _relative_interior_point(points, rays) -> np.ndarray:
    """Barycenter of the points plus the sum of the rays, exact until the return.

    Every generator enters with a positive weight, so the point lies in the
    relative interior of conv(points) + cone(rays).
    """
    return np.array([
        float(sum(p[d] for p in points) / len(points) + sum(r[d] for r in rays))
        for d in range(len(points[0]))
    ])


def _check_construction(P: LabeledPolyhedron) -> None:
    """Raise unless P has nonempty interior and no redundant facet."""
    sk = _skeleton(P)
    if not sk.vertices:
        raise EmptyPolyhedron("inequality system is infeasible")
    dim = P.dim - len(sk.lineality)
    if _affine_dim(*_face(P)) < dim:
        raise EmptyPolyhedron("inequality system has empty interior")
    # an (n-1)-dimensional facet is still redundant when an earlier facet
    # gives the same half-space
    seen = set()
    for i, f in enumerate(P.facets):
        halfspace = (f.normal, f.offset / f.label)
        if halfspace in seen or _affine_dim(*_face(P, (i,))) < dim - 1:
            raise RedundantFacet(
                f"facet {i} (normal {f.normal}) does not meet the "
                "polyhedron in a facet; labels on it would be meaningless"
            )
        seen.add(halfspace)


# ---------------------------------------------------------------------------
# operations

def asymptotic_cone(P: LabeledPolyhedron) -> Cone:
    """C(P): same primitive normals, zero offsets (half-space form)."""
    return Cone(dim=P.dim, halfspaces=tuple(f.normal for f in P.facets))


def _enumerate_vertices(P: LabeledPolyhedron):
    """All vertices with exact active sets: [(point Fractions, active indices)]."""
    sk = _skeleton(P)
    # with a lineality space P has no vertices; the skeleton's are those of P ∩ L^perp
    return () if sk.lineality else sk.vertices


def vertices(P: LabeledPolyhedron) -> list[VertexData]:
    """Vertices with active facets and inward primitive edge generators (simple P).

    The edge that leaves facet k solves <w, m_j n_j> = 0 for the other active
    j and <w, m_k n_k> = 1 > 0: it is column k of the inverse of the active
    rows, which are independent because they cut out the vertex alone.
    """
    n = P.dim
    data = []
    for point, active in _enumerate_vertices(P):
        if len(active) != n:
            raise NotSimple(
                f"vertex {tuple(float(p) for p in point)} meets {len(active)} "
                f"facets (expected {n})"
            )
        R, _ = rref([list(P.facets[i].scaled_normal) + [int(i == j) for j in active]
                     for i in active])
        edges = tuple(rational_to_primitive([row[n + k] for row in R]) for k in range(n))
        data.append(VertexData(point=point, active_facets=active, edge_generators=edges))
    return data


def validate(P: LabeledPolyhedron) -> ValidationReport:
    """Classify P as proper/rational/simple with witnesses for each failure."""
    lineality = _skeleton(P).lineality
    line = lineality[0] if lineality else None

    # normals are primitive lattice vectors by construction, and every edge
    # generator solves an integer system, so rationality is structural here
    rational = all(
        isinstance(x, int) for f in P.facets for x in f.normal
    )

    simple = True
    witness = None
    for point, active in _enumerate_vertices(P):
        if len(active) != P.dim:
            simple = False
            witness = (tuple(float(p) for p in point), active)
            break
    return ValidationReport(
        proper=line is None,
        rational=rational,
        simple=simple,
        improper_line=line,
        nonsimple_vertex=witness,
    )


def minkowski_decompose(P: LabeledPolyhedron):
    """P = Conv(vertices) + C(P); returns (vertex list, recession cone in generator form)."""
    sk = _skeleton(P)
    if sk.lineality:
        raise NotProper(f"asymptotic cone contains the line {sk.lineality[0]}")
    recession = Cone(
        dim=P.dim,
        halfspaces=asymptotic_cone(P).halfspaces,
        generators=tuple(tuple(Fraction(x) for x in r) for r, _ in sk.rays),
    )
    return vertices(P), recession


def structure_group(P: LabeledPolyhedron, face_spec) -> AbelianGroup:
    """The local group Λ_F/⟨m_i n_i⟩ of the face cut out by the facets in face_spec.

    Λ_F is the saturation of span{n_i} in Z^n. Z^n is Λ_F plus a free
    complement, so Λ_F/⟨m_i n_i⟩ is exactly the torsion of Z^n/⟨m_i n_i⟩:
    the invariant factors of one Smith form of the scaled normals.
    """
    face_spec = tuple(sorted(set(int(i) for i in face_spec)))
    if any(i < 0 or i >= len(P.facets) for i in face_spec):
        raise IndexError("facet index out of range")
    quotient = quotient_group([P.facets[i].scaled_normal for i in face_spec], P.dim)
    if P.dim - quotient.free_rank != len(face_spec):
        raise ValueError("selected facet normals are linearly dependent")
    if not _face(P, face_spec)[0]:
        raise EmptyFace(f"facets {face_spec} have no common point on P")
    return AbelianGroup(invariant_factors=quotient.invariant_factors)


def delzant_data(P: LabeledPolyhedron) -> DelzantData:
    """The projection matrix (rows m_i n_i), an integer kernel basis, and offsets."""
    M = [list(f.scaled_normal) for f in P.facets]
    n = P.dim
    N = len(P.facets)
    transpose = [[M[i][d] for i in range(N)] for d in range(n)]
    kernel = integer_kernel(transpose)
    if len(kernel) != N - n:
        raise DegenerateProjection("facet normals do not span the ambient space")
    for c in kernel:
        combo = [sum(c[i] * M[i][d] for i in range(N)) for d in range(n)]
        assert all(v == 0 for v in combo)
    return DelzantData(
        projection=tuple(tuple(row) for row in M),
        kernel_basis=tuple(kernel),
        offsets=tuple(f.offset for f in P.facets),
    )


def normal_fan(P: LabeledPolyhedron) -> list[Cone]:
    """One cone per face, generated by the primitive normals active on the face.

    Faces are enumerated through vertex active sets (every face of a pointed
    polyhedron contains a vertex); the whole polyhedron contributes {0}.
    """
    rep = validate(P)
    if not rep.proper:
        raise NotProper("normal fan needs a proper polyhedron")
    if not rep.simple:
        raise NotSimple("normal fan needs a simple polyhedron")
    subsets = {frozenset()}
    for _, active in _enumerate_vertices(P):
        for r in range(1, len(active) + 1):
            for sub in itertools.combinations(active, r):
                subsets.add(frozenset(sub))
    cones = []
    for sub in sorted(subsets, key=lambda s: (len(s), tuple(sorted(s)))):
        idx = tuple(sorted(sub))
        gens = tuple(
            tuple(Fraction(x) for x in P.facets[i].normal) for i in idx
        )
        cones.append(Cone(dim=P.dim, generators=gens, face_indices=idx))
    return cones


# ---------------------------------------------------------------------------
# JSON interface

def _offset_from_json(v) -> Fraction:
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise ValueError("offset must be a number or 'p/q' string")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)
    raise ValueError(f"cannot parse offset {v!r}")


def _offset_to_json(a: Fraction):
    if a.denominator == 1:
        return int(a)
    return f"{a.numerator}/{a.denominator}"


def polyhedron_from_dict(d: dict) -> LabeledPolyhedron:
    try:
        dim = int(d["dim"])
        facets = tuple(
            Facet(
                normal=tuple(int(x) for x in f["normal"]),
                label=int(f["label"]),
                offset=_offset_from_json(f["offset"]),
            )
            for f in d["facets"]
        )
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed polyhedron payload: {e}") from e
    return LabeledPolyhedron(dim=dim, facets=facets)


def polyhedron_to_dict(P: LabeledPolyhedron) -> dict:
    return {
        "dim": P.dim,
        "facets": [
            {
                "normal": list(f.normal),
                "label": f.label,
                "offset": _offset_to_json(f.offset),
            }
            for f in P.facets
        ],
    }


def load_polyhedron(path) -> LabeledPolyhedron:
    with open(path, "r", encoding="utf-8") as fh:
        return polyhedron_from_dict(json.load(fh))


def save_polyhedron(P: LabeledPolyhedron, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polyhedron_to_dict(P), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# convenient constructors used across tests, demos, and the CLI

def from_halfspaces(dim, rows) -> LabeledPolyhedron:
    """Build from (normal, label, offset) triples."""
    return LabeledPolyhedron(
        dim=dim,
        facets=tuple(Facet(normal=n, label=m, offset=Fraction(a)) for n, m, a in rows),
    )


def interval(lo="-2", hi="2", lo_label=1, hi_label=1) -> LabeledPolyhedron:
    """1D polytope {x : lo <= x <= hi} in labeled form with integer-primitive normals."""
    lo, hi = Fraction(lo), Fraction(hi)
    return from_halfspaces(
        1, [((1,), lo_label, -lo * lo_label), ((-1,), hi_label, hi * hi_label)]
    )


def half_line(lo="-2", label=1) -> LabeledPolyhedron:
    lo = Fraction(lo)
    return from_halfspaces(1, [((1,), label, -lo * label)])


def box(bounds, labels=None) -> LabeledPolyhedron:
    """Axis-aligned product of intervals; bounds = [(lo, hi or None), ...].

    labels gives one label per facet in row order: for each axis the lower
    facet, then the upper one if present. Offsets scale with the labels, as
    in interval, so each facet stays at its bound. Default: all labels 1.
    """
    dim = len(bounds)
    rows = []
    for d, (lo, hi) in enumerate(bounds):
        e = tuple(1 if k == d else 0 for k in range(dim))
        rows.append((e, -Fraction(lo)))
        if hi is not None:
            rows.append((tuple(-x for x in e), Fraction(hi)))
    if labels is None:
        labels = [1] * len(rows)
    elif len(labels) != len(rows):
        raise ValueError(f"box has {len(rows)} facets but {len(labels)} labels")
    return from_halfspaces(
        dim, [(e, m, a * m) for (e, a), m in zip(rows, labels)]
    )
