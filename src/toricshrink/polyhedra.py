"""Labeled polyhedra: validation, faces, cones, structure groups, Delzant data.

A labeled polyhedron is P = { x : <x, m_i n_i> + a_i >= 0 } with primitive
integer normals n_i, positive integer labels m_i, and rational offsets a_i.
Predicates and verdicts (vertices, cones, ranks, nonempty interior,
irredundant facets, nonempty faces) use exact Fraction/integer arithmetic.
Construction, face verdicts, vertices and interior points all read one
cached enumeration: the vertices and extreme recession rays of P with its
lineality space projected out.
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
    integer_rank,
    primitive_reduce,
    quotient_group,
    rref,
    saturation_basis,
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
# exact linear algebra over Fractions (desk-scale dimensions only)

def _kernel_direction(M, n):
    """One-dimensional kernel of an (n-1) x n exact system, or None."""
    R, pivots = rref(M)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        return None
    f = free[0]
    w = [Fraction(0)] * n
    w[f] = Fraction(1)
    for i, c in enumerate(pivots):
        w[c] = -R[i][f]
    return tuple(w)


def rational_to_primitive(vec) -> tuple[int, ...]:
    """Clear denominators of a rational direction and reduce to a primitive integer vector."""
    fracs = [Fraction(x) for x in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    prim, _ = primitive_reduce(ints)
    return prim


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

    halfspaces: primitive integer normals of { x : <n, x> >= 0 } constraints.
    generators: rational ray generators (primitive integers after clearing denominators).
    authoritative says which form defines the cone; the other may be derived.
    """

    dim: int
    halfspaces: tuple[tuple[int, ...], ...] | None = None
    generators: tuple[tuple[Fraction, ...], ...] | None = None
    authoritative: str = "halfspaces"
    face_indices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.authoritative not in ("halfspaces", "generators"):
            raise ValueError("authoritative must be 'halfspaces' or 'generators'")
        if self.authoritative == "halfspaces" and self.halfspaces is None:
            raise ValueError("half-space form requested but no halfspaces given")
        if self.authoritative == "generators" and self.generators is None:
            raise ValueError("generator form requested but no generators given")

    # -- predicates ---------------------------------------------------------

    def contains(self, x, tol: float = 1e-9) -> bool:
        x = np.asarray(x, dtype=float)
        if self.authoritative == "halfspaces":
            if not self.halfspaces:
                return True
            A = np.array(self.halfspaces, dtype=float)
            return bool(np.all(A @ x >= -tol))
        gens = self.generators or ()
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
        """A line direction inside the cone, or None (half-space form only)."""
        if self.authoritative != "halfspaces":
            raise ValueError("line detection needs the half-space form")
        if not self.halfspaces:
            return tuple(1 if i == 0 else 0 for i in range(self.dim))
        ker = integer_kernel([list(h) for h in self.halfspaces])
        return ker[0] if ker else None

    def is_pointed(self) -> bool:
        return self.contains_line() is None

    # -- conversions (n <= 3) ------------------------------------------------

    def ray_generators(self) -> list[tuple[int, ...]]:
        """Primitive integer ray generators of a pointed half-space-form cone.

        Exact pair-solve double description; dimensions 1..3 only.
        """
        if self.authoritative == "generators":
            return [rational_to_primitive(g) for g in self.generators]
        n = self.dim
        if n > 3:
            raise ValueError("ray extraction implemented for n <= 3 only")
        if not self.halfspaces:
            raise ValueError("cone is all of R^n; it has no ray description")
        if self.contains_line() is not None:
            raise ValueError("cone contains a line; no pointed ray description")
        normals = [tuple(h) for h in self.halfspaces]
        candidates: set[tuple[int, ...]] = set()
        if n == 1:
            for d in ((1,), (-1,)):
                candidates.add(d)
        elif n == 2:
            for (p, q) in normals:
                for d in ((-q, p), (q, -p)):
                    if any(d):
                        candidates.add(primitive_reduce(d)[0])
        else:
            for u, v in itertools.combinations(normals, 2):
                d = (
                    u[1] * v[2] - u[2] * v[1],
                    u[2] * v[0] - u[0] * v[2],
                    u[0] * v[1] - u[1] * v[0],
                )
                if any(d):
                    prim = primitive_reduce(d)[0]
                    candidates.add(prim)
                    candidates.add(tuple(-x for x in prim))
        rays = [
            d
            for d in candidates
            if all(sum(h * x for h, x in zip(nrm, d)) >= 0 for nrm in normals)
        ]
        return sorted(rays)

    def to_generator_form(self) -> "Cone":
        if self.authoritative == "generators":
            return self
        rays = self.ray_generators()
        return Cone(
            dim=self.dim,
            halfspaces=self.halfspaces,
            generators=tuple(tuple(Fraction(x) for x in r) for r in rays),
            authoritative="generators",
        )

    def is_trivial(self) -> bool:
        """True iff the cone is {0}."""
        if self.authoritative == "halfspaces":
            return self.is_pointed() and not self.ray_generators()
        return not self.generators


def dual_cone(C: Cone) -> Cone:
    """Dual cone C' = { v : <v, w> >= 0 for all w in C }, in generator form."""
    if C.authoritative == "halfspaces":
        # dual of an intersection of half-spaces is the cone on its normals
        gens = tuple(tuple(Fraction(x) for x in h) for h in (C.halfspaces or ()))
        return Cone(dim=C.dim, generators=gens, authoritative="generators")
    normals = tuple(rational_to_primitive(g) for g in (C.generators or ()))
    half = Cone(dim=C.dim, halfspaces=normals)
    if half.contains_line() is not None:
        # dual is not full-dimensional yet still pointed; keep half-space form
        return Cone(dim=C.dim, halfspaces=normals, authoritative="halfspaces")
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

class _Skeleton(NamedTuple):
    """Vertices (point, active facets) and extreme rays (primitive direction,
    facets parallel to it) of P ∩ L^perp, where L is the lineality space."""

    lineality: tuple[tuple[int, ...], ...]
    vertices: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...]
    rays: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@lru_cache(maxsize=256)
def _skeleton(P: LabeledPolyhedron) -> _Skeleton:
    """Extreme rays of { (x, s) : <x, m_i n_i> + a_i s >= 0, s >= 0, x in L^perp }.

    The cone is pointed, so each extreme ray is the kernel of the lineality
    rows and n - dim L independent tight rows. Rays with s > 0 scale to the
    vertices, rays with s = 0 are the recession rays; P is empty iff no ray
    has s > 0.
    """
    n = P.dim
    lineality = tuple(integer_kernel([list(f.normal) for f in P.facets]))
    # each row scaled by its offset's denominator, so all arithmetic on
    # primitive integer rays is in integers
    rows = [
        tuple(c * f.offset.denominator for c in f.scaled_normal) + (f.offset.numerator,)
        for f in P.facets
    ] + [(0,) * n + (1,)]
    fixed = [k + (0,) for k in lineality]
    verts, rays = {}, {}
    for subset in itertools.combinations(rows, n - len(lineality)):
        w = _kernel_direction(fixed + list(subset), n + 1)
        if w is None:
            continue
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
    if P.dim > 3:
        raise ValueError("vertex enumeration implemented for n <= 3 only")
    sk = _skeleton(P)
    # with a lineality space P has no vertices; the skeleton's are those of P ∩ L^perp
    return () if sk.lineality else sk.vertices


def vertices(P: LabeledPolyhedron) -> list[VertexData]:
    """Vertices with active facets and inward primitive edge generators (simple P)."""
    n = P.dim
    data = []
    for point, active in _enumerate_vertices(P):
        if len(active) != n:
            raise NotSimple(
                f"vertex {tuple(float(p) for p in point)} meets {len(active)} "
                f"facets (expected {n})"
            )
        edges = []
        scaled = [P.facets[i].scaled_normal for i in active]
        for k, i in enumerate(active):
            others = [scaled[j] for j in range(n) if j != k]
            w = _kernel_direction(others, n)
            if w is None:
                raise NotSimple(
                    f"dependent edge system at vertex "
                    f"{tuple(float(p) for p in point)}"
                )
            inward = sum(Fraction(s) * wi for s, wi in zip(scaled[k], w))
            if inward < 0:
                w = tuple(-x for x in w)
            elif inward == 0:
                raise NotSimple("degenerate edge direction")
            edges.append(rational_to_primitive(w))
        data.append(
            VertexData(point=point, active_facets=active, edge_generators=tuple(edges))
        )
    return data


def validate(P: LabeledPolyhedron) -> ValidationReport:
    """Classify P as proper/rational/simple with witnesses for each failure."""
    cone = asymptotic_cone(P)
    line = cone.contains_line()
    proper = line is None

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
        proper=proper,
        rational=rational,
        simple=simple,
        improper_line=line,
        nonsimple_vertex=witness,
    )


def minkowski_decompose(P: LabeledPolyhedron):
    """P = Conv(vertices) + C(P); returns (vertex list, recession cone in generator form)."""
    rep = validate(P)
    if not rep.proper:
        raise NotProper(f"asymptotic cone contains the line {rep.improper_line}")
    verts = vertices(P)
    recession = asymptotic_cone(P).to_generator_form()
    return verts, recession


def structure_group(P: LabeledPolyhedron, face_spec) -> AbelianGroup:
    """Invariant factors of the lattice quotient attached to a face.

    The numerator is the saturation of span{n_i} in the ambient lattice, the
    denominator the sublattice generated by the scaled normals m_i n_i.
    """
    face_spec = tuple(sorted(set(int(i) for i in face_spec)))
    if not face_spec:
        return AbelianGroup()
    if any(i < 0 or i >= len(P.facets) for i in face_spec):
        raise IndexError("facet index out of range")
    normals = [list(P.facets[i].normal) for i in face_spec]
    k = len(face_spec)
    if integer_rank(normals) != k:
        raise ValueError("selected facet normals are linearly dependent")
    if not _face(P, face_spec)[0]:
        raise EmptyFace(f"facets {face_spec} have no common point on P")

    basis = saturation_basis(normals)  # k rows spanning the saturation
    coords = []
    for i in face_spec:
        target = P.facets[i].scaled_normal
        c = _coordinates_in_basis(target, basis)
        coords.append(c)
    return quotient_group(coords, k)


def _coordinates_in_basis(vec, basis) -> list[int]:
    """Integer coordinates of vec in a saturated lattice basis (rows)."""
    k = len(basis)
    # solve c * basis = vec by elimination on the transposed system
    R, pivots = rref([[basis[j][i] for j in range(k)] + [vec[i]]
                      for i in range(len(vec))])
    if pivots[:k] != list(range(k)):
        raise ValueError("basis rows are dependent")
    if k in pivots:
        raise ValueError("vector is outside the span of the basis")
    out = []
    for i in range(k):
        s = R[i][k]
        if s.denominator != 1:
            raise ValueError("vector is not in the lattice spanned by the basis")
        out.append(int(s))
    return out


def delzant_data(P: LabeledPolyhedron) -> DelzantData:
    """The projection matrix (rows m_i n_i), an integer kernel basis, and offsets."""
    M = [list(f.scaled_normal) for f in P.facets]
    n = P.dim
    N = len(P.facets)
    if integer_rank(M) != n:
        raise DegenerateProjection("facet normals do not span the ambient space")
    transpose = [[M[i][d] for i in range(N)] for d in range(n)]
    kernel = integer_kernel(transpose)
    assert len(kernel) == N - n
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
        cones.append(
            Cone(
                dim=P.dim,
                generators=gens,
                authoritative="generators",
                face_indices=idx,
            )
        )
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
