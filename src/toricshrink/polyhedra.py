"""Labeled polyhedra: validation, faces, normal fans, structure groups, Delzant data.

A labeled polyhedron is P = { x : <x, m_i n_i> + a_i >= 0 } with primitive
integer normals n_i, positive integer labels m_i, and rational offsets a_i.
Predicates and verdicts (vertices, nonempty interior, irredundant facets,
nonempty faces) use exact integer arithmetic, with Fractions only for
offsets and vertex coordinates, in any dimension. One enumeration over
homogenised integer rows gives the lineality space, the vertices with their
active facets and the extreme recession rays with their parallel facets:
cached per polyhedron, it serves construction, validation, face verdicts,
vertices and interior points. Construction reads its verdicts off those
incidence sets, since a facet is tight on a face exactly when it is in the
set of every vertex and ray of the face. Every elimination is
lattice.diagonalize on integer rows: each skeleton ray, and each vertex
edge, is the one primitive kernel vector of its tight rows; structure groups
are the divisibility chain of its pivots; the lineality space and the
Delzant kernel are integer kernels.

The module imports no numpy: only the float views (point_float, the numeric
views of LabeledPolyhedron and the relative interior point) import it where
they run, so the exact layer loads without it.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .lattice import (
    integer_kernel,
    primitive_reduce,
    quotient_group,
    AbelianGroup,
)

if TYPE_CHECKING:
    import numpy as np


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
# core types

@dataclass(frozen=True)
class Facet:
    """One half-space <x, m n> + a >= 0 with its labeling integer m."""

    normal: tuple[int, ...]
    label: int
    offset: Fraction

    def __post_init__(self):
        # int() would truncate 1.5 to 1, so each entry must equal its int
        try:
            normal, label = tuple(int(x) for x in self.normal), int(self.label)
            integral = normal == tuple(self.normal) and label == self.label
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(
                f"facet normal {self.normal!r} and label {self.label!r} must be integers"
            )
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "label", label)
        try:
            offset = Fraction(self.offset)
        except (OverflowError, ValueError, ZeroDivisionError):  # inf, nan, "p/0", non-fractions
            raise ValueError(f"facet offset {self.offset!r} must be a finite rational") from None
        object.__setattr__(self, "offset", offset)
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
    """A cone of the normal fan: generated by the primitive integer normals
    of the facets in face_indices."""

    dim: int
    generators: tuple[tuple[int, ...], ...]
    face_indices: tuple[int, ...]


@dataclass(frozen=True)
class VertexData:
    """A vertex: its exact point, the facets active there, and an edge
    generator per active facet. The fields are the keys of a row of the
    `vertices` artifact, beside point_float; renaming one changes the artifact."""

    point: tuple[Fraction, ...]
    active_facets: tuple[int, ...]
    edge_generators: tuple[tuple[int, ...], ...]

    @property
    def point_float(self) -> np.ndarray:
        import numpy as np

        return np.array([float(p) for p in self.point])


@dataclass(frozen=True)
class ValidationReport:
    """validate's verdicts with a witness for each failure. The fields are keys
    of the `validate` artifact, beside facets; renaming one changes the artifact."""

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
    """The labeled Delzant data of P. The fields are the keys of the `delzant`
    artifact; renaming one changes the artifact."""

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

    def __hash__(self) -> int:
        # cached: every per-polyhedron cache hashes P, and each Fraction, per lookup
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.dim, self.facets)))
        return self.__dict__["_hash"]

    # -- numeric views -------------------------------------------------------

    def scaled_normal_matrix(self) -> np.ndarray:
        import numpy as np

        return np.array([f.scaled_normal for f in self.facets], dtype=float)

    def offsets_array(self) -> np.ndarray:
        import numpy as np

        return np.array([float(f.offset) for f in self.facets])

    def linear_values(self, x) -> np.ndarray:
        """Values l_i(x) + a_i, one per facet."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        return self.scaled_normal_matrix() @ x + self.offsets_array()

    def interior_contains(self, x, margin: float = 1e-12) -> bool:
        import numpy as np

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

    def sample_interior(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Interior sample points: vertex convex combinations plus recession moves."""
        import numpy as np

        verts = [np.array([float(p) for p in point]) for point, _ in _enumerate_vertices(self)]
        rays = np.array(self.recession_rays(), dtype=float).reshape(-1, self.dim)
        center = self.interior_point()
        W, a = self.scaled_normal_matrix(), self.offsets_array()
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
                x = x + rng.exponential(3.0) * r / np.linalg.norm(r)
            x = 0.9 * x + 0.1 * center  # pull off the boundary
            if np.all(W @ x + a > 1e-10):
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
    """The enumeration of P over its integer rows (c_i, a_i).

    L is the kernel of the normals. The cone { (x, s) : <x, c_i> + a_i s >= 0,
    s >= 0, x in L^perp } is pointed, so each extreme ray is the kernel of
    the lineality rows and n - dim L independent tight rows. Rays with
    s > 0 scale to the vertices, rays with s = 0 are the recession rays; P is
    empty iff no ray has s > 0.
    """
    n = P.dim
    lineality = tuple(integer_kernel([f.normal for f in P.facets]))
    # each row m_i n_i scaled by its offset's denominator, so all arithmetic
    # on primitive integer rays is in integers
    rows = [
        tuple(c * f.offset.denominator for c in f.scaled_normal) + (f.offset.numerator,)
        for f in P.facets
    ] + [(0,) * n + (1,)]
    fixed = [k + (0,) for k in lineality]
    verts, rays = {}, {}
    for subset in itertools.combinations(rows, n - len(lineality)):
        kernel = integer_kernel(fixed + list(subset))
        if len(kernel) != 1:
            continue
        (w,) = kernel  # primitive: a column of a unimodular matrix
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


def _relative_interior_point(points, rays) -> np.ndarray:
    """Barycenter of the points plus the sum of the rays, exact until the return.

    Every generator enters with a positive weight, so the point lies in the
    relative interior of conv(points) + cone(rays).
    """
    import numpy as np

    return np.array([
        float(sum(p[d] for p in points) / len(points) + sum(r[d] for r in rays))
        for d in range(len(points[0]))
    ])


def _check_construction(P: LabeledPolyhedron) -> None:
    """Raise unless P has nonempty interior and no redundant facet.

    A facet is tight on a face exactly when it is active at every vertex and
    parallel to every ray of the face, so every verdict reads the skeleton's
    incidence sets: the interior is empty when some facet is tight on all of
    P, and the face of facet i has dimension n - 1 when it has a vertex and
    every facet tight on it bounds the same half-space as facet i.
    """
    sk = _skeleton(P)
    if not sk.vertices:
        raise EmptyPolyhedron("inequality system is infeasible")
    incidences = [set(active) for _, active in sk.vertices + sk.rays]
    if set.intersection(*incidences):
        raise EmptyPolyhedron("inequality system has empty interior")
    halfspaces = [(f.normal, f.offset / f.label) for f in P.facets]
    for i, (f, halfspace) in enumerate(zip(P.facets, halfspaces)):
        # redundant: an earlier facet gives the same half-space, or the face
        # of facet i has no vertex, or a facet tight on that face bounds
        # another half-space, so the face has dimension below n - 1
        if (halfspace in halfspaces[:i]
                or not any(i in active for _, active in sk.vertices)
                or any(halfspaces[j] != halfspace
                       for j in set.intersection(*(s for s in incidences if i in s)))):
            raise RedundantFacet(
                f"facet {i} (normal {f.normal}) does not meet the "
                "polyhedron in a facet; labels on it would be meaningless"
            )


# ---------------------------------------------------------------------------
# operations

def _enumerate_vertices(P: LabeledPolyhedron):
    """All vertices with exact active sets: [(point Fractions, active indices)]."""
    sk = _skeleton(P)
    # with a lineality space P has no vertices; the skeleton's are those of P ∩ L^perp
    return () if sk.lineality else sk.vertices


def vertices(P: LabeledPolyhedron) -> list[VertexData]:
    """Vertices with active facets and inward primitive edge generators (simple P).

    The edge that leaves facet k solves <w, m_j n_j> = 0 for the other active
    j and <w, m_k n_k> > 0: the one primitive kernel vector of the active rows
    with row k zeroed, which are independent because they cut out the vertex alone.
    """
    n = P.dim
    data = []
    for point, active in _enumerate_vertices(P):
        if len(active) != n:
            raise NotSimple(
                f"vertex {tuple(float(p) for p in point)} meets {len(active)} "
                f"facets (expected {n})"
            )
        rows = [P.facets[i].scaled_normal for i in active]
        edges = []
        for k in range(n):
            # the zero row keeps n columns when n = 1
            (w,) = integer_kernel(rows[:k] + [(0,) * n] + rows[k + 1:])
            edges.append(w if sum(a * b for a, b in zip(w, rows[k])) > 0 else tuple(-x for x in w))
        data.append(VertexData(point=point, active_facets=active, edge_generators=tuple(edges)))
    return data


def validate(P: LabeledPolyhedron) -> ValidationReport:
    """Classify P as proper/rational/simple with witnesses for each failure."""
    lineality = _skeleton(P).lineality
    line = lineality[0] if lineality else None

    simple = True
    witness = None
    for point, active in _enumerate_vertices(P):
        if len(active) != P.dim:
            simple = False
            witness = (tuple(float(p) for p in point), active)
            break
    return ValidationReport(
        proper=line is None,
        # Facet admits only integer normals, so rationality is structural
        rational=True,
        simple=simple,
        improper_line=line,
        nonsimple_vertex=witness,
    )


def structure_group(P: LabeledPolyhedron, face_spec) -> AbelianGroup:
    """The local group Λ_F/⟨m_i n_i⟩ of the face cut out by the facets in face_spec.

    Λ_F is the saturation of span{n_i} in Z^n. Z^n is Λ_F plus a free
    complement, so Λ_F/⟨m_i n_i⟩ is exactly the torsion of Z^n/⟨m_i n_i⟩:
    the invariant factors of the scaled normals: the gcd/lcm chain of the
    pivots of one integer diagonal elimination (lattice.quotient_group).
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
        gens = tuple(P.facets[i].normal for i in idx)
        cones.append(Cone(dim=P.dim, generators=gens, face_indices=idx))
    return cones


# ---------------------------------------------------------------------------
# JSON interface

def _offset_from_json(v):
    # Facet converts the offset and rejects what is not finite
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ValueError(f"offset {v!r} must be a number or 'p/q' string")
    return v


def _offset_to_json(a: Fraction):
    if a.denominator == 1:
        return int(a)
    return f"{a.numerator}/{a.denominator}"


def polyhedron_from_dict(d: dict) -> LabeledPolyhedron:
    try:
        dim = int(d["dim"])  # int() would truncate 1.9 to 1
        if isinstance(d["dim"], bool) or dim != d["dim"]:
            raise ValueError(f"dim {d['dim']!r} must be an integer")
        facets = []
        for f in d["facets"]:
            normal, label = tuple(f["normal"]), f["label"]
            if any(isinstance(x, bool) for x in normal + (label,)):
                raise ValueError("facet normal and label must be integers, not booleans")
            facets.append(Facet(normal=normal, label=label,
                                offset=_offset_from_json(f["offset"])))
    except (KeyError, TypeError, OverflowError) as e:
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
        facets=tuple(Facet(normal=n, label=m, offset=a) for n, m, a in rows),
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
