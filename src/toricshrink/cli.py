"""Command line front end for the shrinker pipeline.

Every subcommand reads one polyhedron from a JSON file, prints a summary to
standard output, and optionally writes a machine artifact chosen by the
suffix of --out (.json or .csv). Runs are deterministic: identical input,
flags, and seed produce byte-identical artifacts.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .ding import DivergentD1, NotInE, convexity_scan, second_differences
from .polyhedra import (
    DegenerateProjection,
    EmptyFace,
    EmptyPolyhedron,
    NotProper,
    NotSimple,
    RedundantFacet,
    delzant_data,
    load_polyhedron,
    normal_fan,
    structure_group,
    validate,
    vertices,
)
from .potentials import (
    CanonicalPotential,
    CorrectedPotential,
    GridCorrection,
    NoConvergence,
    NotConvexHere,
    check_space_E,
)
from .quadrature import DivergentWeight
from .shrinker import find_soliton_vector, residual, solve

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _CliError(Exception):
    def __init__(self, code: int, category: str, message: str):
        super().__init__(message)
        self.code = code
        self.category = category


def _fail(code: int, category: str, message: str):
    raise _CliError(code, category, " ".join(str(message).split()))


# ---------------------------------------------------------------------------
# I/O helpers

def _load(args):
    try:
        P = load_polyhedron(args.input)
    except (OSError, json.JSONDecodeError) as err:
        _fail(EXIT_IO, "io", f"cannot read polyhedron: {err}")
    except (KeyError, TypeError, ValueError) as err:
        if isinstance(err, (EmptyPolyhedron, RedundantFacet, NotProper)):
            _fail(EXIT_VALIDATION, "validation", err)
        _fail(EXIT_IO, "parse", f"bad polyhedron file: {err}")
    if not P.is_shrinker_normalized() and not args.allow_general_offsets:
        _fail(
            EXIT_VALIDATION,
            "validation",
            "offsets are not shrinker-normalized (every a_i must equal 2); "
            "pass --allow-general-offsets to proceed",
        )
    return P


def _load_potential(P, path):
    if path is None:
        return CanonicalPotential(P), None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        _fail(EXIT_IO, "io", f"cannot read potential: {err}")
    if isinstance(data, dict) and "correction" in data:
        data = data["correction"]
    try:
        corr = GridCorrection.from_dict(data)
        return CorrectedPotential(P, corr), corr
    except (KeyError, TypeError, ValueError) as err:
        _fail(EXIT_IO, "parse", f"bad potential payload: {err}")


def _parse_b(text, dim):
    if text is None:
        return None
    try:
        vals = [float(part) for part in text.split(",")]
    except ValueError as err:
        _fail(EXIT_IO, "parse", f"bad weight vector: {err}")
    if len(vals) != dim:
        _fail(EXIT_IO, "parse",
              f"weight vector has {len(vals)} entries for dimension {dim}")
    if not all(math.isfinite(v) for v in vals):
        _fail(EXIT_IO, "parse", f"weight vector has a non-finite entry: {text}")
    return vals


def _soliton_vector(P, tol=1e-12):
    """find_soliton_vector, with its failures mapped to exit codes."""
    try:
        return find_soliton_vector(P, tol=tol)
    except DivergentWeight as err:
        _fail(EXIT_VALIDATION, "validation", f"weighted volume diverges: {err}")
    except ValueError as err:  # quadrature exists in dimensions 1 and 2 only
        _fail(EXIT_VALIDATION, "validation", err)
    except NoConvergence as err:
        _fail(EXIT_NUMERIC, "convergence", err)


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, payload: dict, csv_rows=None, csv_header=None):
    out = getattr(args, "out", None)
    if out is None:
        return
    try:
        if out.endswith(".csv"):
            if csv_rows is None:
                _fail(EXIT_IO, "io",
                      "this subcommand has no CSV artifact; use a .json path")
            lines = [",".join(csv_header)]
            for row in csv_rows:
                lines.append(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                                      else str(v) for v in row))
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        _fail(EXIT_IO, "io", f"cannot write artifact: {err}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate(args):
    P = _load(args)
    report = validate(P)
    for i, f in enumerate(P.facets):
        print(f"facet {i}: normal {tuple(f.normal)} label {f.label} "
              f"offset {f.offset}")
    print(f"proper: {report.proper}")
    print(f"rational: {report.rational}")
    print(f"simple: {report.simple}")
    if report.improper_line is not None:
        print(f"contains line: {tuple(report.improper_line)}")
    if report.nonsimple_vertex is not None:
        print(f"non-simple vertex witness: {report.nonsimple_vertex}")
    payload = {
        "proper": report.proper,
        "rational": report.rational,
        "simple": report.simple,
        "improper_line": report.improper_line,
        "nonsimple_vertex": report.nonsimple_vertex,
        "facets": [
            {"normal": list(f.normal), "label": f.label, "offset": f.offset}
            for f in P.facets
        ],
    }
    _emit(args, payload)
    return EXIT_OK if report.all_ok else EXIT_VALIDATION


def _vertices(P):
    """vertices(P), with a line in P or a non-simple vertex mapped to exit 2.

    A polyhedron with a line has no vertices; an empty list would read as
    success, so it is rejected with validate's witness.
    """
    line = validate(P).improper_line
    if line is not None:
        _fail(EXIT_VALIDATION, "validation", f"contains line: {tuple(line)}")
    try:
        return vertices(P)
    except NotSimple as err:
        _fail(EXIT_VALIDATION, "validation", err)


def cmd_vertices(args):
    P = _load(args)
    verts = _vertices(P)
    rows = []
    for v in verts:
        print(f"vertex {tuple(str(c) for c in v.point)} "
              f"active facets {tuple(v.active_facets)}")
        rows.append({
            "point": [str(c) for c in v.point],
            "point_float": list(v.point_float),
            "active_facets": list(v.active_facets),
            "edge_generators": [list(g) for g in v.edge_generators],
        })
    _emit(args, {"vertices": rows})
    return EXIT_OK


def cmd_structure_group(args):
    P = _load(args)
    verts = _vertices(P)
    rows = []
    for v in verts:
        try:
            g = structure_group(P, v.active_facets)
        except (EmptyFace, ValueError) as err:
            _fail(EXIT_VALIDATION, "validation", err)
        print(f"vertex {tuple(str(c) for c in v.point)}: {g}")
        rows.append({
            "point": [str(c) for c in v.point],
            "active_facets": list(v.active_facets),
            "group": str(g),
            "invariant_factors": list(g.invariant_factors),
            "order": g.order,
        })
    _emit(args, {"structure_groups": rows})
    return EXIT_OK


def cmd_delzant(args):
    P = _load(args)
    try:
        data = delzant_data(P)
    except DegenerateProjection as err:
        _fail(EXIT_VALIDATION, "validation", err)
    print(f"projection rows: {data.projection}")
    print(f"kernel basis: {data.kernel_basis}")
    print(f"offsets: {tuple(str(a) for a in data.offsets)}")
    _emit(args, {
        "projection": [list(r) for r in data.projection],
        "kernel_basis": [list(r) for r in data.kernel_basis],
        "offsets": [str(a) for a in data.offsets],
    })
    return EXIT_OK


def cmd_fan(args):
    P = _load(args)
    try:
        cones = normal_fan(P)
    except (NotProper, NotSimple) as err:
        _fail(EXIT_VALIDATION, "validation", err)
    rows = []
    for c in cones:
        print(f"cone on facets {c.face_indices}: "
              f"generators {tuple(tuple(str(x) for x in g) for g in c.generators)}")
        rows.append({
            "face_indices": list(c.face_indices),
            "generators": [[str(x) for x in g] for g in c.generators],
        })
    _emit(args, {"cones": rows})
    return EXIT_OK


def cmd_soliton_vector(args):
    P = _load(args)
    sol = _soliton_vector(P, tol=args.tol)
    print(f"b: {list(sol.b)}")
    print(f"F: {sol.F_value!r}")
    print(f"gradient norm: {sol.gradient_norm!r}")
    print(f"iterations: {sol.iterations}")
    _emit(args, {
        "b": list(sol.b),
        "F_value": sol.F_value,
        "gradient_norm": sol.gradient_norm,
        "iterations": sol.iterations,
    })
    return EXIT_OK


def cmd_residual(args):
    P = _load(args)
    if args.samples < 1:
        _fail(EXIT_IO, "parse", f"--samples must be at least 1, got {args.samples}")
    u, corr = _load_potential(P, args.potential)
    b = _parse_b(args.b, P.dim)
    if b is None:
        b = list(_soliton_vector(P, tol=args.tol).b)
    rng = np.random.default_rng(args.seed)
    X = P.sample_interior(rng, args.samples)
    try:
        R = residual(P, b, X, correction=corr)
    except (NotConvexHere, ValueError) as err:
        _fail(EXIT_VALIDATION, "validation", f"residual undefined: {err}")
    mean = float(np.mean(R))
    std = float(np.std(R))
    dev = float(np.max(np.abs(R - mean)))
    print(f"b: {b}")
    print(f"samples: {len(X)}")
    print(f"mean residual: {mean!r}")
    print(f"std: {std!r}")
    print(f"max deviation from mean: {dev!r}")
    header = [f"x{d}" for d in range(P.dim)] + ["residual"]
    rows = [list(pt) + [float(r)] for pt, r in zip(X, R)]
    _emit(args, {
        "b": b,
        "samples": len(X),
        "mean": mean,
        "std": std,
        "max_deviation": dev,
    }, csv_rows=rows, csv_header=header)
    return EXIT_OK


def _solve_csv(P, res):
    axes = res.correction.axes
    header = [f"x{d}" for d in range(P.dim)] + ["s", "residual"]
    if P.dim == 1:
        nodes = [(i,) for i in range(len(axes[0]))]
    else:
        nodes = [(i, j) for i in range(len(axes[0])) for j in range(len(axes[1]))]
    rows = []
    for idx in nodes:
        x = np.array([axes[d][idx[d]] for d in range(P.dim)])
        s_val = float(res.correction.value(x))
        try:
            r_val = float(residual(P, res.b, x, correction=res.correction))
        except (ValueError, NotConvexHere):
            r_val = float("nan")
        rows.append(list(map(float, x)) + [s_val, r_val])
    return header, rows


def cmd_solve(args):
    P = _load(args)
    if args.grid is not None and args.grid < 2:
        _fail(EXIT_IO, "parse", f"--grid needs at least 2 nodes, got {args.grid}")
    if not math.isfinite(args.truncation):
        _fail(EXIT_IO, "parse", f"--truncation must be finite, got {args.truncation}")
    b = _parse_b(args.b, P.dim)
    try:
        res = solve(P, b=b, grid=args.grid, truncation=args.truncation, tol=args.tol)
    except (NoConvergence, NotConvexHere) as err:
        _fail(EXIT_NUMERIC, "convergence", err)
    except ValueError as err:  # not a product, divergent weight, or truncation
        _fail(EXIT_VALIDATION, "validation", err)
    print(f"b: {list(res.b)}")
    print(f"constant: {res.constant!r}")
    print(f"residual deviation: {res.residual_deviation!r}")
    print(f"iterations: {res.iterations}")
    print(f"domain: {res.domain}")
    if res.truncated_axes:
        print(f"truncated axes: {res.truncated_axes}")
    header = rows = None
    if args.out is not None and args.out.endswith(".csv"):
        header, rows = _solve_csv(P, res)
    _emit(args, {
        "b": list(res.b),
        "constant": res.constant,
        "residual_deviation": res.residual_deviation,
        "iterations": res.iterations,
        "grid": list(res.grid),
        "domain": [list(d) for d in res.domain],
        "truncated_axes": [list(t) for t in res.truncated_axes],
        "truncation": res.truncation,
        "correction": res.correction.to_dict(),
    }, csv_rows=rows, csv_header=header)
    return EXIT_OK


def cmd_ding_scan(args):
    P = _load(args)
    if args.potential is None:
        _fail(EXIT_IO, "parse",
              "ding-scan needs at least --potential (the far endpoint)")
    v1, _ = _load_potential(P, args.potential)
    if args.potential2 is not None:
        v0 = v1
        v1, _ = _load_potential(P, args.potential2)
    else:
        v0 = CanonicalPotential(P)
    b = _parse_b(args.b, P.dim)
    if b is None:
        b = list(_soliton_vector(P).b)
    try:
        scan = convexity_scan(v0, v1, P, b_X=b, num_t=args.num_t, tol=args.tol)
    except (DivergentD1, NotInE, NotConvexHere, DivergentWeight) as err:
        _fail(EXIT_NUMERIC, "convergence", err)
    except ValueError as err:
        _fail(EXIT_VALIDATION, "validation", err)
    diffs = second_differences(scan)
    for s in scan:
        print(f"t {s.t!r}  D1 {s.d1!r}  D {s.value!r}")
    if len(diffs):
        print(f"min second difference: {float(np.min(diffs))!r}")
    header = ["t", "D1", "D"]
    rows = [[s.t, s.d1, s.value] for s in scan]
    _emit(args, {
        "b": b,
        "scan": [{"t": s.t, "D1": s.d1, "D": s.value} for s in scan],
        "second_differences": [float(d) for d in diffs],
    }, csv_rows=rows, csv_header=header)
    return EXIT_OK


def cmd_check_potential(args):
    P = _load(args)
    u, _ = _load_potential(P, args.potential)
    b = _parse_b(args.b, P.dim)
    if b is None:
        b = list(_soliton_vector(P, tol=args.tol).b)
    try:
        space = check_space_E(P, u, b, seed=args.seed)
    except (NotConvexHere, DivergentWeight) as err:
        _fail(EXIT_VALIDATION, "validation", f"potential outside the space: {err}")
    except ValueError as err:  # the plan's dimension check
        _fail(EXIT_VALIDATION, "validation", err)
    boundary = space.boundary
    print(f"boundary corrections bounded: {boundary.correction_ok}")
    print(f"boundary density positive: {boundary.density_ok}")
    print(f"hessian positive: {space.hessian_positive}")
    print(f"boundary behaviour: {space.boundary_behaviour}")
    print(f"gradient surjective: {space.gradient_surjective}")
    print(f"integrable: {space.integrable}")
    print(f"note: {space.note}")
    payload = {
        "boundary": {
            "correction_ok": boundary.correction_ok,
            "density_ok": boundary.density_ok,
            "checks": [
                {
                    "facet": c.facet,
                    "correction_bounded": c.correction_bounded,
                    "gradient_bounded": c.gradient_bounded,
                    "density_bounded": c.density_bounded,
                    "density_value": c.density_value,
                }
                for c in boundary.checks
            ],
        },
        "space": {
            "hessian_positive": space.hessian_positive,
            "boundary_behaviour": space.boundary_behaviour,
            "gradient_surjective": space.gradient_surjective,
            "integrable": space.integrable,
            "note": space.note,
        },
        "b": b,
    }
    _emit(args, payload)
    return EXIT_OK if space.in_space else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="toricshrink",
        description="Toric shrinker pipeline: polyhedron checks, soliton "
                    "vectors, potential solves, Ding scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("input", help="polyhedron JSON file")
        p.add_argument("--tol", type=float, default=1e-10,
                       help="numerical tolerance (default %(default)s)")
        p.add_argument("--out", default=None,
                       help="artifact path; .json or .csv chooses the format")
        p.add_argument("--allow-general-offsets", action="store_true",
                       help="accept offsets other than 2")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, help="properness, rationality, simplicity")
    add("vertices", cmd_vertices, help="exact vertices with active facets")
    add("structure-group", cmd_structure_group,
        help="orbifold structure group at each vertex")
    add("delzant", cmd_delzant, help="labeled Delzant projection data")
    add("fan", cmd_fan, help="normal fan cones")

    p = add("soliton-vector", cmd_soliton_vector,
            help="minimize the weighted volume functional")

    p = add("residual", cmd_residual,
            help="soliton equation residual at interior samples")
    p.add_argument("--potential", default=None, help="correction payload JSON")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)

    p = add("solve", cmd_solve, help="solve the soliton equation")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--grid", type=int, default=None,
                   help="nodes per axis (default 48 in 1D, 24 in 2D)")
    p.add_argument("--truncation", type=float, default=12.0,
                   help="truncation level for unbounded directions")

    p = add("ding-scan", cmd_ding_scan,
            help="Ding functional along a potential geodesic")
    p.add_argument("--potential", default=None,
                   help="endpoint correction payload (required)")
    p.add_argument("--potential2", default=None,
                   help="optional second endpoint; default scans from canonical")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--num-t", type=int, default=9)
    p.set_defaults(tol=1e-8)

    p = add("check-potential", cmd_check_potential,
            help="boundary conditions and admissible-space screening")
    p.add_argument("--potential", default=None, help="correction payload JSON")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(f"error: {err.category}: {err}", file=sys.stderr)
        return err.code
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
