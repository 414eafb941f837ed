"""Command line front end for the shrinker pipeline.

Every subcommand reads one polyhedron from a JSON file, prints a summary to
standard output, and optionally writes a machine artifact chosen by the
suffix of --out (.json or .csv). Runs are deterministic: identical input,
flags, and seed produce byte-identical artifacts.

Exit codes: 0 success, 2 validation failure, 3 numerical non-convergence,
4 I/O or parse error. The parser raises every exit 4 for a flag, and main
maps library errors to 2 and 3 in one place.

The module loads only the exact layer: the five discrete subcommands run
without numpy, and each numeric subcommand imports the layers it calls.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

from .polyhedra import (
    EmptyPolyhedron,
    RedundantFacet,
    _enumerate_vertices,
    delzant_data,
    load_polyhedron,
    normal_fan,
    structure_group,
    validate,
    vertices,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class _CliError(Exception):
    def __init__(self, code: int, category: str, message: str):
        super().__init__(message)
        self.code = code
        self.category = category


# ---------------------------------------------------------------------------
# I/O helpers

def _load(args):
    try:
        P = load_polyhedron(args.input)
    except (OSError, json.JSONDecodeError) as err:
        raise _CliError(EXIT_IO, "io", f"cannot read polyhedron: {err}")
    except (EmptyPolyhedron, RedundantFacet):
        raise  # a well-formed file describing an invalid polyhedron
    except (KeyError, TypeError, ValueError) as err:
        raise _CliError(EXIT_IO, "parse", f"bad polyhedron file: {err}")
    if not P.is_shrinker_normalized() and not args.allow_general_offsets:
        raise _CliError(
            EXIT_VALIDATION,
            "validation",
            "offsets are not shrinker-normalized (every a_i must equal 2); "
            "pass --allow-general-offsets to proceed",
        )
    return P


def _load_potential(P, path):
    from .potentials import CanonicalPotential, CorrectedPotential, GridCorrection

    if path is None:
        return CanonicalPotential(P), None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise _CliError(EXIT_IO, "io", f"cannot read potential: {err}")
    if isinstance(data, dict) and "correction" in data:
        data = data["correction"]
    try:
        corr = GridCorrection.from_dict(data)
        u = CorrectedPotential(P, corr)
    except (KeyError, TypeError, ValueError) as err:
        raise _CliError(EXIT_IO, "parse", f"bad potential payload: {err}")
    # a grid that misses a vertex of P was solved on another polyhedron, and its
    # polynomial would be read far outside the grid. Each end may miss by a
    # rounding gap: a payload written elsewhere can round its ends
    for point, _ in _enumerate_vertices(P):
        for d, (lo, hi) in enumerate(corr.domain):
            gap = 1e-12 * (hi - lo)
            if not lo - gap <= point[d] <= hi + gap:
                raise _CliError(EXIT_IO, "parse",
                                f"bad potential payload: grid axis {d} spans [{lo!r}, {hi!r}], "
                                f"which misses vertex {tuple(float(c) for c in point)} "
                                "of the polyhedron")
    return u, corr


def _parse_b(text, dim):
    if text is None:
        return None
    try:
        vals = [float(part) for part in text.split(",")]
    except ValueError as err:
        raise _CliError(EXIT_IO, "parse", f"bad weight vector: {err}")
    if len(vals) != dim:
        raise _CliError(EXIT_IO, "parse",
                        f"weight vector has {len(vals)} entries for dimension {dim}")
    if not all(math.isfinite(v) for v in vals):
        raise _CliError(EXIT_IO, "parse", f"weight vector has a non-finite entry: {text}")
    return vals


def _weights(args, P, tol):
    """The weight vector given by --b, or else the soliton vector of P to tol."""
    from .shrinker import find_soliton_vector

    b = _parse_b(args.b, P.dim)
    return list(find_soliton_vector(P, tol=tol).b) if b is None else b


def _fields(record) -> dict:
    """A result record's fields by name: the keys of its artifact.

    dataclasses.fields, not vars, so no cached value (a polyhedron's _hash)
    becomes a key.
    """
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(args, payload, csv_rows=None, csv_header=None):
    """Write payload, a dict or a result record, as JSON to --out, or csv_rows as CSV."""
    out = getattr(args, "out", None)
    if out is None:
        return
    try:
        if out.endswith(".csv"):
            if csv_rows is None:
                raise _CliError(EXIT_IO, "io",
                                "this subcommand has no CSV artifact; use a .json path")
            lines = [",".join(csv_header)]
            for row in csv_rows:
                lines.append(",".join(repr(float(v)) if isinstance(v, float)
                                      else str(v) for v in row))
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(payload, indent=2, sort_keys=True,
                              default=_json_default) + "\n"
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise _CliError(EXIT_IO, "io", f"cannot write artifact: {err}")


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
    _emit(args, {**_fields(report), "facets": P.facets})
    return EXIT_OK if report.all_ok else EXIT_VALIDATION


def cmd_vertices(args):
    P = _load(args)
    verts = vertices(P)
    rows = []
    for v in verts:
        print(f"vertex {tuple(str(c) for c in v.point)} "
              f"active facets {tuple(v.active_facets)}")
        rows.append({**_fields(v), "point_float": [float(c) for c in v.point]})
    _emit(args, {"vertices": rows})
    return EXIT_OK


def cmd_structure_group(args):
    P = _load(args)
    verts = vertices(P)
    rows = []
    for v in verts:
        g = structure_group(P, v.active_facets)
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
    data = delzant_data(P)
    print(f"projection rows: {data.projection}")
    print(f"kernel basis: {data.kernel_basis}")
    print(f"offsets: {tuple(str(a) for a in data.offsets)}")
    _emit(args, data)
    return EXIT_OK


def cmd_fan(args):
    P = _load(args)
    cones = normal_fan(P)
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
    from .shrinker import find_soliton_vector

    P = _load(args)
    sol = find_soliton_vector(P, tol=args.tol)
    print(f"b: {list(sol.b)}")
    print(f"F: {sol.F_value!r}")
    print(f"gradient norm: {sol.gradient_norm!r}")
    print(f"achieved: {sol.achieved!r}")
    print(f"iterations: {sol.iterations}")
    _emit(args, sol)
    return EXIT_OK


def cmd_residual(args):
    import numpy as np

    from .shrinker import residual

    P = _load(args)
    u, corr = _load_potential(P, args.potential)
    b = _weights(args, P, args.tol)
    rng = np.random.default_rng(args.seed)
    X = P.sample_interior(rng, args.samples)
    R = residual(P, b, X, correction=corr)
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
    """One row per grid node in C order: the node, s there, and the residual."""
    import numpy as np

    from .shrinker import residual

    corr = res.correction
    X = np.stack(np.meshgrid(*corr.axes, indexing="ij"), axis=-1).reshape(-1, P.dim)
    R = residual(P, res.b, X, correction=corr)
    header = [f"x{d}" for d in range(P.dim)] + ["s", "residual"]
    return header, np.column_stack([X, corr.values.reshape(-1), R]).tolist()


def cmd_solve(args):
    from .shrinker import solve

    P = _load(args)
    b = _parse_b(args.b, P.dim)
    res = solve(P, b=b, grid=args.grid, truncation=args.truncation, tol=args.tol)
    print(f"b: {list(res.b)}")
    print(f"constant: {res.constant!r}")
    print(f"residual deviation: {res.residual_deviation!r}")
    print(f"offnode deviation: {res.offnode_deviation!r}")
    print(f"converged: {res.converged}")
    misses = res.offnode_deviation > args.tol
    # a missed --tol hides whether every series resolved; with no tol, converged tells
    resolved = res.converged or (misses and solve(
        P, b=res.b, grid=args.grid, truncation=args.truncation, tol=math.inf).converged)
    reasons = [f"the interpolant misses --tol {args.tol:g} between the grid's nodes by "
               f"up to {res.offnode_deviation:.3g}"] if misses else []
    if not resolved:
        reasons.append("a factor's s'' series did not resolve in 256 samples")
    if reasons:
        advice = "; a finer --grid may meet it" if resolved else ""
        print("warning: " + ", and ".join(reasons) + advice, file=sys.stderr)
    print(f"domain: {res.domain}")
    if res.truncated_axes:
        print(f"truncated axes: {res.truncated_axes}")
    header = rows = None
    if args.out is not None and args.out.endswith(".csv"):
        header, rows = _solve_csv(P, res)
    _emit(args, {**_fields(res), "correction": res.correction.to_dict()},
          csv_rows=rows, csv_header=header)
    return EXIT_OK


def cmd_ding_scan(args):
    import numpy as np

    from .ding import convexity_scan, second_differences
    from .potentials import CanonicalPotential

    P = _load(args)
    v1, _ = _load_potential(P, args.potential)
    if args.potential2 is not None:
        v0 = v1
        v1, _ = _load_potential(P, args.potential2)
    else:
        v0 = CanonicalPotential(P)
    b = _weights(args, P, 1e-12)
    scan = convexity_scan(v0, v1, P, b_X=b, num_t=args.num_t, tol=args.tol)
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
    from .potentials import check_space_E

    P = _load(args)
    u, _ = _load_potential(P, args.potential)
    b = _weights(args, P, args.tol)
    space = check_space_E(P, u, b, seed=args.seed)
    boundary = space.boundary
    print(f"boundary corrections bounded: {boundary.correction_ok}")
    print(f"boundary density positive: {boundary.density_ok}")
    print(f"hessian positive: {space.hessian_positive}")
    print(f"boundary behaviour: {space.boundary_behaviour}")
    print(f"gradient surjective: {space.gradient_surjective}")
    print(f"integrable: {space.integrable}")
    print(f"note: {space.note}")
    fields = _fields(space)
    del fields["boundary"]  # written whole under its own key
    _emit(args, {
        "boundary": boundary,
        "space": {**fields, "boundary_behaviour": space.boundary_behaviour,
                  "note": space.note},
        "b": b,
    })
    return EXIT_OK if space.in_space else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one-line parse errors (exit 4)."""

    def error(self, message):
        raise _CliError(EXIT_IO, "parse", message)


def _number(kind, accept, expected: str):
    """A type= converter: kind(text), refused unless accept holds for it."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return convert


_positive_finite = _number(float, lambda x: 0.0 < x < math.inf, "a positive finite number")
_finite = _number(float, math.isfinite, "a finite number")


def _at_least(k: int):
    return _number(int, lambda n: n >= k, f"an integer >= {k}")


def _build_parser():
    parser = _Parser(
        prog="toricshrink",
        description="Toric shrinker pipeline: polyhedron checks, soliton "
                    "vectors, potential solves, Ding scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, tol=None, **kw):
        """A subcommand; tol = (default, meaning) gives it a --tol flag."""
        p = sub.add_parser(name, **kw)
        p.add_argument("input", help="polyhedron JSON file")
        if tol is not None:
            p.add_argument("--tol", type=_positive_finite, default=tol[0],
                           help=f"numerical tolerance (default %(default)s): {tol[1]}")
        p.add_argument("--out", default=None,
                       help="artifact path; .json or .csv chooses the format")
        p.add_argument("--allow-general-offsets", action="store_true",
                       help="accept offsets other than 2")
        p.set_defaults(func=func)
        return p

    soliton_tol = (1e-10, "Newton decrement of log F at which the soliton "
                          "vector search stops, when --b is not given")

    add("validate", cmd_validate, help="properness, rationality, simplicity")
    add("vertices", cmd_vertices, help="exact vertices with active facets")
    add("structure-group", cmd_structure_group,
        help="orbifold structure group at each vertex")
    add("delzant", cmd_delzant, help="labeled Delzant projection data")
    add("fan", cmd_fan, help="normal fan cones")

    add("soliton-vector", cmd_soliton_vector,
        tol=(1e-10, "Newton decrement of log F at which Newton's method stops"),
        help="minimize the weighted volume functional")

    p = add("residual", cmd_residual, tol=soliton_tol,
            help="soliton equation residual at interior samples")
    p.add_argument("--potential", default=None, help="correction payload JSON")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--samples", type=_at_least(1), default=200)

    p = add("solve", cmd_solve,
            tol=(1e-10, "the solve fails if the residual's deviation or an "
                 "unbounded axis's defect exceeds the larger of this and 1e-6"),
            help="solve the soliton equation")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--grid", type=_at_least(2), default=None,
                   help="nodes per axis (default: one node per coefficient of the "
                        "factor's series, at least 3)")
    p.add_argument("--truncation", type=_finite, default=32.0,
                   help="level <b,x> at which unbounded axes are cut (default 32, "
                        "which ding-scan's default --tol accepts)")

    p = add("ding-scan", cmd_ding_scan,
            tol=(1e-8, "largest share of F(b_X) that the cut drops, largest spill "
                       "(bound on the canonical potential integral past the cut, "
                       "relative to F(b_X)), and largest truncation tail estimate "
                       "of the dual volume relative to d1"),
            help="Ding functional along a potential geodesic")
    p.add_argument("--potential", required=True,
                   help="endpoint correction payload (required)")
    p.add_argument("--potential2", default=None,
                   help="optional second endpoint; default scans from canonical")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--num-t", type=_at_least(2), default=9)

    p = add("check-potential", cmd_check_potential, tol=soliton_tol,
            help="boundary conditions and admissible-space screening")
    p.add_argument("--potential", default=None, help="correction payload JSON")
    p.add_argument("--b", default=None, help="comma-separated weight vector")
    p.add_argument("--seed", type=_at_least(0), default=0)

    return parser


def _report(code: int, category: str, err) -> int:
    print(f"error: {category}: {' '.join(str(err).split())}", file=sys.stderr)
    return code


def _numeric_errors():
    """The library errors that exit 3; ding's exist once ding-scan has imported it."""
    ding = sys.modules.get("toricshrink.ding")
    errors = (RuntimeError, OverflowError)
    return errors if ding is None else errors + (ding.DivergentD1, ding.NotInE)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _CliError as err:
        return _report(err.code, err.category, err)
    # the one map from library errors to exit codes; NoConvergence is a RuntimeError
    except _numeric_errors() as err:
        return _report(EXIT_NUMERIC, "convergence", err)
    except ValueError as err:
        return _report(EXIT_VALIDATION, "validation", err)
    except BrokenPipeError:
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
