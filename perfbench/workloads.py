"""The four workloads: their seeded inputs, set-up, timed ops and checks.

A workload's ``setup(seed, workdir)`` is exactly what a fresh launch does
before its first op (this is what ``setup_s`` times), ``prepare(state)``
computes the independent reference values in the benchmark process, and
``round(state, rng)`` returns one whole round of ops. Every round runs the
same ops in a seeded order, so a failing op fails once per round.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

import oracles as O

# (dim, rows) with rows (normal, label, offset); every offset is 2
TEARDROP = (1, (((1,), 1, 2), ((-1,), 3, 2)))
HALF_LINE = (1, (((1,), 1, 2),))
RECTANGLE = (2, (((1, 0), 1, 2), ((-1, 0), 3, 2), ((0, 1), 2, 2), ((0, -1), 1, 2)))
HALF_STRIP = (2, (((1, 0), 1, 2), ((-1, 0), 2, 2), ((0, 1), 3, 2)))
SQUARE = (2, (((1, 0), 1, 2), ((-1, 0), 1, 2), ((0, 1), 1, 2), ((0, -1), 1, 2)))
PENTAGON = (2, (((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
                ((-1, -1), 1, 2)))
QUADRANT = (2, (((1, 0), 1, 2), ((0, 1), 1, 2)))
HEXAGON = (2, (((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2),
               ((1, 1), 1, 2), ((-1, -1), 1, 2)))
TRIANGLE = (2, (((1, 0), 1, 2), ((0, 1), 2, 2), ((-2, -3), 1, 2)))


def oriented(spec, rng):
    """The polyhedron moved by a seeded signed permutation of coordinates.

    A signed permutation is a lattice isometry: groups, volumes and solve
    costs are unchanged, while the inputs, b and the grids differ per seed.
    """
    dim, rows = spec
    perm = rng.permutation(dim)
    signs = rng.choice((-1, 1), size=dim)
    return dim, tuple(
        (tuple(int(signs[d] * normal[perm[d]]) for d in range(dim)), label, offset)
        for normal, label, offset in rows
    )


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


class OpFailed(Exception):
    """An op whose program call reported an error (counted in ``failed``)."""


# ---------------------------------------------------------------------------
# solve_products

class SolveProducts:
    """solve on product domains with b from set-up."""

    name = "solve_products"
    # an odd number of jobs whose middle three cost about the same, so the
    # median op time is drawn from three jobs per round, not from one
    # boundary between two jobs of different size
    JOBS = (("rectangle", 12), ("rectangle", 13), ("rectangle", 14),
            ("rectangle", 16), ("rectangle", 20), ("half_strip", 12),
            ("half_strip", 13), ("teardrop", 48), ("teardrop", 64))

    def setup(self, seed, workdir):
        from toricshrink.polyhedra import from_halfspaces
        from toricshrink.shrinker import find_soliton_vector

        rng = np.random.default_rng(seed)
        specs = {name: oriented(spec, rng) for name, spec in
                 (("rectangle", RECTANGLE), ("half_strip", HALF_STRIP),
                  ("teardrop", TEARDROP))}
        polys = {name: from_halfspaces(*spec) for name, spec in specs.items()}
        b = {name: find_soliton_vector(P).b for name, P in polys.items()}
        return {"specs": specs, "polys": polys, "b": b}

    def prepare(self, st):
        st["b_exact"] = {k: O.soliton_vector(*s) for k, s in st["specs"].items()}

    def round(self, st, rng):
        from toricshrink.shrinker import solve

        ops = []
        for i in rng.permutation(len(self.JOBS)):
            name, grid = self.JOBS[i]
            run = partial(solve, st["polys"][name], b=st["b"][name], grid=grid)
            ops.append(Op(f"solve {name} {grid}", run, partial(self._check, st, name)))
        return ops

    @staticmethod
    def _check(st, name, res):
        spec, b_exact = st["specs"][name], st["b_exact"][name]
        return (O.check_soliton_vector(res.b, b_exact)
                + O.check_product_solution(*spec, b_exact, res.correction.axes,
                                           res.correction.values))


# ---------------------------------------------------------------------------
# soliton_vectors

class SolitonVectors:
    """The discrete pipeline and the soliton vector on a labeled family."""

    name = "soliton_vectors"
    FAMILY = (("teardrop", TEARDROP), ("rectangle", RECTANGLE),
              ("pentagon", PENTAGON), ("quadrant", QUADRANT),
              ("half_strip", HALF_STRIP), ("hexagon", HEXAGON),
              ("triangle", TRIANGLE))

    def setup(self, seed, workdir):
        import toricshrink.polyhedra  # noqa: F401  (the ops build everything)
        import toricshrink.shrinker  # noqa: F401

        rng = np.random.default_rng(seed)
        return {"specs": {name: oriented(spec, rng) for name, spec in self.FAMILY}}

    def prepare(self, st):
        st["b_exact"] = {k: O.soliton_vector(*s) for k, s in st["specs"].items()}

    def round(self, st, rng):
        names = [name for name, _ in self.FAMILY]
        return [Op(f"pipeline {names[i]}", partial(self._run, st["specs"][names[i]]),
                   partial(self._check, st, names[i]))
                for i in rng.permutation(len(names))]

    @staticmethod
    def _run(spec):
        from toricshrink.polyhedra import (delzant_data, from_halfspaces,
                                           normal_fan, structure_group,
                                           validate, vertices)
        from toricshrink.shrinker import find_soliton_vector

        P = from_halfspaces(*spec)
        report = validate(P)
        verts = vertices(P)
        groups = {v.point: structure_group(P, v.active_facets).invariant_factors
                  for v in verts}
        fan = [c.face_indices for c in normal_fan(P)]
        dz = delzant_data(P)
        sol = find_soliton_vector(P)
        return report, verts, groups, fan, dz, sol

    @staticmethod
    def _check(st, name, out):
        report, verts, groups, fan, dz, sol = out
        spec = st["specs"][name]
        return ([O.Check("validate", "prop", float(not report.all_ok), 0.0)]
                + O.check_vertices(*spec, {v.point: v.active_facets for v in verts})
                + O.check_groups(*spec, groups)
                + O.check_fan(*spec, fan)
                + O.check_delzant(*spec, dz.projection, dz.kernel_basis)
                + O.check_soliton_vector(sol.b, st["b_exact"][name]))


# ---------------------------------------------------------------------------
# ding_geodesics

class DingGeodesics:
    """convexity_scan with num_t = 9 along five kinds of geodesic."""

    name = "ding_geodesics"
    NUM_T = 9
    HALF_LINE_TRUNCATION = 32.0  # tail below the scan's default tol of 1e-8

    def setup(self, seed, workdir):
        from toricshrink.polyhedra import from_halfspaces
        from toricshrink.potentials import (CanonicalPotential,
                                            CorrectedPotential, GridCorrection)
        from toricshrink.shrinker import find_soliton_vector, solve

        rng = np.random.default_rng(seed)
        specs = {"square": SQUARE, "teardrop": oriented(TEARDROP, rng),
                 "rectangle": oriented(RECTANGLE, rng),
                 "affine": oriented(RECTANGLE, rng),
                 "half_line": oriented(HALF_LINE, rng)}
        polys = {k: from_halfspaces(*s) for k, s in specs.items()}
        b = {k: find_soliton_vector(P).b for k, P in polys.items()}
        pairs = {}

        # square: two seeded cubic corrections, small enough to stay convex
        keys = ((2, 0), (1, 1), (0, 2), (3, 0), (0, 3), (2, 1))
        coefs = [dict(zip(keys, rng.uniform(-0.05, 0.05, len(keys))))
                 for _ in range(2)]
        P = polys["square"]
        ends = []
        for coef in coefs:
            def f(p, coef=coef):
                return sum(c * p[0] ** i * p[1] ** j for (i, j), c in coef.items())
            g = GridCorrection.from_function(f, [(-2.0, 2.0), (-2.0, 2.0)], (8, 8))
            ends.append(CorrectedPotential(P, g))
        pairs["square"] = tuple(ends)

        for k, grid, trunc in (("teardrop", 48, 12.0), ("rectangle", 14, 12.0),
                               ("half_line", 48, self.HALF_LINE_TRUNCATION)):
            P = polys[k]
            res = solve(P, b=b[k], grid=grid, truncation=trunc)
            pairs[k] = (CanonicalPotential(P), CorrectedPotential(P, res.correction))

        # affine pair: a solution and the same solution plus a seeded affine map
        P = polys["affine"]
        s = solve(P, b=b["affine"], grid=12).correction
        c0, c1, c2 = rng.uniform(-0.5, 0.5, 3)
        gx, gy = np.meshgrid(s.axes[0], s.axes[1], indexing="ij")
        tilted = GridCorrection(s.axes, s.values + c0 + c1 * gx + c2 * gy)
        pairs["affine"] = (CorrectedPotential(P, s), CorrectedPotential(P, tilted))
        return {"specs": specs, "polys": polys, "b": b, "pairs": pairs,
                "square_coefs": coefs}

    def prepare(self, st):
        specs = st["specs"]
        ts = np.linspace(0.0, 1.0, self.NUM_T)
        b_exact = {k: O.soliton_vector(*s) for k, s in specs.items()}
        st["b_exact"] = b_exact
        st["square_ref"] = O.box_ding_values(*specs["square"], b_exact["square"],
                                             *st["square_coefs"], ts)
        st["canonical"] = {}
        for k in ("teardrop", "rectangle", "half_line"):
            d1 = O.canonical_d1(*specs[k])
            lin = O.canonical_linear(*specs[k], b_exact[k])
            st["canonical"][k] = (d1, lin - np.log(d1))

    def round(self, st, rng):
        from toricshrink.ding import convexity_scan

        names = ("square", "teardrop", "rectangle", "affine", "half_line")
        ops = []
        for i in rng.permutation(len(names)):
            k = names[i]
            v0, v1 = st["pairs"][k]
            run = partial(convexity_scan, v0, v1, st["polys"][k], b_X=st["b"][k],
                          num_t=self.NUM_T)
            ops.append(Op(f"scan {k}", run, partial(self._check, st, k)))
        return ops

    @staticmethod
    def _check(st, k, scan):
        d1 = [s.d1 for s in scan]
        D = [s.value for s in scan]
        checks = O.check_convex(D)
        if k == "square":
            for t, (s, (d1_ref, D_ref)) in enumerate(zip(scan, st["square_ref"])):
                checks += O.check_value(s.d1, d1_ref, f"d1 at t{t}")
                checks += O.check_value(s.value, D_ref, f"D at t{t}")
        elif k == "affine":
            checks += O.check_flat(D)
        else:
            d1_ref, D_ref = st["canonical"][k]
            # the half-line scan truncates its region; its tail is held to 1e-8
            tol = 1e-8 if k == "half_line" else 1e-9
            checks += O.check_value(d1[0], d1_ref, "canonical d1", tol)
            checks += O.check_value(D[0], D_ref, "canonical D", tol)
            checks += O.check_minimum_at_end(D)
        return checks


# ---------------------------------------------------------------------------
# cli_calls

@dataclass
class CliResult:
    code: int
    output: str
    rss_kib: int
    trace: dict = field(default_factory=dict)


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_process(cmd, root):
    """Run cmd to completion; return (exit code, stdout+stderr, peak RSS KiB)."""
    proc = subprocess.Popen(cmd, cwd=root, env=cli_env(root),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        output = proc.stdout.read().decode("utf-8", "replace")
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, usage.ru_maxrss


class CliCalls:
    """Fresh ``python -m toricshrink`` processes in pipeline order."""

    name = "cli_calls"
    FILES = (("teardrop", TEARDROP, 48), ("rectangle", RECTANGLE, 16))

    def __init__(self, root):
        self.root = root
        self.traced = False  # run children under perfbench/cli_child.py

    def setup(self, seed, workdir):
        import toricshrink.cli  # noqa: F401
        from toricshrink.polyhedra import from_halfspaces, save_polyhedron

        rng = np.random.default_rng(seed)
        specs = {name: oriented(spec, rng) for name, spec, _ in self.FILES}
        specs["half_line"] = oriented(HALF_LINE, rng)
        paths = {}
        for name, spec in specs.items():
            paths[name] = os.path.join(workdir, name + ".json")
            save_polyhedron(from_halfspaces(*spec), paths[name])
        return {"specs": specs, "paths": paths, "workdir": workdir,
                "sample_seed": int(rng.integers(0, 2**31))}

    def prepare(self, st):
        st["b_exact"] = {k: O.soliton_vector(*s) for k, s in st["specs"].items()}
        st["d1"] = {k: O.canonical_d1(*s) for k, s in st["specs"].items()}

    def _call(self, args, out):
        if self.traced:
            trace_path = out + ".trace"
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"),
                   trace_path] + args
        else:
            cmd = [sys.executable, "-m", "toricshrink"] + args
        code, output, rss = run_process(cmd, self.root)
        trace = {}
        if self.traced:
            with open(trace_path, encoding="utf-8") as fh:
                trace = json.load(fh)
            os.remove(trace_path)
            if os.path.exists(out):
                trace["cli.artifact_bytes"] = os.path.getsize(out)
        return CliResult(code, output, rss, trace)

    def round(self, st, rng):
        ops = []
        seed = str(st["sample_seed"])
        for name, _, grid in self.FILES:
            path = st["paths"][name]

            def art(tag, name=name):
                return os.path.join(st["workdir"], f"{name}.{tag}.json")

            sol = art("solve")
            steps = (
                ("validate", [], self._check_validate),
                ("vertices", [], self._check_vertices),
                ("structure-group", [], self._check_groups),
                ("delzant", [], self._check_delzant),
                ("fan", [], self._check_fan),
                ("soliton-vector", [], self._check_b),
                ("solve", ["--grid", str(grid)], self._check_solve),
                ("residual", ["--potential", sol, "--seed", seed], self._check_residual),
                ("ding-scan", ["--potential", sol], self._check_scan),
                ("check-potential", ["--potential", sol, "--seed", seed],
                 self._check_potential),
            )
            for cmd, extra, check in steps:
                out = art(cmd)
                run = partial(self._call, [cmd, path, *extra, "--out", out], out)
                ops.append(Op(f"{cmd} {name}", run,
                              partial(self._checked, check, st, name, out)))
        # solve then ding-scan with default flags on the half-line: the
        # default truncation of solve is too short for the scan's tolerance
        path = st["paths"]["half_line"]
        sol = os.path.join(st["workdir"], "half_line.solve.json")
        scan = os.path.join(st["workdir"], "half_line.ding-scan.json")
        ops.append(Op("solve half_line",
                      partial(self._call, ["solve", path, "--out", sol], sol),
                      partial(self._checked, self._check_solve, st, "half_line", sol)))
        ops.append(Op("ding-scan half_line",
                      partial(self._call, ["ding-scan", path, "--potential", sol,
                                               "--out", scan], scan),
                      partial(self._checked, self._check_scan, st, "half_line", scan)))
        return ops

    @staticmethod
    def _checked(check, st, name, out, res):
        if res.code != 0:
            raise OpFailed(f"exit {res.code}: {res.output.strip().splitlines()[-1:]}")
        with open(out, encoding="utf-8") as fh:
            return check(st, name, json.load(fh))

    @staticmethod
    def _check_validate(st, name, art):
        ok = art["proper"] and art["rational"] and art["simple"]
        return [O.Check("validate", "prop", float(not ok), 0.0)]

    @staticmethod
    def _check_vertices(st, name, art):
        verts = {tuple(Fraction(c) for c in v["point"]): tuple(v["active_facets"])
                 for v in art["vertices"]}
        return O.check_vertices(*st["specs"][name], verts)

    @staticmethod
    def _check_groups(st, name, art):
        groups = {tuple(Fraction(c) for c in g["point"]): tuple(g["invariant_factors"])
                  for g in art["structure_groups"]}
        return O.check_groups(*st["specs"][name], groups)

    @staticmethod
    def _check_delzant(st, name, art):
        return O.check_delzant(*st["specs"][name], art["projection"],
                               art["kernel_basis"])

    @staticmethod
    def _check_fan(st, name, art):
        return O.check_fan(*st["specs"][name], [c["face_indices"] for c in art["cones"]])

    @staticmethod
    def _check_b(st, name, art):
        return O.check_soliton_vector(art["b"], st["b_exact"][name])

    @staticmethod
    def _check_solve(st, name, art):
        corr = art["correction"]
        b_exact = st["b_exact"][name]
        return (O.check_soliton_vector(art["b"], b_exact)
                + O.check_product_solution(*st["specs"][name], b_exact,
                                           corr["axes"], corr["values"]))

    @staticmethod
    def _check_residual(st, name, art):
        err = art["max_deviation"] / max(1.0, abs(art["mean"]))
        return [O.Check("residual is constant", "rel", err, 1e-6)]

    @staticmethod
    def _check_scan(st, name, art):
        D = [s["D"] for s in art["scan"]]
        return (O.check_convex(D) + O.check_minimum_at_end(D)
                + O.check_value(art["scan"][0]["D1"], st["d1"][name], "canonical d1",
                                1e-8))

    @staticmethod
    def _check_potential(st, name, art):
        ok = art["boundary"]["correction_ok"] and art["boundary"]["density_ok"] and all(
            art["space"][k] for k in ("hessian_positive", "gradient_surjective",
                                      "integrable"))
        return [O.Check("check-potential", "prop", float(not ok), 0.0)]


def make(name, root):
    table = {"solve_products": SolveProducts, "soliton_vectors": SolitonVectors,
             "ding_geodesics": DingGeodesics}
    if name == "cli_calls":
        return CliCalls(root)
    return table[name]()


NAMES = ("solve_products", "soliton_vectors", "ding_geodesics", "cli_calls")
