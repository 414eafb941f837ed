"""Per-layer spans recorded from outside toricshrink.

Each public function of a layer is wrapped under every name its callers
look it up by (``quadrature.plan`` is also ``build_plan`` in shrinker,
potentials and ding), and methods are wrapped on their class. A wrapper
records the call's span; a layer's self time is its spans minus the spans
of traced calls made inside them. Spans are folded into per-layer totals
in memory; nothing is written while the program runs.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

# per-layer metrics in the order they are reported
METRICS = (
    "lattice.quotient_group_s", "lattice.quotient_group_calls",
    "polyhedra.construct_s", "polyhedra.construct_calls",
    "polyhedra.vertices_s", "polyhedra.structure_group_s",
    "quadrature.plan_s", "quadrature.plan_calls", "quadrature.plan_simplices",
    "quadrature.dd_s", "quadrature.dd_calls",
    "quadrature.gauss_rule_s", "quadrature.gauss_rule_calls",
    "quadrature.gauss_nodes",
    "potentials.grid_eval_s", "potentials.grid_eval_points", "potentials.check_s",
    "shrinker.solve_s", "shrinker.gauss_newton_iters",
    "shrinker.soliton_vector_s", "shrinker.newton_iters",
    "shrinker.grad_hess_F_calls", "shrinker.residual_calls",
    "ding.scan_s", "ding.scan_points",
    "cli.import_s", "cli.main_s", "cli.artifact_bytes",
    "trace.overhead_s",
)


def _batch(args, kwargs):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return 1 if x.ndim == 1 else len(x)


def _one(args, kwargs, result):
    return 1


# (module, owner class or None, function name, span name, extra counters);
# an extra counter maps a metric name to f(args, kwargs, result) -> number.
# A span name of None counts calls only, leaving their time to the caller.
_TARGETS = (
    ("lattice", None, "quotient_group", "lattice.quotient_group", {}),
    ("polyhedra", "LabeledPolyhedron", "__post_init__", "polyhedra.construct", {}),
    ("polyhedra", None, "vertices", "polyhedra.vertices", {}),
    ("polyhedra", None, "structure_group", "polyhedra.structure_group", {}),
    ("quadrature", None, "plan", "quadrature.plan",
     {"quadrature.plan_simplices": lambda a, k, r: len(r.simplices)}),
    ("quadrature", None, "divided_difference_exp", "quadrature.dd", {}),
    ("quadrature", None, "gauss_simplex_rule", "quadrature.gauss_rule",
     {"quadrature.gauss_nodes": lambda a, k, r: len(r[0])}),
    ("potentials", "GridCorrection", "value", "potentials.grid_eval",
     {"potentials.grid_eval_points": lambda a, k, r: _batch(a, k)}),
    ("potentials", "GridCorrection", "gradient", "potentials.grid_eval",
     {"potentials.grid_eval_points": lambda a, k, r: _batch(a, k)}),
    ("potentials", "GridCorrection", "hessian", "potentials.grid_eval",
     {"potentials.grid_eval_points": lambda a, k, r: _batch(a, k)}),
    ("potentials", None, "check_boundary_conditions", "potentials.check", {}),
    ("potentials", None, "check_space_E", "potentials.check", {}),
    ("shrinker", None, "solve", "shrinker.solve",
     {"shrinker.gauss_newton_iters": lambda a, k, r: r.iterations}),
    ("shrinker", None, "find_soliton_vector", "shrinker.soliton_vector",
     {"shrinker.newton_iters": lambda a, k, r: r.iterations}),
    ("shrinker", None, "grad_hess_F", None, {"shrinker.grad_hess_F_calls": _one}),
    ("shrinker", None, "residual", None, {"shrinker.residual_calls": _one}),
    ("ding", None, "convexity_scan", "ding.scan",
     {"ding.scan_points": lambda a, k, r: len(r)}),
)


class Tracer:
    """Installs span wrappers into the loaded toricshrink modules.

    ``totals`` maps ``<span>_s`` to self seconds and ``<span>_calls`` and
    extra counters to counts, accumulated while installed.
    """

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span, extras):
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter

        def counter(*args, **kwargs):
            result = fn(*args, **kwargs)
            for metric, count in extras.items():
                totals[metric] += count(args, kwargs, result)
            return result

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals[span + "_s"] += elapsed - child
                totals[span + "_calls"] += 1
            for metric, count in extras.items():
                totals[metric] += count(args, kwargs, result)
            return result

        out = counter if span is None else wrapper
        out.__wrapped__ = fn
        return out

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("toricshrink.") and m is not None]
        for mod_name, owner, attr, span, extras in _TARGETS:
            mod = sys.modules.get("toricshrink." + mod_name)
            if mod is None:
                continue
            if owner is not None:
                cls = getattr(mod, owner)
                fn = cls.__dict__[attr]
                self._saved.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(fn, span, extras))
                continue
            fn = getattr(mod, attr)
            wrapped = self._wrap(fn, span, extras)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, name, fn))
                        setattr(m, name, wrapped)

    def uninstall(self):
        for holder, name, fn in reversed(self._saved):
            setattr(holder, name, fn)
        self._saved.clear()

    def take(self) -> dict[str, float]:
        """Return and reset the totals gathered so far."""
        out = dict(self.totals)
        self.totals.clear()
        return out
