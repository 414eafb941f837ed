"""Convexity of the Ding functional along linear geodesics.

D(v) = (1/F(b_X)) * integral of v e^{-<b_X,x>} - log D1(v), where D1 pushes
the weighted measure to the Legendre dual side. Along t -> (1-t) v0 + t v1
the functional is convex, solutions are minimizers, and the only flat
directions are affine gauge changes. These are exactly the ingredients of
the uniqueness argument for shrinker potentials, witnessed numerically.
"""

import numpy as np

from toricshrink.ding import convexity_scan, ding, second_differences
from toricshrink.polyhedra import interval
from toricshrink.potentials import CanonicalPotential, CorrectedPotential, GridCorrection
from toricshrink.shrinker import solve

P = interval(-2, 2)
b_X = [0.0]

print("== a random geodesic between two corrected potentials ==")
rng = np.random.default_rng(11)
dom = [(-2.0, 2.0)]


def random_potential():
    c = 0.05 * rng.standard_normal(3)
    return CorrectedPotential(
        P,
        GridCorrection.from_function(
            lambda x: float(c[0] * x[0] ** 2 + c[1] * x[0] ** 3 + c[2] * x[0]),
            dom,
            [12],
        ),
    )


v0, v1 = random_potential(), random_potential()
scan = convexity_scan(v0, v1, P, b_X=b_X, num_t=9)
print(" t       D1             D")
for s in scan:
    print(f"{s.t:.3f}  {s.d1:.10f}  {s.value:.10f}")
print(f"second differences all >= 0: min = {np.min(second_differences(scan)):.2e}")

print()
print("== the solved potential minimizes D ==")
res = solve(P, b=b_X, grid=24)
solution = CorrectedPotential(P, res.correction)
d_sol = ding(solution, P, b_X=b_X)
d_can = ding(CanonicalPotential(P), P, b_X=b_X)
d_off = ding(v1, P, b_X=b_X)
print(f"D(solution)  = {d_sol.value:.10f}")
print(f"D(canonical) = {d_can.value:.10f}")
print(f"D(random)    = {d_off.value:.10f}")
# on [-2,2] the canonical potential is itself the solution, so the first
# two agree and the random potential sits strictly above

print()
print("== affine tilts are null directions ==")
s1 = GridCorrection(res.correction.axes, res.correction.values
                    + 0.3 * res.correction.axes[0] + 0.7)
tilted = CorrectedPotential(P, s1)
scan = convexity_scan(solution, tilted, P, b_X=b_X, num_t=7)
vals = [s.value for s in scan]
print(f"D along the gauge geodesic: spread = {max(vals) - min(vals):.2e}")
mid = CorrectedPotential(P, GridCorrection(s1.axes, 0.5 * res.correction.values
                                             + 0.5 * s1.values))
print(f"midpoint evaluates identically: {ding(mid, P, b_X=b_X).value:.10f}")
