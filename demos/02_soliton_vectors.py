"""The weighted volume functional and its unique critical point.

F(b) = integral of e^{-<b,x>} over P is finite exactly when b lies in the
interior of the dual of the recession cone, is strictly convex there, and
its critical point b_X is the soliton vector of the shrinker metric. On
unbounded polyhedra the quadrature splits off face x cone pieces, on which
each ray direction integrates in closed form, so F and its derivatives are
exact there too.
"""

import numpy as np

from toricshrink.polyhedra import box, from_halfspaces, half_line, interval
from toricshrink.quadrature import DivergentWeight
from toricshrink.shrinker import find_soliton_vector, grad_hess_F, weighted_volume

cases = [
    ("interval [-2,2]", interval(-2, 2)),
    ("half line [-2,oo)", half_line(-2)),
    ("square [-2,2]^2", box([(-2, 2), (-2, 2)])),
    ("quadrant [-2,oo)^2", box([(-2, None), (-2, None)])),
    ("teardrop [-2,2/3] labels (1,3)", interval(-2, "2/3", 1, 3)),
    ("pentagon, a square cut by x + y <= 2", from_halfspaces(
        2, [((1, 0), 1, 2), ((0, 1), 1, 2), ((-1, 0), 1, 2), ((0, -1), 1, 2), ((-1, -1), 1, 2)])),
]

for name, P in cases:
    sol = find_soliton_vector(P, tol=1e-12)
    print(f"{name}: b_X = {np.round(sol.b, 12)}  "
          f"F = {sol.F_value:.12g}  |grad| = {sol.gradient_norm:.1e}  "
          f"({sol.iterations} Newton steps)")

# bounded symmetric domains give b_X = 0; each unbounded direction
# contributes the Gaussian value 1/2. On a product, b_X is the closed-form
# root of each factor, which Newton only checks; the pentagon is no product

print()
print("convexity at a random weight on the half line:")
P = half_line(-2)
F, g, H = grad_hess_F(P, [0.8])
print(f"F(0.8) = {F:.12g}, F'(0.8) = {g[0]:.12g}, F''(0.8) = {H[0, 0]:.12g} > 0")

print()
print("the weight must decay along every recession ray:")
try:
    weighted_volume(P, [-0.25])
except DivergentWeight as err:
    print(f"b = -0.25 rejected: {err}")
