"""Solving the soliton equation for the symplectic potential.

The unknown is u = u_P + s where u_P is the canonical potential of the
labeled polyhedron and s is a smooth correction. On a product the equation
splits into one ODE per 1D factor, whose momentum profile W = 1/u'' solves
W' = bW - x in closed form, so the solver needs no iteration: s'' = 1/W - u_P''
is summed as a Chebyshev series, integrated twice and sampled on a Chebyshev
grid. The stable form of log det(Hess u) + <b, x> - <grad u, x> + u is then
constant at every grid node.

Two closed-form solutions anchor everything: the canonical potential of
[-2,2] is the round sphere (b = 0, constant -log 2) and the canonical
potential of [-2,oo) is the Gaussian (b = 1/2, constant log 2).
"""

import math

import numpy as np
from scipy.optimize import brentq

from toricshrink.polyhedra import half_line, interval
from toricshrink.shrinker import residual, solve

print("== round sphere on [-2,2] ==")
res = solve(interval(-2, 2), b=[0.0], grid=32)
print(f"constant c = {res.constant:.12f}  (-log 2 = {-math.log(2):.12f})")
print(f"residual deviation {res.residual_deviation:.1e}, "
      f"correction sup {np.max(np.abs(res.correction.values)):.1e}")

print()
print("== Gaussian on [-2,oo), truncated at <b,x> = 12 ==")
res = solve(half_line(-2), b=[0.5], grid=48, truncation=12.0)
print(f"solved on {res.domain[0]}, truncated axes {res.truncated_axes}")
print(f"constant c = {res.constant:.12f}  (log 2 = {math.log(2):.12f})")

print()
print("== teardrop: an orbifold shrinker with no closed form ==")
teardrop = interval(-2, "2/3", 1, 3)
res = solve(teardrop, grid=48)  # soliton vector found automatically
print(f"b_X = {res.b[0]:.12f}")

# independent check: W = 1/u'' solves W' = bW - x with W = 0 at both ends,
# which pins b by shooting
psi = lambda b: 3 * (1 - 2 * b) * math.exp(8 * b / 3) - (2 * b + 3)
b_shoot = brentq(psi, -2.0, -0.5, xtol=1e-14)
print(f"shooting oracle b = {b_shoot:.12f}, difference {abs(res.b[0] - b_shoot):.1e}")

b = res.b[0]
Cc = (2 / b - 1 / b**2) * math.exp(2 * b)
xs = np.linspace(-1.5, 0.4, 7)
upp_solver = np.array(
    [res.correction.hessian([x])[0, 0] + 0.5 / (x + 2) + 4.5 / (2 - 3 * x)
     for x in xs]
)
upp_oracle = 1.0 / (Cc * np.exp(b * xs) + xs / b + 1 / b**2)
print("x      u''(solver)      u''(oracle)")
for x, a, o in zip(xs, upp_solver, upp_oracle):
    print(f"{x:+.2f}  {a:.12f}  {o:.12f}")

print()
print("== the residual is constant on the whole interior ==")
rng = np.random.default_rng(0)
X = teardrop.sample_interior(rng, 50)
R = residual(teardrop, res.b, X, correction=res.correction)
print(f"50 samples: mean {np.mean(R):.12f}, std {np.std(R):.1e}")
