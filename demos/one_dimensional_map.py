#!/usr/bin/env python3
"""Walk through the one dimensional monotone rearrangement on [0, 1].

Moves the uniform density onto the linear density 2x and compares every
computed quantity with its closed form. The monotone map is the triangular
map at one coordinate, so its cost and deficit are ``displacement_cost``
and ``tire_bracket``:

    T(x) = sqrt(x)          cost = integral (sqrt(x) - x)^2 dx = 1/30
    D    = log 2 - 1/2      (relative entropy of the target)

Run: python3 demos/one_dimensional_map.py
"""

import numpy as np

from cube_transport import (
    ConvexPower,
    Uniform,
    build_density,
    check_lemma_lambda,
    check_prop_quadratic,
    displacement_cost,
    estimate_axis_convexity_ratio,
    monotone_map,
    relative_entropy,
    tire_bracket,
    unit_cube_grid,
)
from cube_transport.knothe import _pieces

M = 1024

grid = unit_cube_grid(1, M)
f = build_density(Uniform(), grid)
g = build_density(ConvexPower(0.0, (2.0,), 1.0), grid)

tmap = monotone_map(f, g)

print("monotone rearrangement, uniform -> 2x, m =", M)
print()
xs = np.array([0.0625, 0.25, 0.5625, 0.81])
print(f"{'x':>8} {'T(x)':>10} {'sqrt(x)':>10} {'error':>10}")
for x, tx in zip(xs, tmap.evaluate(xs[:, None])[:, 0]):
    print(f"{x:8.4f} {tx:10.6f} {np.sqrt(x):10.6f} {abs(tx - np.sqrt(x)):10.2e}")

cost = displacement_cost(tmap, f)
entropy = relative_entropy(g, f)
deficit = tire_bracket(f, g, tmap)
print()
print(f"transport cost   {cost:.7f}   (closed form 1/30 = {1/30:.7f})")
print(f"entropy D        {entropy:.7f}   (closed form log 2 - 1/2 = {np.log(2)-0.5:.7f})")
print(f"deficit          {deficit:.7f}   (meets D in this equality case)")

# T' is constant on each piece of the map, cut where either CDF table has a
# node; take the piece whose lower end x is the last at or below 0.5
*_, slope, x, _, _ = _pieces(tmap.source_cdfs[0], tmap.target_cdfs[0],
                             grid.axis_nodes(0), grid.h)
k = np.searchsorted(x, 0.5, side="right") - 1
print(f"T'(x) at x=0.5   {slope[k]:.5f}   (closed form 1/(2 sqrt(x)) = {0.5/np.sqrt(0.5):.5f})")

print()
ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
for rep in (check_prop_quadratic(f, g, ratio), check_lemma_lambda(f, g)):
    flag = "PASS" if rep.passed else "FAIL"
    print(f"[{flag}] {rep.name}: lhs={rep.lhs:.6f} <= rhs={rep.rhs:.6f} "
          f"(constant {rep.constant_used:.4f}, slack {rep.slack:.6f})")
