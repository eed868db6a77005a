#!/usr/bin/env python3
"""Build the triangular (coordinate by coordinate) transport in the plane.

The target 4xy factorizes, so the triangular map acts as sqrt on each
coordinate independently and the cost splits into two 1/30 halves. For
grid densities the map is exact: every coordinate moves by a 1d monotone
map between two cell rows, so its cost and bracket are exact sums over
its pieces, it pushes the source onto the target exactly (the KS check
sees sampling error only), and it fixes every boundary facet of the
square: points on an edge stay on that edge, bitwise.

Run: python3 demos/triangular_map_2d.py
"""

import numpy as np

from cube_transport import (
    GridDensity,
    Uniform,
    build_density,
    check_facet_preservation,
    check_theorem31,
    displacement_cost,
    estimate_axis_convexity_ratio,
    knothe_map,
    normalize,
    pushforward_error,
    relative_entropy,
    tire_bracket,
    unit_cube_grid,
)
from cube_transport.knothe import cost_split

M = 64

grid = unit_cube_grid(2, M)
f = build_density(Uniform(), grid)
cx = grid.axis_centers(0)
g = normalize(GridDensity(grid, 4.0 * np.outer(cx, cx)))

tmap = knothe_map(f, g)

print("triangular transport, uniform square -> 4xy, m =", M)
print()
pts = np.array([[0.25, 0.25], [0.25, 0.81], [0.81, 0.25], [0.5, 0.5]])
out = tmap.evaluate(pts)
print(f"{'x':>14} {'T(x)':>22} {'coordinatewise sqrt':>22}")
for p, q in zip(pts, out):
    print(f"({p[0]:5.2f},{p[1]:5.2f})   ({q[0]:8.5f},{q[1]:8.5f})   "
          f"({np.sqrt(p[0]):8.5f},{np.sqrt(p[1]):8.5f})")

cost = displacement_cost(tmap, f)
tire = tire_bracket(f, g, tmap)
entropy = relative_entropy(g, f)
print()
lead, last = cost_split(tmap, f)
print(f"transport cost       {cost:.6f}   (2 x 1/30 = {2/30:.6f})")
print(f"  split by coordinate {lead:.6f} + {last:.6f}")
print(f"bracket functional   {tire:.6f}")
print(f"relative entropy     {entropy:.6f}   (2 (log 2 - 1/2) = {2*(np.log(2)-0.5):.6f})")

n = 100000
ks = pushforward_error(tmap, f, g, n_samples=n, seed=0)
print(f"pushforward check    KS = {ks:.5f}  (sampling error 2/sqrt(N) = {2/np.sqrt(n):.5f})")

print()
ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
for rep in (check_theorem31(f, g, ratio, tmap), check_facet_preservation(tmap)):
    flag = "PASS" if rep.passed else "FAIL"
    print(f"[{flag}] {rep.name}: lhs={rep.lhs:.6g} <= rhs={rep.rhs:.6g}")
