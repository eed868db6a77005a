#!/usr/bin/env python3
"""Pin the quadratic transport cost between an exact solver and entropy.

On a tiny 2d grid three quantities line up, smallest to largest:

    exact optimal cost (linear program over cell atoms)
 <= triangular coupling cost (same atoms, coordinate by coordinate rule)
 <= (40/9) R^2 x relative entropy

The first link is the optimality of the linear program; the last is the
transport-entropy inequality with its explicit constant.

Run: python3 demos/entropy_transport_sandwich.py
"""

import numpy as np

from cube_transport import (
    build_density,
    check_transport_entropy_sandwich,
    estimate_axis_convexity_ratio,
    unit_cube_grid,
)
from cube_transport.families import random_logconcave_spec_nd, random_smooth_density

M = 8
rng = np.random.default_rng(2024)

grid = unit_cube_grid(2, M)
print(f"sandwich on a {M}x{M} grid, five random pairs")
print()
print(f"{'pair':>4} {'exact LP':>12} {'triangular':>12} {'(40/9)R^2 D':>14} {'links':>8}")

for k in range(5):
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = random_smooth_density(rng, grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))

    # the rows are exact <= triangular, exact <= bound, map cost <= bound
    reps = check_transport_entropy_sandwich(f, g, ratio)
    lp, tri, bound = reps[0].lhs, reps[0].rhs, reps[1].rhs
    links = "".join("y" if r.passed else "N" for r in reps)
    print(f"{k:>4} {lp:12.6f} {tri:12.6f} {bound:14.6f} {links:>8}")

print()
print("links column: exact<=triangular, exact<=bound, map cost<=bound")
