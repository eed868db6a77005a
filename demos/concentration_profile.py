#!/usr/bin/env python3
"""Measure half-space concentration for a Gaussian restricted to the square.

For a density e^{-psi} with psi'' bounded by M on the unit cube, mass
beyond distance t from any median half-space dies off at least as fast as
exp(-t^2/alpha^2) with alpha = 3 exp(M/8). The demo measures the profile
exactly on the grid, repeats it with one million Monte Carlo samples, and
writes an SVG of the sampled curve against the bound.

Run: python3 demos/concentration_profile.py
"""

import os

import numpy as np

from cube_transport import (
    RestrictedGaussian,
    alpha_theorem1,
    build_density,
    check_concentration,
    estimate_diag_second_derivative_bound,
    halfspace_profile,
    sample_grid,
    unit_cube_grid,
)
from cube_transport.svg import write_profile_svg

OUT = "cube-transport-out"

grid = unit_cube_grid(2, 64)
d = build_density(RestrictedGaussian((0.5, 0.5), ((1.0, 0.0), (0.0, 1.0))), grid)

mhat = estimate_diag_second_derivative_bound(d)
alpha = alpha_theorem1(mhat)
print(f"measured curvature bound M = {mhat:.4f}, alpha = 3 exp(M/8) = {alpha:.4f}")
print()

ts = np.linspace(0.0, 1.2, 20)
direction = np.array([1.0, 0.0])

grid_prof = halfspace_profile(d, direction, ts, alpha=alpha, label="grid")
batch = sample_grid(d, 10 ** 6, seed=0)
samp_prof = halfspace_profile(batch, direction, ts, alpha=alpha, label="sampled")

print(f"{'t':>6} {'grid mass':>10} {'sampled':>10} {'bound':>10}")
for i in range(0, len(ts), 4):
    print(f"{ts[i]:6.3f} {grid_prof.measured[i]:10.6f} "
          f"{samp_prof.measured[i]:10.6f} {grid_prof.bound[i]:10.6f}")

print()
for prof in (grid_prof, samp_prof):
    rep = check_concentration(prof, name="thm-1.1")
    flag = "PASS" if rep.passed else "FAIL"
    print(f"[{flag}] {prof.label}: min(measured + 3SE - bound) = {-rep.lhs:.6f}")

os.makedirs(OUT, exist_ok=True)
path = os.path.join(OUT, "profile-demo.svg")
write_profile_svg(samp_prof, path)
print()
print("wrote", path)
