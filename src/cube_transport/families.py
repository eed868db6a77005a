"""Reproducible random density families for the verification suites.

The inequality checks are exact statements about grid data, but their
continuum meaning only survives discretization when the densities are
resolved by the grid. These factories therefore draw smooth log-densities
(low-frequency trigonometric fields, Gaussians, tilted powers) whose
derivatives are O(1) against the cell width at the resolutions the suites
use.

Parameter drawing is separated from grid evaluation so one draw can be
rebuilt at several resolutions (refinement checks need the same underlying
density at m and 2m). Callers pass a numpy Generator, so suites stay
seed-reproducible.
"""

from __future__ import annotations

import numpy as np

from .density import (ConvexPower, DensitySpec, ExponentialTilt, Grid,
                      GridDensity, RestrictedGaussian, normalize)

MAX_FREQUENCY = 3


def draw_trig_coeffs(rng: np.random.Generator, dim: int = 1,
                     amplitude: float = 0.7) -> np.ndarray:
    """Coefficients (dim, MAX_FREQUENCY, 2) for a low-frequency log-density."""
    scale = amplitude / np.arange(1, MAX_FREQUENCY + 1, dtype=float)
    return rng.normal(0.0, 1.0, size=(dim, MAX_FREQUENCY, 2)) * scale[None, :, None]


def trig_density(coeffs: np.ndarray, grid: Grid) -> GridDensity:
    """exp of the trigonometric field with the given coefficients, normalized."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (grid.dim, MAX_FREQUENCY, 2):
        raise ValueError(f"coeffs must have shape ({grid.dim}, {MAX_FREQUENCY}, 2)")
    return normalize(GridDensity(grid, np.exp(_mode_field(coeffs, grid, 2.0 * np.pi))))


def _mode_field(coeffs: np.ndarray, grid: Grid, omega: float) -> np.ndarray:
    """Sum over axes i and k = 1..MAX_FREQUENCY of a sin(omega k x_i) +
    b cos(omega k x_i) at the cell centres, (a, b) = coeffs[i, k - 1] and x_i
    rescaled to [0, 1]. Each sin and cos runs on the m centres of its axis;
    the terms are added into the field as (out + a sin) + b cos, term by term."""
    out = np.zeros(grid.shape)
    for axis, centres in enumerate(grid.open_centers()):
        x = (centres - grid.origin[axis]) / grid.side
        for k in range(1, MAX_FREQUENCY + 1):
            a, b = coeffs[axis, k - 1]
            out += a * np.sin(omega * k * x)
            out += b * np.cos(omega * k * x)
    return out


def random_smooth_density(rng: np.random.Generator, grid: Grid,
                          amplitude: float = 0.7) -> GridDensity:
    return trig_density(draw_trig_coeffs(rng, grid.dim, amplitude), grid)


def random_logconcave_spec_1d(rng: np.random.Generator) -> DensitySpec:
    """On [0, 1], one of: restricted Gaussian, exponential tilt, convex power."""
    pick = int(rng.integers(0, 3))
    if pick == 0:
        center = rng.uniform(0.2, 0.8)
        return RestrictedGaussian((center,), ((rng.uniform(0.5, 8.0),),))
    if pick == 1:
        return ExponentialTilt((rng.uniform(-3.0, 3.0),))
    direction = rng.uniform(0.5, 2.0)
    # a positive offset keeps offset + x * direction positive on [0, 1]
    offset = rng.uniform(0.1, 1.0)
    return ConvexPower(offset, (direction,), float(rng.uniform(1.0, 4.0)))


def random_logconcave_spec_nd(rng: np.random.Generator, dim: int,
                              origin: np.ndarray, side: float) -> DensitySpec:
    """Restricted Gaussian with a random center and random SPD curvature."""
    origin = np.asarray(origin, dtype=float)
    center = origin + side * rng.uniform(0.25, 0.75, size=dim)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(0.5, 6.0, size=dim) / side ** 2
    inv_cov = (q * eigs) @ q.T
    inv_cov = (inv_cov + inv_cov.T) / 2.0
    return RestrictedGaussian(tuple(center), tuple(map(tuple, inv_cov)))


def random_node_test_function(rng: np.random.Generator, grid: Grid) -> np.ndarray:
    """Node-sampled 1d function vanishing at both endpoints (sine modes)."""
    x = (grid.axis_nodes(0) - grid.origin[0]) / grid.side
    u = np.zeros_like(x)
    for k in range(1, MAX_FREQUENCY + 1):
        u += rng.normal(0.0, 1.0 / k) * np.sin(np.pi * k * x)
    u[0] = 0.0
    u[-1] = 0.0
    return u


def random_center_test_function(rng: np.random.Generator, grid: Grid) -> np.ndarray:
    """Smooth cell-center test function for the variance/entropy checks."""
    scale = 1.0 / np.arange(1, MAX_FREQUENCY + 1, dtype=float)[:, None]
    coeffs = rng.normal(0.0, scale, size=(grid.dim, MAX_FREQUENCY, 2))
    return _mode_field(coeffs, grid, np.pi) + rng.normal(0.0, 0.5)
