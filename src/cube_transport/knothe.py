"""Triangular (coordinate-recursive) transport between densities on a cube.

The map is built by recursion on the last coordinate: the base map moves the
marginal of the first dim-1 coordinates, and above each base cell a 1d
monotone map moves the source fiber onto the target fiber read off at the
image point (multilinear interpolation between neighboring target fibers).
The result is "triangular": coordinate i of the output depends only on the
first i input coordinates. All fiber maps of a level form one node table.

Displacements are tabulated at cell centers. Off-center evaluation
interpolates each 1d map's values at the source nodes, not the map itself
(which also bends where its source CDF crosses a target node); this keeps
every coordinate inside the cube and fixes facets by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .density import (DensityError, Grid, GridDensity, PositivityError,
                      marginalize_last)
from .reports import VerificationReport, make_report
from .sampler import empirical_marginal_distance, sample_grid
from .transport1d import QUADRATIC_COST_FACTOR, monotone_nodes


@dataclass(eq=False)
class KnotheMap:
    """Triangular map: row r of ``node_tables[k]``, shape (m**k, m+1), holds
    the node values of the 1d map of coordinate k above cell r (C order) of
    the first k axes. ``displacement`` is T(x) - x at cell centers."""

    grid: Grid
    node_tables: list
    displacement: np.ndarray

    def __post_init__(self):
        n, m = self.grid.dim, self.grid.cells_per_axis
        if [t.shape for t in self.node_tables] != [(m ** k, m + 1) for k in range(n)]:
            raise DensityError("need one (m**k, m+1) node table per coordinate k")
        if self.displacement.shape != self.grid.shape + (n,):
            raise DensityError("displacement must have shape grid.shape + (dim,)")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to finite points of shape (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.grid.dim:
            raise DensityError(f"points must have shape (N, {self.grid.dim})")
        if not np.all(np.isfinite(pts)):
            raise DensityError("points must be finite")
        out = np.empty_like(pts)
        row = np.zeros(len(pts), dtype=np.intp)
        for k, table in enumerate(self.node_tables):
            out[:, k] = _interp_rows(pts[:, k], self.grid.axis_nodes(k), table, row)
            row = row * self.grid.cells_per_axis + self.grid.cell_index(pts[:, k], k)
        return out


def _interp_rows(x: np.ndarray, xp: np.ndarray, table: np.ndarray,
                 rows: np.ndarray) -> np.ndarray:
    """np.interp(x[i], xp, table[rows[i]]) for every i, by np.interp's own arithmetic."""
    j = np.searchsorted(xp, x, side="right") - 1
    jc = np.clip(j, 0, len(xp) - 2)
    y0, y1 = table[rows, jc], table[rows, jc + 1]
    out = np.where(x == xp[jc], y0, (y1 - y0) / (xp[jc + 1] - xp[jc]) * (x - xp[jc]) + y0)
    return np.where(j < 0, y0, np.where(j >= len(xp) - 1, y1, out))


def _check_pair(f: GridDensity, g: GridDensity) -> None:
    if not f.grid.matches(g.grid):
        raise DensityError("source and target must share the same grid")
    f.require_positive()
    g.require_positive()


def _multilinear(values: np.ndarray, pts: np.ndarray, grid: Grid, k: int) -> np.ndarray:
    """Multilinear interpolation of cell-center data over the first k axes.

    ``pts`` has shape (N, k); the result has shape (N,) + values.shape[k:].
    Coordinates are clamped to the convex hull of cell centers.
    """
    m = grid.cells_per_axis
    if m < 2:
        raise DensityError("interpolation needs at least 2 cells per axis")
    u = (pts - grid.origin[:k]) / grid.h - 0.5
    u = np.clip(u, 0.0, m - 1.0)
    i0 = np.minimum(u.astype(int), m - 2)
    w = u - i0
    out = None
    n_pts = len(pts)
    for corner in itertools.product((0, 1), repeat=k):
        idx = tuple(i0[:, a] + corner[a] for a in range(k))
        wt = np.ones(n_pts)
        for a in range(k):
            wt = wt * (w[:, a] if corner[a] else 1.0 - w[:, a])
        term = values[idx]
        if term.ndim > 1:
            wt = wt.reshape((-1,) + (1,) * (term.ndim - 1))
        out = term * wt if out is None else out + term * wt
    return out


def knothe_map(f: GridDensity, g: GridDensity) -> KnotheMap:
    """Build the triangular map pushing f forward to g (same grid, both
    positive): the map of the leading marginals, then all last-axis fibers."""
    _check_pair(f, g)
    n, m = f.grid.dim, f.grid.cells_per_axis
    last_grid = f.grid.last_axis_grid()
    if n == 1:
        tables, lead, target_fibers = [], np.empty((1, 0)), g.values[None]
    else:
        base = knothe_map(marginalize_last(f), marginalize_last(g))
        image_pts = base.grid.centers() + base.displacement.reshape(-1, n - 1)
        target_fibers = _multilinear(g.values, image_pts, f.grid, n - 1)
        tables, lead = base.node_tables, base.displacement
    t = monotone_nodes(f.values.reshape(-1, m), target_fibers, last_grid)
    disp = np.empty(f.grid.shape + (n,))
    disp[..., :n - 1] = lead.reshape((m,) * (n - 1) + (1, n - 1))
    disp[..., n - 1] = (0.5 * (t[:, :-1] + t[:, 1:]) - last_grid.axis_centers()).reshape(
        f.grid.shape)
    return KnotheMap(f.grid, tables + [t], disp)


def displacement_cost(tmap: KnotheMap, f: GridDensity) -> float:
    """integral of |T x - x|^2 f(x) dx by cell-center quadrature."""
    if not tmap.grid.matches(f.grid):
        raise DensityError("map and density grids differ")
    sq = (tmap.displacement ** 2).sum(axis=-1)
    return float((sq * f.values).sum() * f.grid.cell_volume)


def cost_split(tmap: KnotheMap, f: GridDensity) -> tuple:
    """(leading-coordinate cost, last-coordinate cost); they sum to the total."""
    lead = (tmap.displacement[..., :-1] ** 2).sum(axis=-1)
    last = tmap.displacement[..., -1] ** 2
    vol = f.grid.cell_volume
    return (float((lead * f.values).sum() * vol), float((last * f.values).sum() * vol))


def s_integral_nd(f: GridDensity, g: GridDensity, tmap: KnotheMap) -> float:
    """Cell-center quadrature of f log(g(T x)/f) - grad f . (T x - x).

    g is read at image points by multilinear interpolation so that the
    integrand varies smoothly with the map.
    """
    _check_pair(f, g)
    if not tmap.grid.matches(f.grid):
        raise DensityError("map and density grids differ")
    n = f.grid.dim
    image = f.grid.centers() + tmap.displacement.reshape(-1, n)
    g_at = _multilinear(g.values, image, f.grid, n).reshape(f.grid.shape)
    if np.any(g_at <= 0):
        raise PositivityError("target density vanishes on the image of the map")
    grads = f.grid.gradient(f.values)
    inner = sum(grads[k] * tmap.displacement[..., k] for k in range(n))
    s = f.values * np.log(g_at / f.values) - inner
    return float(s.sum() * f.grid.cell_volume)


def tire_bracket(f: GridDensity, g: GridDensity, tmap: KnotheMap = None) -> float:
    """Lower bound for the transport functional, realized by the constructed
    triangular map (no optimality over maps is claimed)."""
    if tmap is None:
        tmap = knothe_map(f, g)
    s = s_integral_nd(f, g, tmap)
    return s - f.total_mass * float(np.log(g.total_mass / f.total_mass))


def check_theorem31(f: GridDensity, g: GridDensity, ratio_bound: float,
                    tmap: KnotheMap = None) -> VerificationReport:
    """Triangular transport cost <= (40/9) R^2 * tire bracket on the unit cube."""
    _check_pair(f, g)
    if f.grid.side > 1.0 + 1e-9:
        raise DensityError("cost bound is stated for cubes of side <= 1")
    if tmap is None:
        tmap = knothe_map(f, g)
    lhs = displacement_cost(tmap, f)
    const = QUADRATIC_COST_FACTOR * ratio_bound ** 2
    rhs = const * tire_bracket(f, g, tmap)
    return make_report("thm-3.1", lhs, rhs, const, grid_m=f.grid.cells_per_axis)


def pushforward_error(tmap: KnotheMap, f: GridDensity, g: GridDensity,
                      n_samples: int = 100_000, seed: int = 0) -> float:
    """Largest per-axis KS distance between mapped f-samples and the
    corresponding 1d marginal of g."""
    _check_pair(f, g)
    batch = sample_grid(f, n_samples, seed)
    return empirical_marginal_distance(tmap.evaluate(batch.points), g)


def check_facet_preservation(tmap: KnotheMap) -> VerificationReport:
    """Each coordinate plane x_i in {origin_i, origin_i + side} maps to itself:
    max over facet points of |T(x)_i - x_i| must stay below 2h."""
    grid = tmap.grid
    n, m, h = grid.dim, grid.cells_per_axis, grid.h
    centers = grid.centers().reshape(grid.shape + (n,))
    # first-layer cell centers along each axis, moved onto its lower, then upper facet
    pts = np.concatenate([np.take(centers, 0, axis=axis).reshape(-1, n)
                          for axis in range(n) for _ in range(2)])
    on_facet = np.repeat(np.eye(n, dtype=bool), 2 * m ** (n - 1), axis=0)
    facets = np.stack([grid.origin, grid.origin + grid.side], axis=1).reshape(-1)
    pts[on_facet] = np.repeat(facets, m ** (n - 1))
    worst = float(np.abs(tmap.evaluate(pts) - pts)[on_facet].max())
    return make_report("facet-preservation", worst, 2.0 * h, 2.0, grid_m=m)
