"""Triangular (coordinate-recursive) transport between densities on a cube.

The map is built by recursion on the last coordinate: the base map moves the
marginal of the first dim-1 coordinates, and above each base cell a 1d
monotone map moves the source fiber onto the target fiber read off at the
image point (multilinear interpolation between neighboring target fibers).
The result is "triangular": coordinate i of the output depends only on the
first i input coordinates.

Displacements are tabulated at cell centers; off-center evaluation works by
the same recursion using the piecewise-linear 1d maps, which keeps every
coordinate inside the cube and fixes facets by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .density import (DensityError, Grid, GridDensity, PositivityError,
                      marginalize_last)
from .reports import VerificationReport, make_report
from .sampler import empirical_marginal_distance, sample_grid
from .transport1d import (QUADRATIC_COST_FACTOR, MonotoneMap1D, monotone_map)


@dataclass(eq=False)
class KnotheMap:
    """Triangular map: base map on the leading coordinates plus one
    monotone 1d fiber map per base cell (C order). ``displacement`` holds
    T(x) - x at cell centers, shape grid.shape + (dim,)."""

    dim: int
    grid: Grid
    base: "KnotheMap | None"
    fiber_maps: list
    displacement: np.ndarray

    def __post_init__(self):
        m = self.grid.cells_per_axis
        if self.dim != self.grid.dim:
            raise DensityError("dim must match grid dim")
        if (self.base is None) != (self.dim == 1):
            raise DensityError("base map must be present exactly when dim > 1")
        if len(self.fiber_maps) != m ** (self.dim - 1):
            raise DensityError("need one fiber map per base cell")
        if self.displacement.shape != self.grid.shape + (self.dim,):
            raise DensityError("displacement must have shape grid.shape + (dim,)")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to points of shape (N, dim)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.dim:
            raise DensityError(f"points must have shape (N, {self.dim})")
        if self.dim == 1:
            return self.fiber_maps[0](pts[:, 0])[:, None]
        base_img = self.base.evaluate(pts[:, :-1])
        m = self.grid.cells_per_axis
        idx_cols = [self.grid.cell_index(pts[:, k], k) for k in range(self.dim - 1)]
        flat = np.ravel_multi_index(idx_cols, (m,) * (self.dim - 1))
        out_last = np.empty(len(pts))
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]
        uniq, run_starts = np.unique(sorted_flat, return_index=True)
        run_ends = np.append(run_starts[1:], len(sorted_flat))
        for fiber_ix, s, e in zip(uniq, run_starts, run_ends):
            sel = order[s:e]
            out_last[sel] = self.fiber_maps[fiber_ix](pts[sel, -1])
        return np.column_stack([base_img, out_last])


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
    """Build the triangular map pushing f forward to g (same grid, both positive)."""
    _check_pair(f, g)
    n = f.grid.dim
    if n == 1:
        t = monotone_map(f, g)
        return KnotheMap(1, f.grid, None, [t], t.displacement_at_centers()[:, None])
    base = knothe_map(marginalize_last(f), marginalize_last(g))
    m = f.grid.cells_per_axis
    base_shape = (m,) * (n - 1)
    image_pts = base.grid.centers() + base.displacement.reshape(-1, n - 1)
    target_fibers = _multilinear(g.values, image_pts, f.grid, n - 1)
    last_grid = f.grid.last_axis_grid()
    centers_last = last_grid.axis_centers()
    src_fibers = f.values.reshape(-1, m)
    disp = np.empty(f.grid.shape + (n,))
    disp[..., : n - 1] = base.displacement.reshape(base_shape + (1, n - 1))
    disp_flat = disp.reshape(-1, m, n)
    fibers = []
    for b in range(src_fibers.shape[0]):
        t = monotone_map(GridDensity(last_grid, src_fibers[b]),
                         GridDensity(last_grid, target_fibers[b]))
        fibers.append(t)
        disp_flat[b, :, n - 1] = t.at_centers() - centers_last
    return KnotheMap(n, f.grid, base, fibers, disp)


def displacement_cost(tmap: KnotheMap, f: GridDensity) -> float:
    """integral of |T x - x|^2 f(x) dx by cell-center quadrature."""
    if not tmap.grid.matches(f.grid):
        raise DensityError("map and density grids differ")
    sq = (tmap.displacement ** 2).sum(axis=-1)
    return float((sq * f.values).sum() * f.grid.cell_volume)


def cost_split(tmap: KnotheMap, f: GridDensity) -> tuple:
    """(leading-coordinate cost, last-coordinate cost); they sum to the total."""
    if tmap.dim < 2:
        return 0.0, displacement_cost(tmap, f)
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
    worst = 0.0
    for axis in range(n):
        # the cell centers of the first layer along the axis, moved onto each facet
        pts = np.take(centers, 0, axis=axis).reshape(-1, n)
        for bound_value in (grid.origin[axis], grid.origin[axis] + grid.side):
            pts[:, axis] = bound_value
            out = tmap.evaluate(pts)
            worst = max(worst, float(np.abs(out[:, axis] - bound_value).max()))
    return make_report("facet-preservation", worst, 2.0 * h, 2.0, grid_m=m)
