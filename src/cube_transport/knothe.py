"""Triangular (Knothe) transport between densities on a cube.

Coordinate k of the map depends only on the first k + 1 input coordinates.
For piecewise-constant f and g the map is exact, and one walk down the
levels builds it (``_walk``). At level k each pair of fibers (li, lj) is
merged once, into the 1d monotone map from row li of f's (k+1)-axis
marginal onto row lj of g's; its piece of mass du in cells (i, j) is the
pair (li m + i, lj m + j) of level k + 1. The map keeps, per level, the
normalized row CDFs of both marginals and the level's quadratic cost and
deficit, summed exactly over its linear pieces. Since the map fixes every
facet, integrating grad f . (T - x) by parts makes the bracket the sum of
the levels' deficits. Walked over cell masses, the same merges give the
triangular coupling: its atoms are the last level's pieces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityError, Grid, GridDensity, _marginals, cdf_cells, row_cdfs
from .reports import VerificationReport, make_report
from .sampler import empirical_marginal_distance, sample_grid
from .transport1d import (QUADRATIC_COST_FACTOR, _deficit_terms, _merge, _pieces,
                          _positive_cdfs, _square_terms)

WALK_BATCH = 1 << 13  # m times the fiber pairs merged per batch (see _walk)


@dataclass(eq=False)
class KnotheMap:
    """Exact triangular map. Level k moves coordinate k: row r of
    ``source_cdfs[k]``, shape (m**k, m+1), is the normalized CDF along axis k
    of f's (k+1)-axis marginal above cell r (C order) of the first k axes,
    and ``target_cdfs[k]`` holds g's likewise. ``square_sums[k]`` is three
    times the normalized quadratic cost of level k, ``deficits[k]`` its
    normalized deficit."""

    grid: Grid
    source_cdfs: list
    target_cdfs: list
    square_sums: np.ndarray
    deficits: np.ndarray

    def __post_init__(self):
        m = self.grid.cells_per_axis
        shapes = [(m ** k, m + 1) for k in range(self.grid.dim)]
        if [t.shape for t in self.source_cdfs + self.target_cdfs] != shapes * 2:
            raise DensityError("need one (m**k, m+1) CDF table per coordinate k and side")

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to finite points of shape (N, dim): coordinate k of a
        point above source cell r, whose image so far lies above target cell
        s, goes to G_s^-1(F_r(x_k)). The level F_r(x_k) is interpolated in
        the point's cell, its target cell j is ``cdf_cells`` of row s (the
        search ``sample_grid`` draws with) and the image is linear in cell j.
        Points beyond a face map onto it."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.grid.dim:
            raise DensityError(f"points must have shape (N, {self.grid.dim})")
        if not np.all(np.isfinite(pts)):
            raise DensityError("points must be finite")
        m, h, nodes = self.grid.cells_per_axis, self.grid.h, self.grid.axis_nodes(0)
        out = np.empty_like(pts)
        for lo in range(0, len(pts), 1 << 14):  # chunks bound the temporaries
            chunk, r, s = pts[lo:lo + (1 << 14)], 0, 0
            for k, (F, G) in enumerate(zip(self.source_cdfs, self.target_cdfs)):
                x = chunk[:, k]
                c = self.grid.cell_index(x)
                fc, F = r * (m + 1) + c, F.reshape(-1)
                Fc = F[fc]
                level = np.clip(Fc + (x - nodes[c]) / h * (F[fc + 1] - Fc), 0.0, 1.0)
                j = cdf_cells(G, s, level)
                gj, G = s * (m + 1) + j, G.reshape(-1)
                Gj = G[gj]
                t = nodes[j] + (level - Gj) / (G[gj + 1] - Gj) * h
                out[lo:lo + len(x), k] = np.where(x >= nodes[-1], nodes[-1], t)
                r, s = r * m + c, s * m + j
        return out


def _check_pair(f: GridDensity, g: GridDensity) -> None:
    if f.grid != g.grid:
        raise DensityError("source and target must share the same grid")
    f.require_positive()
    g.require_positive()


def _checked_masses(f_masses, g_masses) -> tuple:
    a, b = np.asarray(f_masses, dtype=float), np.asarray(g_masses, dtype=float)
    if a.shape != b.shape or a.ndim < 1:
        raise DensityError(f"mass arrays must share one shape, got {a.shape} and {b.shape}")
    if not (np.all((a >= 0) & (a < np.inf)) and np.all((b >= 0) & (b < np.inf))):
        raise DensityError("masses must be finite and nonnegative")
    total_a, total_b = a.sum(), b.sum()
    if not (total_a > 0 and abs(total_a - total_b) <= 1e-12 * max(total_a, total_b)):
        raise DensityError(f"mass totals must be positive and equal, got {total_a} and {total_b}")
    return a, b


def _walk(A: list, B: list, weight: float, merge):
    """The triangular construction over the ``_marginals`` tables A and B,
    level by level from the pair of rows 0 at mass ``weight``.
    ``merge(k, li, lj)`` merges a batch of level k's pairs of rows, its first
    outputs those of ``_merge``; each piece of mass du in cells (i, j) of the
    pair (li, lj, lw) is the pair (li m + i, lj m + j, lw du) of level k + 1.
    Pieces lie between consecutive distinct levels of the pair's CDF rows,
    so a pair has at most (positive cells of its row of A[k]) + (those of
    B[k]) - 1: summed when a level starts, that bounds its pieces, and the
    next level's pairs are written in place into arrays of that size. A
    batch holds WALK_BATCH // m pairs, about 2^14 merged entries, so that the
    dozen or so temporaries of a merge, 128 KiB each, stay in a core's L2
    cache. Yields (k, li, lj, lw, merged, pairs, n_pairs, pieces, n_pieces)
    per batch: slice ``pairs`` of the level's pairs, ``pieces`` of its bound."""
    m, dim = A[0].shape[-1], len(A)
    step = max(1, WALK_BATCH // m)
    li, lj, lw = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.full(1, weight)
    for k in range(dim):
        cells = [np.count_nonzero(X[k] > 0, axis=1) for X in (A, B)]
        size = int(np.take(cells[0], li).sum() + np.take(cells[1], lj).sum()) - len(lw)
        if k + 1 < dim:
            level = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp), np.empty(size)
        at = 0
        for s in range(0, len(lw), step):
            pairs = slice(s, min(s + step, len(lw)))
            merged = merge(k, li[pairs], lj[pairs])
            row, i, j, du = merged[:4]
            pieces = slice(at, at + len(du))
            yield k, li[pairs], lj[pairs], lw[pairs], merged, pairs, len(lw), pieces, size
            if k + 1 < dim:
                level[0][pieces] = np.take(li[pairs], row) * m + i
                level[1][pieces] = np.take(lj[pairs], row) * m + j
                level[2][pieces] = np.take(lw[pairs], row) * du
            at = pieces.stop
        if k + 1 < dim:
            li, lj, lw = (x[:at] for x in level)


def _coupling_atoms(f_masses, g_masses, atoms):
    """The last level of the walk over masses (finite, nonnegative, one
    shape, equal positive totals) from the level-0 marginal's own sum.
    ``atoms(s0, t0, r, i, j, w)`` maps a batch, atom k moving w[k] from flat
    cell s0[r[k]] + i[k] to t0[r[k]] + j[k], to per-atom arrays, written in
    place into arrays of the walk's bound; returns their filled prefixes.
    Row CDFs come from one table per level; zero rows are never paired."""
    a, b = _checked_masses(f_masses, g_masses)
    m = a.shape[-1]
    A, B = _marginals(a), _marginals(b)
    F, G = ([row_cdfs(v) for v in X] for X in (A, B))
    walk = _walk(A, B, A[0].sum(), lambda k, li, lj: _merge(F[k][li], G[k][lj]))
    for k, li, lj, lw, (row, i, j, du, _), _, _, pieces, size in walk:
        if k == a.ndim - 1:
            cols = atoms(li * m, lj * m, row, i, j, np.take(lw, row) * du)
            if pieces.start == 0:
                out = [np.empty(size, dtype=x.dtype) for x in cols]
            for x, col in zip(out, cols):
                x[pieces] = col
    return tuple(x[:pieces.stop] for x in out)


def knothe_map(f: GridDensity, g: GridDensity) -> KnotheMap:
    """Build the exact triangular map pushing f forward to g (same grid, both
    positive): one walk, each pair of fibers merged once. A level's cost and
    deficit are summed per fiber pair where it is merged, by np.add.reduceat,
    then by one np.sum over its pairs, so no batch size moves a bit."""
    _check_pair(f, g)
    grid, m = f.grid, f.grid.cells_per_axis
    A, B = _marginals(f.values), _marginals(g.values)
    F, G = ([_positive_cdfs(v) for v in X] for X in (A, B))
    sums = []  # per level, each fiber pair's cost and deficit
    walk = _walk(A, B, 1.0,
                 lambda k, li, lj: _pieces(F[k][li], G[k][lj], grid.axis_nodes(k), grid.h))
    for k, _, _, lw, (row, _, _, du, slope, x, t, last), pairs, n_pairs, *_ in walk:
        if pairs.start == 0:
            sums.append(np.empty((2, n_pairs)))
        d, w = t - x, np.take(lw, row) * du
        upper = np.append(d[1:], 0.0)  # T(x) - x at each piece's upper end, 0 at a row's
        upper[last] = 0.0
        starts = np.append(0, last[:-1] + 1)
        sums[k][0, pairs] = np.add.reduceat(_square_terms(d, upper, w), starts)
        sums[k][1, pairs] = np.add.reduceat(_deficit_terms(w, slope), starts)
    square_sums, deficits = np.stack([level.sum(axis=1) for level in sums], axis=1)
    return KnotheMap(grid, F, G, square_sums, deficits)


def _check_grid(tmap: KnotheMap, f: GridDensity) -> None:
    if tmap.grid != f.grid:
        raise DensityError("map and density grids differ")


def displacement_cost(tmap: KnotheMap, f: GridDensity) -> float:
    """integral of |T x - x|^2 f(x) dx, exact."""
    _check_grid(tmap, f)
    return f.total_mass * float(tmap.square_sums.sum()) / 3.0


def cost_split(tmap: KnotheMap, f: GridDensity) -> tuple:
    """(leading-coordinate cost, last-coordinate cost); they sum to the total."""
    _check_grid(tmap, f)
    return (f.total_mass * float(tmap.square_sums[:-1].sum()) / 3.0,
            f.total_mass * float(tmap.square_sums[-1]) / 3.0)


def tire_bracket(f: GridDensity, g: GridDensity, tmap: KnotheMap = None) -> float:
    """integral of f log(g(T x)/f) - grad f . (T x - x), with grad f taken as
    a distribution, less mass_f log(mass_g / mass_f): the lower bound for the
    transport functional realized by the triangular map (no optimality over
    maps is claimed). Exact: mass_f times the sum of the levels' deficits."""
    if tmap is None:
        tmap = knothe_map(f, g)
    _check_grid(tmap, f)
    return f.total_mass * float(tmap.deficits.sum())


def check_theorem31(f: GridDensity, g: GridDensity, ratio_bound: float,
                    tmap: KnotheMap = None) -> VerificationReport:
    """Triangular transport cost <= (40/9) R^2 * tire bracket on the unit cube."""
    _check_pair(f, g)
    if tmap is None:
        tmap = knothe_map(f, g)
    return make_report("thm-3.1", displacement_cost(tmap, f), tire_bracket(f, g, tmap),
                       QUADRATIC_COST_FACTOR * ratio_bound ** 2, grid_m=f.grid.cells_per_axis)


def pushforward_error(tmap: KnotheMap, f: GridDensity, g: GridDensity,
                      n_samples: int = 100_000, seed: int = 0) -> float:
    """Largest per-axis KS distance between mapped f-samples and the
    corresponding 1d marginal of g."""
    _check_pair(f, g)
    batch = sample_grid(f, n_samples, seed)
    return empirical_marginal_distance(tmap.evaluate(batch.points), g)


def check_facet_preservation(tmap: KnotheMap) -> VerificationReport:
    """Each facet plane x_i in {0, 1} of the cube maps to itself:
    max over facet points of |T(x)_i - x_i| must stay below 2h."""
    grid = tmap.grid
    n, m, h = grid.dim, grid.cells_per_axis, grid.h
    # first-layer cell centers along each axis, moved onto its lower, then upper facet
    centers, layers = grid.axis_centers(0), []
    for axis in range(n):
        coords = [centers] * n
        coords[axis] = centers[:1]
        layers += [np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, n)] * 2
    pts = np.concatenate(layers)
    on_facet = np.repeat(np.eye(n, dtype=bool), 2 * m ** (n - 1), axis=0)
    pts[on_facet] = np.repeat(np.tile([0.0, 1.0], n), m ** (n - 1))
    worst = float(np.abs(tmap.evaluate(pts) - pts)[on_facet].max())
    return make_report("facet-preservation", worst, h, 2.0, grid_m=m)
