"""Triangular (Knothe) transport between densities on a cube.

Coordinate k of the map depends only on the first k + 1 input coordinates.
For piecewise-constant f and g the map is exact: above an atom (i, j, w) of
the triangular coupling of the first k axes' marginals, coordinate k moves
by the 1d monotone map from row i of f's (k+1)-axis marginal onto row j of
g's. The map keeps, per level, the normalized row CDFs of both marginals and
the level's quadratic cost and deficit, summed exactly over its linear
pieces. Since the map fixes every facet, integrating grad f . (T - x) by
parts makes the bracket the sum of the levels' deficits. The fiber pairs
come from the northwest recursion that also builds the triangular coupling
of cell masses (``_coupling_batches``): one triangular recursion serves both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityError, Grid, GridDensity
from .reports import VerificationReport, make_report
from .sampler import empirical_marginal_distance, sample_grid
from .transport1d import (QUADRATIC_COST_FACTOR, _deficit_terms, _northwest_rows,
                          _pieces, _positive_cdfs, _square_terms)


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
        s, goes to G_s^-1(F_r(x_k)). Points beyond a face map onto it."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.grid.dim:
            raise DensityError(f"points must have shape (N, {self.grid.dim})")
        if not np.all(np.isfinite(pts)):
            raise DensityError("points must be finite")
        m, h = self.grid.cells_per_axis, self.grid.h
        out = np.empty_like(pts)
        for lo in range(0, len(pts), 1 << 14):  # chunks bound the temporaries
            chunk, r, s = pts[lo:lo + (1 << 14)], 0, 0
            for k, (F, G) in enumerate(zip(self.source_cdfs, self.target_cdfs)):
                nodes, x = self.grid.axis_nodes(k), chunk[:, k]
                c = self.grid.cell_index(x, k)
                F, G = F.reshape(-1), G.reshape(-1)
                fc, gs = r * (m + 1) + c, s * (m + 1)
                Fc = F[fc]
                level = np.clip(Fc + (x - nodes[c]) / h * (F[fc + 1] - Fc), 0.0, 1.0)
                # bisection for the last cell j < m with G_s[j] <= level
                j = np.zeros(len(x), dtype=np.intp)
                for step in 1 << np.arange((m - 1).bit_length())[::-1]:
                    up = np.minimum(j + step, m - 1)
                    j = np.where(G[gs + up] <= level, up, j)
                Gj = G[gs + j]
                t = nodes[j] + (level - Gj) / (G[gs + j + 1] - Gj) * h
                out[lo:lo + len(x), k] = np.where(x >= nodes[-1], nodes[-1], t)
                r, s = r * m + c, s * m + j
        return out


def _check_pair(f: GridDensity, g: GridDensity) -> None:
    if not f.grid.matches(g.grid):
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


def _fiber_pairs(a: np.ndarray, b: np.ndarray):
    """Pairs of last-axis fibers of checked masses a and b, in batches (li,
    lj, lw): the atoms of the triangular coupling of the leading marginals,
    row li of a's fibers coupled to row lj of b's with mass lw. In 1d, the
    one pair of whole rows, with mass 1."""
    if a.ndim == 1:
        yield np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.ones(1)
        return
    src, tgt, w = _flat_atoms(_coupling_batches(a.sum(axis=-1), b.sum(axis=-1)))
    step = max(1, (1 << 15) // a.shape[-1])  # fibers per batch: about 2^16 merged entries
    for s in range(0, len(w), step):
        yield src[s:s + step], tgt[s:s + step], w[s:s + step]


def _coupling_batches(a: np.ndarray, b: np.ndarray):
    """Triangular coupling of checked masses, its last level in batches (s0,
    t0, rows, fi, fj, fw): atom k moves fw[k] from flat cell s0[rows[k]] +
    fi[k] to t0[rows[k]] + fj[k]; s0, t0 are the coupled fibers' first cells."""
    if a.ndim == 1:  # one pair of fibers, starting at cell 0
        yield (np.zeros(1, dtype=np.intp),) * 2 + _northwest_rows(a[None], b[None])
        return
    m = a.shape[-1]
    a_rows, b_rows = a.reshape(-1, m), b.reshape(-1, m)
    for li, lj, lw in _fiber_pairs(a, b):
        a_fib, b_fib, lw = a_rows[li], b_rows[lj], lw[:, None]
        yield (li * m, lj * m) + _northwest_rows(a_fib * (lw / a_fib.sum(axis=1)[:, None]),
                                                 b_fib * (lw / b_fib.sum(axis=1)[:, None]))


def _flat_atoms(batches) -> tuple:
    parts = [(s0[rows] + fi, t0[rows] + fj, fw) for s0, t0, rows, fi, fj, fw in batches]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _marginals(values: np.ndarray) -> list:
    """Entry k: values summed over every axis past k."""
    out = [values]
    while out[0].ndim > 1:
        out.insert(0, out[0].sum(axis=-1))
    return out


def knothe_map(f: GridDensity, g: GridDensity) -> KnotheMap:
    """Build the exact triangular map pushing f forward to g (same grid, both
    positive): per level, one row-batched pass over the pairs of fibers."""
    _check_pair(f, g)
    grid, m = f.grid, f.grid.cells_per_axis
    tables = [[_positive_cdfs(v.reshape(-1, m)) for v in _marginals(d.values)]
              for d in (f, g)]
    masses = [_marginals(d.cell_masses().reshape(grid.shape)) for d in (f, g)]
    square_sums, deficits = np.zeros(grid.dim), np.zeros(grid.dim)
    for k, (F, G, a, b) in enumerate(zip(*tables, *masses)):
        nodes = grid.axis_nodes(k)
        for li, lj, lw in _fiber_pairs(a, b):
            x, t, row, du, slope = _pieces(F[li], G[lj], nodes, grid.h)
            d, w = t - x, lw[row] * du
            square_sums[k] += _square_terms(d[:-1], d[1:], w).sum()
            deficits[k] += _deficit_terms(w, slope).sum()
    return KnotheMap(grid, *tables, square_sums, deficits)


def _check_grid(tmap: KnotheMap, f: GridDensity) -> None:
    if not tmap.grid.matches(f.grid):
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
