"""Triangular (Knothe) transport between densities on a cube, in any
dimension: in 1d it is the monotone rearrangement.

Coordinate k of the map depends only on the first k + 1 input coordinates.
For piecewise-constant f and g the map is exact, and one walk down the
levels builds it (``_walk``). At level k each pair of fibers (li, lj) is
merged once (``_merge``, many pairs of CDF rows at a time), into the 1d
monotone map from row li of f's (k+1)-axis marginal onto row lj of g's.
That map matches the normalized row CDFs, F = G o T. Both are piecewise
linear with nodes at their own cell boundaries, so T is piecewise linear
with nodes at their merged breakpoints (``_pieces``), strictly increasing,
and fixes both ends exactly; equal rows give the identity bitwise. A piece
of mass du in cells (i, j) of the pair is the pair (li m + i, lj m + j) of
level k + 1. The map keeps, per level, the normalized row CDFs of both
marginals and the level's quadratic cost and deficit, summed exactly over
its linear pieces, on each of which T' is a constant ratio of cell masses.
Since the map fixes every facet, integrating grad f . (T - x) by parts
makes the bracket the sum of the levels' deficits. Walked over cell
masses, the same walk gives the triangular coupling: its atoms are the
pairs of the walk's last level, level dim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityError, Grid, GridDensity, _marginals, cdf_cells, row_cdfs
from .reports import VerificationReport, make_report
from .sampler import empirical_marginal_distance, sample_grid

# explicit constant of the cost bounds (Proposition 2.1 and Theorem 3.1)
QUADRATIC_COST_FACTOR = 40.0 / 9.0
WALK_BATCH = 1 << 13  # m times the fiber pairs merged per batch (see _walk)


@dataclass(eq=False)
class KnotheMap:
    """Exact triangular map. Level k moves coordinate k: row r of
    ``source_cdfs[k]``, shape (m**k, m+1), is the normalized CDF along axis k
    of f's (k+1)-axis marginal above cell r (C order) of the first k axes,
    and ``target_cdfs[k]`` holds g's likewise. ``square_sums[k]`` is three
    times the normalized quadratic cost of level k, ``deficits[k]`` its
    normalized deficit. ``source`` and ``target`` are the densities f and g
    it was built from, held by reference: readers check their pair by them."""

    source: GridDensity
    target: GridDensity
    source_cdfs: list
    target_cdfs: list
    square_sums: np.ndarray
    deficits: np.ndarray

    @property
    def grid(self) -> Grid:
        return self.source.grid

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


def _positive_cdfs(values: np.ndarray) -> np.ndarray:
    """Normalized CDF rows of positive cell values, strictly increasing: a
    cell too light to move its row's CDF would give the map a jump there."""
    C = row_cdfs(values)
    if np.any(np.diff(C, axis=-1) <= 0):
        raise DensityError("CDF is not strictly increasing: a cell is too light to move "
                           "it; density too degenerate")
    return C


def _merge(F: np.ndarray, G: np.ndarray) -> tuple:
    """The monotone coupling of each row of the CDF table ``F`` with the
    same row of ``G`` (nondecreasing from 0 to 1), flat over the rows: per
    piece of positive mass, in order, its ``row``, the cells ``i`` of F and
    ``j`` of G holding it (the last whose CDF entry is <= its lower level
    ``u``) and its mass ``du``, up to the next level of either row. So no
    piece lies on a cell of zero mass. Returns (row, i, j, du, u)."""
    n, m = F.shape[0], F.shape[1] - 1
    width = 2 * m + 2
    both = np.concatenate((F, G), axis=1)
    order = np.argsort(both, axis=1, kind="stable")  # F's entries first on ties
    levels = np.take(both, order + np.arange(0, n * width, width)[:, None])
    gap = levels[:, 1:] - levels[:, :-1]
    # A positive gap follows the last copy of a level u, so every entry up
    # to u is at or before it. F entry o is then cell i = o of F, and G entry
    # q = o - m - 1 at column col has col - q entries of F up to it: cell
    # i = col + m - o, which is < o; for F entries it is >= m >= o. Then
    # j = col - 1 - i. Below u = 1 no cell needs a clamp.
    positive = gap > 0
    at = np.flatnonzero(positive)
    row = np.repeat(np.arange(n), np.count_nonzero(positive, axis=1))
    flat = at + row  # the entry's position in the (n, width) tables
    o = np.take(order, flat)
    c = flat - row * width + m  # col + m
    i = np.minimum(o, c - o)
    return row, i, c - m - 1 - i, np.take(gap, at), np.take(levels, flat)


def _pieces(F: np.ndarray, G: np.ndarray, nodes: np.ndarray, h: float) -> tuple:
    """The monotone maps from each row of the CDF table ``F`` onto the same
    row of ``G`` (strictly increasing, at the 1d ``nodes`` of spacing
    ``h``) on the pieces of ``_merge``: its row, i, j and du, the slope T'
    of each piece (the ratio of its cell masses), the position ``x`` and
    image ``t = T(x)`` of its lower end, and the index of each row's last
    piece, whose upper end is the row's end x = t = nodes[-1] (exact)."""
    row, i, j, du, u = _merge(F, G)
    fi, gj = row * F.shape[1] + i, row * G.shape[1] + j
    Fi, Gj = np.take(F, fi), np.take(G, gj)
    p, q = np.take(F, fi + 1) - Fi, np.take(G, gj + 1) - Gj
    x = np.take(nodes, i) + (u - Fi) / p * h
    t = np.take(nodes, j) + (u - Gj) / q * h
    last = np.searchsorted(row, np.arange(len(F)), side="right") - 1  # of each row
    upper = np.append(t[1:], nodes[-1])
    upper[last] = nodes[-1]
    if not np.all(upper > t):  # then T at the source nodes and the row ends must rise
        ends = last + 1
        on_node = np.insert(Fi == u, ends, True)
        t_node = np.insert(t, ends, nodes[-1])[on_node]
        row_node = np.insert(row, ends, np.arange(len(F)))[on_node]
        if np.any((np.diff(t_node) <= 0) & (row_node[1:] == row_node[:-1])):
            raise DensityError("computed map is not strictly increasing; density too degenerate")
    return row, i, j, du, p / q, x, t, last


def _square_terms(d0: np.ndarray, d1: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Three times each linear piece's share of the quadratic cost."""
    return du * (d0 * d0 + d0 * d1 + d1 * d1)


def _deficit_terms(du: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Each piece's share of the deficit, integral of T' - 1 - log T'."""
    return du * (slope - 1.0 - np.log(slope))


def _check_pair(f: GridDensity, g: GridDensity) -> None:
    f.require_same_grid(g)
    f.require_positive()
    g.require_positive()


def _walk(A: list, B: list, weight: float, merge, atoms: bool):
    """The triangular construction over the ``_marginals`` tables A and B,
    level by level from the pair of rows 0 at mass ``weight``.
    ``merge(k, li, lj)`` merges a batch of level k's pairs of rows, its first
    outputs those of ``_merge``; each piece of mass du in cells (i, j) of the
    pair (li, lj, lw) is the pair (li m + i, lj m + j, lw du) of level k + 1,
    and this is the one place that writes them. Level dim, written only if
    ``atoms``, is the triangular coupling: its pairs are the flat source and
    target cells of the atoms and their masses. Pieces lie between
    consecutive distinct levels of the pair's CDF rows, so a pair has at
    most (positive cells of its row of A[k]) + (those of B[k]) - 1: summed
    when a level starts, that bounds its pieces, and the next level's pairs
    are written in place into arrays of that size. A batch holds
    WALK_BATCH // m pairs, about 2^14 merged entries, so that the dozen or
    so temporaries of a merge, 128 KiB each, stay in a core's L2 cache.
    Yields (k, li, lj, lw, merged, pieces, size, level) per batch, once its
    pieces are written: their slice ``pieces`` of the level's bound
    ``size``, and the arrays ``level`` of the next level's pairs (None
    where they are not written)."""
    m, dim = A[0].shape[-1], len(A)
    step = max(1, WALK_BATCH // m)
    li, lj, lw = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), np.full(1, weight)
    for k in range(dim):
        cells = [np.count_nonzero(X[k] > 0, axis=1) for X in (A, B)]
        size = int(np.take(cells[0], li).sum() + np.take(cells[1], lj).sum()) - len(lw)
        level = None
        if k + 1 < dim or atoms:
            level = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp), np.empty(size)
        at = 0
        for s in range(0, len(lw), step):
            pairs = slice(s, min(s + step, len(lw)))
            merged = merge(k, li[pairs], lj[pairs])
            row, i, j, du = merged[:4]
            pieces = slice(at, at + len(du))
            if level is not None:
                level[0][pieces] = np.take(li[pairs], row) * m + i
                level[1][pieces] = np.take(lj[pairs], row) * m + j
                level[2][pieces] = np.take(lw[pairs], row) * du
            yield k, li[pairs], lj[pairs], lw[pairs], merged, pieces, size, level
            at = pieces.stop
        if level is not None:
            li, lj, lw = (x[:at] for x in level)


def _mass_walk(f_masses, g_masses, atoms: bool):
    """The walk over masses (finite, nonnegative, one shape, equal positive
    totals) from the level-0 marginal's own sum. Row CDFs come from one
    table per level; zero rows are never paired."""
    a, b = (np.asarray(x, dtype=float) for x in (f_masses, g_masses))
    if a.shape != b.shape or a.ndim < 1:
        raise DensityError(f"mass arrays must share one shape, got {a.shape} and {b.shape}")
    if not (np.all((a >= 0) & (a < np.inf)) and np.all((b >= 0) & (b < np.inf))):
        raise DensityError("masses must be finite and nonnegative")
    total_a, total_b = a.sum(), b.sum()
    if not (total_a > 0 and abs(total_a - total_b) <= 1e-12 * max(total_a, total_b)):
        raise DensityError(f"mass totals must be positive and equal, got {total_a} and {total_b}")
    A, B = _marginals(a), _marginals(b)
    F, G = ([row_cdfs(v) for v in X] for X in (A, B))
    return _walk(A, B, A[0].sum(), lambda k, li, lj: _merge(F[k][li], G[k][lj]), atoms)


def knothe_map(f: GridDensity, g: GridDensity) -> KnotheMap:
    """Build the exact triangular map pushing f forward to g (same grid, both
    positive): one walk, each pair of fibers merged once. A level's cost and
    deficit are summed per fiber pair where it is merged, by np.add.reduceat,
    then by one np.sum over its pairs, so no batch size moves a bit."""
    _check_pair(f, g)
    grid, nodes = f.grid, f.grid.axis_nodes(0)
    A, B = _marginals(f.values), _marginals(g.values)
    F, G = ([_positive_cdfs(v) for v in X] for X in (A, B))
    sums = [[] for _ in A]  # per level, each batch's per-pair cost and deficit
    walk = _walk(A, B, 1.0, lambda k, li, lj: _pieces(F[k][li], G[k][lj], nodes, grid.h), False)
    for k, _, _, lw, (row, _, _, du, slope, x, t, last), *_ in walk:
        d, w = t - x, np.take(lw, row) * du
        upper = np.append(d[1:], 0.0)  # T(x) - x at each piece's upper end, 0 at a row's
        upper[last] = 0.0
        starts = np.append(0, last[:-1] + 1)
        sums[k].append(np.stack([np.add.reduceat(_square_terms(d, upper, w), starts),
                                 np.add.reduceat(_deficit_terms(w, slope), starts)]))
    square_sums, deficits = np.stack([np.hstack(level).sum(axis=1) for level in sums], axis=1)
    return KnotheMap(f, g, F, G, square_sums, deficits)


def triangular_coupling(f_masses: np.ndarray, g_masses: np.ndarray):
    """Discrete counterpart of the triangular map, walked over cell masses:
    the monotone coupling of the axis-0 marginals, then in each atom that of
    the next axis's fibers, and so on. Masses: finite, nonnegative, one
    shape, equal positive totals. Returns the walk's last level as
    flat-index triples (source_cells, target_cells, weights), with
    marginals exact to rounding; no atom lies on a cell of zero mass. They
    are written in place into arrays of the walk's bound, (2m - 1)^d atoms
    on generic positive masses; where two CDF rows share a level inside
    (0, 1), the triples are prefix views of longer ones."""
    for *_, pieces, _, level in _mass_walk(f_masses, g_masses, True):
        pass  # the last batch ends the filled part of the last level
    return tuple(x[:pieces.stop] for x in level)


def triangular_coupling_cost(f: GridDensity, g: GridDensity) -> float:
    """Quadratic cost of the discrete triangular coupling between the
    normalized cell distributions (its atoms are among the seed of
    ``functionals.exact_w2_small``, so the exact optimum can never exceed
    this). The atoms are never built: each batch of the last level's fiber
    pairs takes a lead cost per pair and a last-axis cost per atom from one
    table of squared center differences, which every axis shares, added
    axis by axis as in ``((x_i - x_j) ** 2).sum()``, and writes its atoms'
    terms in place; one np.sum over them makes the cost bitwise that of the
    built coupling."""
    grid = f.require_same_grid(g)
    m, c = grid.cells_per_axis, grid.axis_centers(0)
    table = (c[:, None] - c[None, :]) ** 2
    masses = (d.cell_masses().reshape(grid.shape) for d in (f, g))
    for k, li, lj, lw, (row, i, j, du, _), pieces, size, _ in _mass_walk(*masses, False):
        if k < grid.dim - 1:
            continue
        if pieces.start == 0:
            terms = np.empty(size)
        lead = np.zeros(len(li))
        for unit in m ** np.arange(grid.dim - 2, -1, -1):  # leading axes, in order
            lead = lead + table[li // unit % m, lj // unit % m]
        terms[pieces] = (np.take(lead, row) + np.take(table, i * m + j)) * (np.take(lw, row) * du)
    return float(terms[:pieces.stop].sum())


def _check_map(tmap: KnotheMap, f: GridDensity, g: GridDensity = None) -> None:
    """Raise unless f, and g if given, are the densities tmap was built
    from: the same objects (no cost), or equal values on its grid."""
    for built, given in ((tmap.source, f), (tmap.target, g)):
        if given is None or given is built:
            continue
        if given.grid != built.grid:
            raise DensityError("map and density grids differ")
        if not np.array_equal(given.values, built.values):
            raise DensityError("map was built for another pair of densities")


def displacement_cost(tmap: KnotheMap, f: GridDensity) -> float:
    """integral of |T x - x|^2 f(x) dx, exact."""
    _check_map(tmap, f)
    return f.total_mass * float(tmap.square_sums.sum()) / 3.0


def cost_split(tmap: KnotheMap, f: GridDensity) -> tuple:
    """(leading-coordinate cost, last-coordinate cost); they sum to the total."""
    _check_map(tmap, f)
    return (f.total_mass * float(tmap.square_sums[:-1].sum()) / 3.0,
            f.total_mass * float(tmap.square_sums[-1]) / 3.0)


def tire_bracket(f: GridDensity, g: GridDensity, tmap: KnotheMap = None) -> float:
    """integral of f log(g(T x)/f) - grad f . (T x - x), with grad f taken as
    a distribution, less mass_f log(mass_g / mass_f): the lower bound for the
    transport functional realized by the triangular map (no optimality over
    maps is claimed). Exact: mass_f times the sum of the levels' deficits."""
    if tmap is None:
        tmap = knothe_map(f, g)
    _check_map(tmap, f, g)
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
    _check_map(tmap, f, g)
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
