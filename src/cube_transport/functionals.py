"""Entropy functionals, a Legendre dual upper bound, and an exact small-scale
quadratic-cost coupling solved as a sparse linear program by column generation.

Conventions: densities are piecewise constant on a shared grid; integrals are
cell sums times cell volume; gradients are finite differences (centered
inside, one-sided at the boundary), so all quantities here are exact
statements about the grid data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import (DensityError, GridDensity,
                      check_midpoint_log_concavity)
from .knothe import KnotheMap, displacement_cost, knothe_map, tire_bracket
from .reports import VerificationReport, make_report
from .transport1d import QUADRATIC_COST_FACTOR, merge_rows

W2_CELL_LIMIT = 4096
W2_MAX_ROUNDS = 100  # column-generation rounds before giving up on a certificate
W2_PRICING_TOL = 1e-9  # every reduced cost >= -tol certifies the plan optimal
W2_COLUMNS_PER_ROW = 4  # most negative reduced costs added per source cell and round
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
LEGENDRE_CELL_LIMIT = 16384


def linprog(c, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: scipy.optimize
    takes about a quarter second to import, and most CLI suites solve no LP."""
    from scipy.optimize import linprog as solve
    return solve(c, **kwargs)


def relative_entropy(g: GridDensity, f: GridDensity) -> float:
    """integral of g log(g/f); both densities normalized on the same grid.

    Cells where g vanishes contribute zero; a cell with g > 0 but f = 0
    makes the entropy infinite.
    """
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    if not (f.is_normalized() and g.is_normalized()):
        raise DensityError("relative entropy expects normalized densities")
    gv = g.values
    fv = f.values
    if np.any((gv > 0) & (fv <= 0)):
        return float("inf")
    pos = gv > 0
    return float((gv[pos] * np.log(gv[pos] / fv[pos])).sum() * g.grid.cell_volume)


def check_tire_le_entropy(f: GridDensity, g: GridDensity,
                          tmap: KnotheMap = None) -> VerificationReport:
    """Transport lower bound <= relative entropy, for midpoint-log-concave f."""
    ok, worst = check_midpoint_log_concavity(f)
    if not ok:
        raise DensityError(
            f"bound requires a midpoint-log-concave source (violation {worst:.3g})")
    lhs = tire_bracket(f, g, tmap)
    rhs = relative_entropy(g, f)
    return make_report("lem-4.1", lhs, rhs, 1.0, grid_m=f.grid.cells_per_axis)


def legendre_tire_bound(f: GridDensity, g: GridDensity) -> float:
    """Upper bound for the transport functional via the convex conjugate of
    -log g, taken over the support of g:

        integral of [ f phi*(grad psi) + grad f . x - f log f ]
            - mass_f log(mass_g / mass_f)

    with psi = -log f and phi*(v) = sup over target cells y of (v.y - phi(y)).
    Cost is O(cells^2), so the cell count is capped.
    """
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    fv = f.require_positive()
    grid = f.grid
    n = grid.dim
    n_cells = grid.n_cells
    if n_cells > LEGENDRE_CELL_LIMIT:
        raise DensityError(
            f"legendre_tire_bound is quadratic in cells; limit is {LEGENDRE_CELL_LIMIT}")
    support = g.values.reshape(-1) > 0
    if not support.any():
        raise DensityError("target density has empty support")
    centers = grid.centers()
    v_mat = np.stack([gk.reshape(-1) for gk in grid.gradient(-np.log(fv))], axis=1)
    targets = centers[support]
    phi = -np.log(g.values.reshape(-1)[support])
    phi_star = np.empty(n_cells)
    chunk = max(1, (1 << 22) // max(1, len(targets)))
    for start in range(0, n_cells, chunk):
        stop = min(start + chunk, n_cells)
        scores = v_mat[start:stop] @ targets.T - phi[None, :]
        phi_star[start:stop] = scores.max(axis=1)
    grads_f = grid.gradient(fv)
    inner = sum(grads_f[k] * centers[:, k].reshape(grid.shape) for k in range(n))
    integrand = fv * phi_star.reshape(grid.shape) + inner - fv * np.log(fv)
    total = float(integrand.sum() * grid.cell_volume)
    return total - f.total_mass * float(np.log(g.total_mass / f.total_mass))


@dataclass(frozen=True, eq=False)
class CouplingPlan:
    """Sparse coupling between source and target cells: entry k moves
    ``weights[k]`` mass from flat cell ``source_index[k]`` to ``target_index[k]``.

    The LP certificate: ``rounds`` of column generation were solved, the
    smallest reduced cost over all cell pairs is ``min_reduced_cost``, and
    ``lower_bound`` (the dual objective, plus that cost when negative, less a
    rounding allowance) is at most the cost of every coupling of the two
    marginals."""

    source_index: np.ndarray
    target_index: np.ndarray
    weights: np.ndarray
    n_source: int
    n_target: int
    rounds: int
    min_reduced_cost: float
    lower_bound: float

    def marginal_error(self, source_masses: np.ndarray, target_masses: np.ndarray) -> float:
        row = np.bincount(self.source_index, weights=self.weights, minlength=self.n_source)
        col = np.bincount(self.target_index, weights=self.weights, minlength=self.n_target)
        return float(max(np.abs(row - source_masses).max(),
                         np.abs(col - target_masses).max()))


def _price(centers: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple:
    """Smallest reduced cost |x_i - x_j|^2 - u_i - v_j over all cell pairs (in
    chunks of about 2^22 pairs), and the flat indices i * n + j of the up to
    W2_COLUMNS_PER_ROW most negative ones per row below -W2_PRICING_TOL."""
    n = len(u)
    k = min(W2_COLUMNS_PER_ROW, n)
    step = max(1, (1 << 22) // n)
    smallest, found = np.inf, []
    for s in range(0, n, step):
        rc = -u[s:s + step, None] - v[None, :]
        for axis in range(centers.shape[1]):
            rc += (centers[s:s + step, axis, None] - centers[None, :, axis]) ** 2
        cols = np.argpartition(rc, k - 1, axis=1)[:, :k]
        vals = np.take_along_axis(rc, cols, axis=1)
        smallest = min(smallest, float(vals.min()))
        r, c = np.nonzero(vals < -W2_PRICING_TOL)
        found.append((s + r) * n + cols[r, c])
    return smallest, np.concatenate(found)


def exact_w2_small(f: GridDensity, g: GridDensity):
    """Exact squared quadratic-cost distance between the normalized cell
    distributions, via the transportation linear program.

    Returns (squared cost, CouplingPlan). Cell centers carry the cell mass,
    so this is the exact discrete optimum for the center-supported measures
    (an O(h) object against the continuum). Column generation: HiGHS solves
    the LP over a sparse set of cell pairs, seeded with the atoms of the
    triangular coupling (a feasible plan); its duals price every pair, the
    most negative reduced costs join the set, and the loop stops when none is
    below -W2_PRICING_TOL, which certifies the plan optimal, or raises
    RuntimeError after W2_MAX_ROUNDS. 576 cells take about 0.6 s, 4096 cells
    about 90 s (2-core machine)."""
    from scipy import sparse  # imported here: scipy.sparse is slow to import

    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    n = f.grid.n_cells
    if n > W2_CELL_LIMIT:
        raise DensityError(f"exact_w2_small is limited to {W2_CELL_LIMIT} cells")
    a, b = f.cell_masses(), g.cell_masses()
    centers = f.grid.centers()
    src, tgt, _ = triangular_coupling(a.reshape(f.grid.shape), b.reshape(g.grid.shape))
    pairs = np.unique(src * n + tgt)
    # last target constraint is redundant (masses both sum to 1); drop it, so v[-1] = 0
    b_eq = np.concatenate([a, b[:-1]])
    for rounds in range(1, W2_MAX_ROUNDS + 1):
        i, j = np.divmod(pairs, n)
        cost = ((centers[i] - centers[j]) ** 2).sum(axis=1)
        rows, cols = np.concatenate([i, n + j]), np.tile(np.arange(len(pairs)), 2)
        keep = rows < 2 * n - 1
        a_eq = sparse.csr_matrix((np.ones(keep.sum()), (rows[keep], cols[keep])),
                                 shape=(2 * n - 1, len(pairs)))
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                      options=LP_OPTIONS)
        if res.status != 0:
            raise RuntimeError(f"transport LP failed: {res.message}")
        u, v = res.eqlin.marginals[:n], np.append(res.eqlin.marginals[n:], 0.0)
        smallest, new = _price(centers, u, v)
        if smallest >= -W2_PRICING_TOL:
            break
        pairs = np.union1d(pairs, new)
    else:
        raise RuntimeError(f"column generation found no optimality certificate "
                           f"in {W2_MAX_ROUNDS} rounds")
    # weak duality, less a bound on the rounding of these sums and of the pricing
    diameter_sq = float(((centers.max(axis=0) - centers.min(axis=0)) ** 2).sum())
    rounding = 4 * n * np.finfo(float).eps * (np.abs(u).max() + np.abs(v).max() + diameter_sq)
    lower_bound = float(a @ u + b @ v + min(0.0, smallest) * a.sum() - rounding)
    nz = res.x > 1e-15
    plan = CouplingPlan(i[nz], j[nz], res.x[nz], n, n, rounds, smallest, lower_bound)
    return float(res.fun), plan


def _northwest_rows(a: np.ndarray, b: np.ndarray) -> tuple:
    """Monotone (northwest) coupling of each row of a with the same row of b
    (equal totals), as (row, source cell, target cell, weight) per atom: the
    mass between consecutive distinct cumulative masses, in the cells whose
    cumulative masses first pass their midpoint. Optimal for convex costs."""
    values, from_a = merge_rows(np.cumsum(a, axis=1), np.cumsum(b, axis=1))
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = values[:, 1:] != values[:, :-1]
    row, pos = np.nonzero(first)
    edges = values[first]
    i = (np.cumsum(from_a, axis=1) - from_a)[first]  # cumulative masses of a below
    j = pos - i
    prev = np.where(pos == 0, 0.0, np.roll(edges, 1))
    # the midpoint of adjacent doubles can round onto prev: count only below prev
    on_prev = (pos > 0) & ((edges + prev) / 2.0 == prev)
    i, j = np.where(on_prev, np.roll(i, 1), i), np.where(on_prev, np.roll(j, 1), j)
    w = edges - prev
    keep = w > 0
    row, i, j = row[keep], i[keep], j[keep]
    # mass past a row's total (totals differ by rounding) goes to the row's
    # last cell of positive mass, so no atom lands on a cell of zero mass
    for cells, x in ((i, a), (j, b)):
        past = np.flatnonzero(cells == x.shape[1])
        cells[past] = x.shape[1] - 1 - np.argmax(x[row[past], ::-1] > 0, axis=1)
    return row, i, j, w[keep]


def triangular_coupling(f_masses: np.ndarray, g_masses: np.ndarray):
    """Discrete counterpart of the triangular map: couple the leading-axis
    marginals recursively, then couple conditional last-axis fibers by the
    monotone rule inside each marginal atom. Masses: finite, nonnegative, one
    shape, equal positive totals. Returns flat-index triples (source_cells,
    target_cells, weights) with exact marginals; no atom lies on a cell of
    zero mass."""
    a, b = np.asarray(f_masses, dtype=float), np.asarray(g_masses, dtype=float)
    if a.shape != b.shape or a.ndim < 1:
        raise DensityError(f"mass arrays must share one shape, got {a.shape} and {b.shape}")
    if not (np.all((a >= 0) & (a < np.inf)) and np.all((b >= 0) & (b < np.inf))):
        raise DensityError("masses must be finite and nonnegative")
    total_a, total_b = a.sum(), b.sum()
    if not (total_a > 0 and abs(total_a - total_b) <= 1e-12 * max(total_a, total_b)):
        raise DensityError(f"mass totals must be positive and equal, got {total_a} and {total_b}")
    levels = [(a, b)]
    while levels[-1][0].ndim > 1:
        levels.append(tuple(x.sum(axis=-1) for x in levels[-1]))
    _, src, tgt, w = _northwest_rows(*(x[None] for x in levels.pop()))
    for a, b in reversed(levels):
        m = a.shape[-1]
        a_rows, b_rows = a.reshape(-1, m), b.reshape(-1, m)
        step = max(1, (1 << 15) // m)  # fibers per batch: about 2^16 merged entries
        parts = []
        for s in range(0, len(w), step):
            li, lj, lw = src[s:s + step], tgt[s:s + step], w[s:s + step, None]
            a_fib, b_fib = a_rows[li], b_rows[lj]
            rows, fi, fj, fw = _northwest_rows(a_fib * (lw / a_fib.sum(axis=1)[:, None]),
                                               b_fib * (lw / b_fib.sum(axis=1)[:, None]))
            parts.append((li[rows] * m + fi, lj[rows] * m + fj, fw))
        src, tgt, w = (np.concatenate(p) for p in zip(*parts))
    return src, tgt, w


def triangular_coupling_cost(f: GridDensity, g: GridDensity) -> float:
    """Quadratic cost of the discrete triangular coupling between the
    normalized cell distributions (same atoms as ``exact_w2_small``, so the
    exact optimum can never exceed this)."""
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    i, j, w = triangular_coupling(f.cell_masses().reshape(f.grid.shape),
                                  g.cell_masses().reshape(g.grid.shape))
    centers = f.grid.centers()
    sq = ((centers[i] - centers[j]) ** 2).sum(axis=1)
    return float((sq * w).sum())


def check_transport_entropy_sandwich(f: GridDensity, g: GridDensity,
                                     ratio_bound: float) -> list:
    """Three chained reports:

    * exact coupling cost <= discrete triangular coupling cost (same atoms,
      so this is an optimality check of the linear program),
    * exact coupling cost <= (40/9) R^2 * entropy,
    * triangular-map quadrature cost <= (40/9) R^2 * entropy.

    The entropy comparisons assume a midpoint-log-concave source.
    """
    ok, worst = check_midpoint_log_concavity(f)
    if not ok:
        raise DensityError(
            f"sandwich requires a midpoint-log-concave source (violation {worst:.3g})")
    m = f.grid.cells_per_axis
    tmap = knothe_map(f, g)
    tri_cost = displacement_cost(tmap, f)
    tri_discrete = triangular_coupling_cost(f, g)
    w2_sq, _ = exact_w2_small(f, g)
    entropy = relative_entropy(g, f)
    const = QUADRATIC_COST_FACTOR * ratio_bound ** 2
    return [
        make_report("sandwich-w2-knothe", w2_sq, tri_discrete, 1.0, grid_m=m),
        make_report("thm-4.2", w2_sq, const * entropy, const, grid_m=m),
        make_report("sandwich-knothe-entropy", tri_cost, const * entropy, const, grid_m=m),
    ]
