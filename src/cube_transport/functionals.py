"""Entropy functionals, a Legendre dual upper bound, and an exact small-scale
quadratic-cost coupling solved as a sparse linear program by column generation.

Conventions: densities are piecewise constant on a shared grid; integrals are
cell sums times cell volume; gradients are finite differences (centered
inside, one-sided at the boundary), so all quantities here are exact
statements about the grid data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .density import (DensityError, GridDensity,
                      check_midpoint_log_concavity)
from .knothe import (KnotheMap, _coupling_atoms,
                     displacement_cost, knothe_map, tire_bracket)
from .reports import VerificationReport, make_report
from .transport1d import QUADRATIC_COST_FACTOR

W2_CELL_LIMIT = 4096
W2_MAX_ROUNDS = 100  # column-generation rounds before giving up on a certificate
W2_PRICING_TOL = 1e-9  # every reduced cost >= -tol certifies the plan optimal
W2_COLUMNS_PER_ROW = 4  # most negative reduced costs added per source cell and round
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
W2_MASS_SCALE = 1e6  # the model's masses total W2_MASS_SCALE / cells (see _transport_model)
LEGENDRE_CELL_LIMIT = 16384


def _highs():
    """scipy's HiGHS binding, imported on first use: scipy.optimize takes
    about a quarter second to import, and most CLI suites solve no LP."""
    try:
        import scipy.optimize._highspy._core as core
    except ImportError as exc:
        raise ImportError("exact_w2_small needs scipy>=1.15, the first release that "
                          "ships the HiGHS binding scipy.optimize._highspy._core") from exc
    return core


class LPRound(NamedTuple):
    """One solve of the transport model."""

    x: np.ndarray  # mass on each column of the model
    fun: float  # cost of x
    y: np.ndarray  # row duals: u on the source rows, then v without its last entry
    nit: int  # simplex iterations of this round


def _checked(status, call: str) -> None:
    """Raise if HiGHS rejected ``call``: kError leaves the model unchanged."""
    if status == _highs().HighsStatus.kError:
        raise RuntimeError(f"HiGHS rejected {call}")


def _transport_model(b_eq: np.ndarray):
    """A silent HiGHS model with no columns yet, whose row r is fixed at
    b_eq[r] W2_MASS_SCALE / n (n source cells, 2n - 1 rows), with the
    LP_OPTIONS tolerances; ``linprog`` reads and writes unit masses. HiGHS
    accepts basics down to -1e-10, the floor of its feasibility tolerance:
    -1e-16 n in unit masses, so dropping one moves the plan's cost off the
    dual objective by less than the certificate's rounding allowance."""
    highs = _highs()._Highs()
    for key, value in {"output_flag": False, **LP_OPTIONS}.items():
        _checked(highs.setOptionValue(key, value), f"setOptionValue({key!r}, {value!r})")
    none = np.zeros(0, dtype=np.int32)
    rows = b_eq * (W2_MASS_SCALE / ((len(b_eq) + 1) // 2))
    _checked(highs.addRows(len(b_eq), rows, rows, 0, none, none, np.zeros(0)), "addRows")
    return highs


def linprog(c, *, highs, i, j, start=None) -> LPRound:
    """One column-generation round on the HiGHS transport model ``highs``:
    append the columns past those it holds (column k moves mass from source
    cell i[k] to target cell j[k] at cost c[k]), then run the dual simplex
    from the kept basis, or in the first round from the feasible plan
    ``start``. c is the round's full cost vector."""
    n = (highs.getNumRow() + 1) // 2
    scale = W2_MASS_SCALE / n
    held = highs.getNumCol()
    i, j, cost = i[held:], j[held:], c[held:]
    rows = np.stack([i, n + j], axis=1)
    keep = rows < 2 * n - 1  # the last target row is dropped
    counts = keep.sum(axis=1)
    index = rows[keep].astype(np.int32)
    _checked(highs.addCols(len(cost), cost, np.zeros(len(cost)), np.full(len(cost), np.inf),
                           len(index), (np.cumsum(counts) - counts).astype(np.int32), index,
                           np.ones(len(index))), "addCols")
    if start is not None:
        solution = _highs().HighsSolution()
        solution.col_value = start * scale
        _checked(highs.setSolution(solution), "setSolution")
    highs.run()
    status = highs.getModelStatus()
    if status != _highs().HighsModelStatus.kOptimal:
        raise RuntimeError(f"transport LP failed: {highs.modelStatusToString(status)}")
    solution, info = highs.getSolution(), highs.getInfo()
    return LPRound(np.array(solution.col_value) / scale, info.objective_function_value / scale,
                   np.array(solution.row_dual), info.simplex_iteration_count)


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


def _lower_hull_vertices(lines: np.ndarray) -> np.ndarray:
    """Flat indices, in C order, of the lower convex hull vertices of the
    points (j, lines[r, j]) of every row r, +inf entries left out.

    Each pass drops every candidate on or above the chord between its live
    neighbours in the row, then relinks the rows; only the survivors next to
    a dropped point have a new chord, so they are the next candidates. A pass
    that drops nothing leaves each live point strictly below its chord, so
    the live points are the hull vertices. The passes cost O(cells) in all.
    """
    m = lines.shape[1]
    none = lines.size  # index of a sentinel slot: no neighbour
    values = np.append(lines.reshape(-1), 0.0)
    j = np.append(np.arange(none) % m, 0)
    live = np.append(np.isfinite(values[:-1]), False)
    cand = np.flatnonzero(live)
    same = cand[1:] // m == cand[:-1] // m
    prv, nxt = np.full(none + 1, none), np.full(none + 1, none)
    prv[cand[1:]] = np.where(same, cand[:-1], none)
    nxt[cand[:-1]] = np.where(same, cand[1:], none)
    while True:
        cand = cand[(prv[cand] != none) & (nxt[cand] != none)]
        a, b = prv[cand], nxt[cand]
        drop = cand[(values[cand] - values[a]) * (j[b] - j[a])
                    >= (values[b] - values[a]) * (j[cand] - j[a])]
        if not len(drop):
            return np.flatnonzero(live[:-1])
        live[drop] = False
        # each run of dropped points leaves its live ends linked to each other
        left = prv[drop[live[prv[drop]]]]
        right = nxt[drop[live[nxt[drop]]]]
        nxt[left], prv[right] = right, left
        cand = np.union1d(left, right)


def legendre_tire_bound(f: GridDensity, g: GridDensity) -> float:
    """Upper bound for the transport functional via the convex conjugate of
    -log g, taken over the support of g:

        integral of [ f phi*(grad psi) + grad f . x - f log f ]
            - mass_f log(mass_g / mass_f)

    with psi = -log f and phi*(v) = sup over the points y of the support's
    cells of (v.y - phi(y)): phi is constant on a cell, whose sup is at the
    corner (h/2)|v|_1 past the center. Over the centers, the sup splits over
    the lines of cells along the last axis: it is the max over leading cells
    of v_lead . y_lead + h(v_last), where h(s) = max_j (s y_j - phi(lead, j))
    is attained at the vertex of the line's lower convex hull whose edge
    slopes bracket s (Lucet, "Faster than the fast Legendre transform",
    Numer. Algorithms 1997). The hulls cost O(cells); one searchsorted of
    every cell's v_last per line costs O(cells^2 / m log m), so the cell
    count is still capped.
    """
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    grid = f.grid
    n, m = grid.dim, grid.cells_per_axis
    if grid.n_cells > LEGENDRE_CELL_LIMIT:
        raise DensityError(f"legendre_tire_bound takes time of order cells^2 / m; "
                           f"limit is {LEGENDRE_CELL_LIMIT} cells")
    fv = f.require_positive()
    support = g.values > 0
    if not support.any():
        raise DensityError("target density has empty support")
    phi = np.full(grid.shape, np.inf)
    phi[support] = -np.log(g.values[support])
    lines = phi.reshape(-1, m)
    centers = grid.centers()
    lead = centers.reshape(-1, m, n)[:, 0, :-1]  # leading coordinates of each line
    v_mat = np.stack([gk.reshape(-1) for gk in grid.gradient(-np.log(fv))], axis=1)
    v_lead, s = v_mat[:, :-1], v_mat[:, -1]
    # hull vertices of all lines in one flat array, line by line
    vertex = _lower_hull_vertices(lines)
    line, j = np.divmod(vertex, m)
    y, phi_v = grid.axis_centers(n - 1)[j], lines.reshape(-1)[vertex]
    starts = np.searchsorted(line, np.arange(len(lines) + 1))
    phi_star = np.full(grid.n_cells, -np.inf)
    for k in np.flatnonzero(np.diff(starts)):
        a, b = starts[k], starts[k + 1]
        slopes = np.diff(phi_v[a:b]) / np.diff(y[a:b])
        best = a + np.searchsorted(slopes, s)  # past the hull edges with slopes below s
        np.maximum(phi_star, v_lead @ lead[k] + s * y[best] - phi_v[best], out=phi_star)
    phi_star += 0.5 * grid.h * np.abs(v_mat).sum(axis=1)  # the best corner of the cell
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
    marginals. ``u`` and ``v`` are the duals it is made from, one per source
    and target cell (v[-1] = 0): the reduced cost of moving mass from cell i
    to cell j is |x_i - x_j|^2 - u[i] - v[j]."""

    source_index: np.ndarray
    target_index: np.ndarray
    weights: np.ndarray
    n_source: int
    n_target: int
    rounds: int
    min_reduced_cost: float
    lower_bound: float
    u: np.ndarray
    v: np.ndarray

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

    Returns (squared cost, CouplingPlan), the cost that of the plan's own
    atoms, sum of w |x_i - x_j|^2. Cell centers carry the cell mass,
    so this is the exact discrete optimum for the center-supported measures
    (an O(h) object against the continuum). Column generation: one HiGHS
    model solves the LP over a sparse set of cell pairs, seeded with the
    union of the atoms of the triangular couplings in the dim cyclic axis
    orders (0, 1, ..., d-1), (1, ..., d-1, 0), ... (each the last level of
    the triangular walk over the cell masses, a plan feasible to rounding;
    the first is that of ``triangular_coupling_cost``, and the first solve
    starts from it); its duals price every pair, the most negative reduced costs
    join the model as new columns, the next solve starts from the last
    basis, and the loop stops when no reduced cost is below
    -W2_PRICING_TOL, which certifies the plan optimal, or raises
    RuntimeError after W2_MAX_ROUNDS. On a 2-core machine the benchmark's
    576-cell pairs take about 0.06 s in one round, a 1024-cell pair about
    0.2 s, and a 4096-cell pair about 8 s in five."""
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    n, shape = f.grid.n_cells, f.grid.shape
    if n > W2_CELL_LIMIT:
        raise DensityError(f"exact_w2_small is limited to {W2_CELL_LIMIT} cells")
    a, b = f.cell_masses(), g.cell_masses()
    centers = f.grid.centers()
    seeds = []  # (flat pair indices i * n + j, weights) of each order's coupling
    for order in (np.roll(np.arange(f.grid.dim), -k) for k in range(f.grid.dim)):
        # flat[p]: the cell at flat position p of the transposed grid
        flat = np.transpose(np.arange(n).reshape(shape), order).reshape(-1)
        src, tgt, w = triangular_coupling(np.transpose(a.reshape(shape), order),
                                          np.transpose(b.reshape(shape), order))
        seeds.append((flat[src] * n + flat[tgt], w))
    pairs = np.unique(np.concatenate([p for p, _ in seeds]))
    start = np.bincount(np.searchsorted(pairs, seeds[0][0]), weights=seeds[0][1],
                        minlength=len(pairs))
    # last target constraint is redundant (masses both sum to 1); drop it, so v[-1] = 0
    highs = _transport_model(np.concatenate([a, b[:-1]]))
    for rounds in range(1, W2_MAX_ROUNDS + 1):
        i, j = np.divmod(pairs, n)
        moved = ((centers[i] - centers[j]) ** 2).sum(axis=1)
        res = linprog(moved, highs=highs, i=i, j=j, start=start if rounds == 1 else None)
        u, v = res.y[:n], np.append(res.y[n:], 0.0)
        smallest, new = _price(centers, u, v)
        if smallest >= -W2_PRICING_TOL:
            break
        pairs = np.concatenate([pairs, np.setdiff1d(new, pairs)])
    else:
        raise RuntimeError(f"column generation found no optimality certificate "
                           f"in {W2_MAX_ROUNDS} rounds")
    # weak duality, less a bound on the rounding of these sums and of the pricing
    diameter_sq = float(((centers.max(axis=0) - centers.min(axis=0)) ** 2).sum())
    rounding = 4 * n * np.finfo(float).eps * (np.abs(u).max() + np.abs(v).max() + diameter_sq)
    lower_bound = float(a @ u + b @ v + min(0.0, smallest) * a.sum() - rounding)
    nz = res.x > 0  # basics below 0 are dropped (see _transport_model)
    plan = CouplingPlan(i[nz], j[nz], res.x[nz], n, n, rounds, smallest, lower_bound, u, v)
    return float(plan.weights @ moved[nz]), plan


def triangular_coupling(f_masses: np.ndarray, g_masses: np.ndarray):
    """Discrete counterpart of the triangular map, walked over cell masses:
    the monotone coupling of the axis-0 marginals, then in each atom that of
    the next axis's fibers, and so on. Masses: finite, nonnegative, one
    shape, equal positive totals. Returns flat-index triples (source_cells,
    target_cells, weights) with marginals exact to rounding; no atom lies on
    a cell of zero mass. They are written in place into arrays of the walk's
    bound, (2m - 1)^d atoms on generic positive masses; where two CDF rows
    share a level inside (0, 1), the triples are prefix views of longer ones."""
    return _coupling_atoms(f_masses, g_masses, lambda s0, t0, r, i, j, w: (
        np.take(s0, r) + i, np.take(t0, r) + j, w))


def triangular_coupling_cost(f: GridDensity, g: GridDensity) -> float:
    """Quadratic cost of the discrete triangular coupling between the
    normalized cell distributions (its atoms are among the seed of
    ``exact_w2_small``, so the exact optimum can never exceed this). The
    atoms are never built: each batch of the last level's fiber pairs takes
    a lead cost per pair and a last-axis cost per atom from per-axis tables
    of squared center differences, added axis by axis as in
    ``((x_i - x_j) ** 2).sum()``, and writes its atoms' terms in place; one
    np.sum over them makes the cost bitwise that of the built coupling."""
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    grid = f.grid
    tables = [(c[:, None] - c[None, :]) ** 2 for c in map(grid.axis_centers, range(grid.dim))]

    def terms(s0, t0, rows, fi, fj, fw):
        lead = np.zeros(len(s0))
        for table, i, j in zip(tables[:-1], np.unravel_index(s0, grid.shape),
                               np.unravel_index(t0, grid.shape)):
            lead = lead + table[i, j]
        return ((np.take(lead, rows) + np.take(tables[-1], fi * grid.cells_per_axis + fj)) * fw,)
    masses = (d.cell_masses().reshape(grid.shape) for d in (f, g))
    return float(_coupling_atoms(*masses, terms)[0].sum())


def check_transport_entropy_sandwich(f: GridDensity, g: GridDensity,
                                     ratio_bound: float) -> list:
    """Three chained reports:

    * exact coupling cost <= discrete triangular coupling cost (the LP is
      seeded with a superset of its atoms, so this is an optimality check of
      the linear program),
    * exact coupling cost <= (40/9) R^2 * entropy,
    * exact triangular-map cost <= (40/9) R^2 * entropy.

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
