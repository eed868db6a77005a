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

from .density import (DensityError, GridDensity, _scipy_compiled,
                      check_midpoint_log_concavity)
from .knothe import (QUADRATIC_COST_FACTOR, KnotheMap, displacement_cost, knothe_map,
                     tire_bracket, triangular_coupling, triangular_coupling_cost)
from .reports import VerificationReport, make_report

W2_CELL_LIMIT = 4096
W2_MAX_ROUNDS = 100  # column-generation rounds before giving up on a certificate
W2_PRICING_TOL = 1e-9  # every reduced cost >= -tol certifies the plan optimal
W2_COLUMNS_PER_ROW = 4  # most negative reduced costs added per source cell and round
# the first solve runs the primal simplex up to this many cells and the dual
# beyond: on the benchmark's first 2d pair (2-core x86) the primal took 0.07 s
# at 900 cells against the dual's 0.085 s, and 0.09 s at 1024 cells against 0.07 s
W2_PRIMAL_CELLS = 1000
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
W2_MASS_SCALE = 1e6  # the model's masses total W2_MASS_SCALE / cells (see _transport_model)
LEGENDRE_CELL_LIMIT = 16384


def _highs():
    """scipy's HiGHS binding, loaded on first use and without scipy.optimize:
    importing that package takes about 0.31 s and 46 MB of resident memory,
    the binding alone 4 ms and 3 MB (2-core x86 box, scipy 1.17.1)."""
    try:
        return _scipy_compiled("optimize._highspy._core", "_Highs")
    except ImportError as exc:
        raise ImportError("exact_w2_small needs scipy>=1.15, the first release that "
                          "ships the HiGHS binding scipy.optimize._highspy._core") from exc


class LPRound(NamedTuple):
    """One solve of the transport model."""

    x: np.ndarray  # mass on each column of the model
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
    dual objective by less than the certificate's rounding allowance. On a
    2-core machine the first solve, from the tree basis of ``linprog``,
    takes about 0.03 s at 576 cells and 1.8 s at 4096."""
    highs = _highs()._Highs()
    for key, value in {"output_flag": False, **LP_OPTIONS}.items():
        _checked(highs.setOptionValue(key, value), f"setOptionValue({key!r}, {value!r})")
    none = np.zeros(0, dtype=np.int32)
    rows = b_eq * (W2_MASS_SCALE / ((len(b_eq) + 1) // 2))
    _checked(highs.addRows(len(b_eq), rows, rows, 0, none, none, np.zeros(0)), "addRows")
    return highs


def _tree_basis(i, j, weights, n: int) -> tuple:
    """A basis of the transport model over the columns (i, j): a spanning
    forest of the 2n source and target cells, its edges taken heaviest
    weight first (Kruskal, ties in column order), and one basic row in each
    of its trees but the one that holds the dropped last target row. There
    is more than one tree where zero masses leave cells without columns.
    Returns the masks of the basic columns (len(weights)) and of the basic
    rows (2n - 1). Each tree over a plan's support balances its masses, so
    the slack of its basic row sits at the row's fixed value."""
    parent = list(range(2 * n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    cols = np.zeros(len(weights), dtype=bool)
    ends, joined = np.stack([i, n + j], axis=1).tolist(), 0
    for k in np.argsort(-weights, kind="stable").tolist():
        a, b = map(root, ends[k])
        if a != b:
            parent[a], cols[k] = b, True
            joined += 1
            if joined == 2 * n - 1:
                break
    last = root(2 * n - 1)
    rows = np.array([root(x) == x != last for x in range(2 * n - 1)], dtype=bool)
    return cols, rows


def linprog(c, *, highs, i, j, start=None) -> LPRound:
    """One column-generation round on the HiGHS transport model ``highs``:
    append the columns past those it holds (column k moves mass from source
    cell i[k] to target cell j[k] at cost c[k]) and run the simplex. The
    first round starts from the ``_tree_basis`` of the feasible plan
    ``start``, with the primal simplex up to W2_PRIMAL_CELLS cells and the
    dual beyond; every later round runs the primal simplex from the kept
    basis, which stays primal feasible as columns join. c is the round's
    full cost vector."""
    hs = _highs()
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
        basis, kinds = hs.HighsBasis(), (hs.HighsBasisStatus.kLower, hs.HighsBasisStatus.kBasic)
        basic_cols, basic_rows = _tree_basis(i, j, start, n)
        basis.col_status = [kinds[b] for b in basic_cols.tolist()]
        basis.row_status = [kinds[b] for b in basic_rows.tolist()]
        _checked(highs.setBasis(basis), "setBasis")
    # HiGHS's primal simplex, or its dual
    strategy = 4 if start is None or n <= W2_PRIMAL_CELLS else 1
    _checked(highs.setOptionValue("simplex_strategy", strategy),
             f"setOptionValue('simplex_strategy', {strategy})")
    highs.run()
    status = highs.getModelStatus()
    if status != hs.HighsModelStatus.kOptimal:
        raise RuntimeError(f"transport LP failed: {highs.modelStatusToString(status)}")
    solution, info = highs.getSolution(), highs.getInfo()
    return LPRound(np.array(solution.col_value) / scale, np.array(solution.row_dual),
                   info.simplex_iteration_count)


def relative_entropy(g: GridDensity, f: GridDensity) -> float:
    """integral of g log(g/f); both densities normalized on the same grid.

    Cells where g vanishes contribute zero; a cell with g > 0 but f = 0
    makes the entropy infinite.
    """
    grid = f.require_same_grid(g)
    if not (f.is_normalized() and g.is_normalized()):
        raise DensityError("relative entropy expects normalized densities")
    gv = g.values
    fv = f.values
    if np.any((gv > 0) & (fv <= 0)):
        return float("inf")
    pos = gv > 0
    return float((gv[pos] * np.log(gv[pos] / fv[pos])).sum() * grid.cell_volume)


def _require_log_concave_source(f: GridDensity) -> None:
    ok, worst = check_midpoint_log_concavity(f)
    if not ok:
        raise DensityError(f"source must be midpoint-log-concave (violation {worst:.3g})")


def check_tire_le_entropy(f: GridDensity, g: GridDensity,
                          tmap: KnotheMap = None) -> VerificationReport:
    """Transport lower bound <= relative entropy, for midpoint-log-concave f."""
    _require_log_concave_source(f)
    return make_report("lem-4.1", tire_bracket(f, g, tmap), relative_entropy(g, f), 1.0,
                       grid_m=f.grid.cells_per_axis)


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
    grid = f.require_same_grid(g)
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

    The LP certificate: ``rounds`` of column generation were solved, taking
    ``iterations[r]`` simplex iterations in round r, the
    smallest reduced cost over all cell pairs is ``min_reduced_cost``, and
    ``lower_bound`` (the dual objective, plus that cost when negative, less a
    rounding allowance) is at most the cost of every coupling of the two
    marginals. ``u`` and ``v`` are the duals it is made from, one per source
    and target cell (v[-1] = 0): the reduced cost of moving mass from cell i
    to cell j is |x_i - x_j|^2 - u[i] - v[j]."""

    source_index: np.ndarray
    target_index: np.ndarray
    weights: np.ndarray
    iterations: tuple  # simplex iterations of each round
    min_reduced_cost: float
    lower_bound: float
    u: np.ndarray
    v: np.ndarray

    @property
    def rounds(self) -> int:
        return len(self.iterations)


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
        low = rc.min(axis=1)
        smallest = min(smallest, float(low.min()))
        rows = np.flatnonzero(low < -W2_PRICING_TOL)  # a certifying round has none
        priced = rc[rows]
        cols = np.argpartition(priced, k - 1, axis=1)[:, :k]
        vals = np.take_along_axis(priced, cols, axis=1)
        r, c = np.nonzero(vals < -W2_PRICING_TOL)
        found.append((s + rows[r]) * n + cols[r, c])
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
    the first is that of ``triangular_coupling_cost``). The first solve
    starts from the spanning tree of their mean plan (see ``linprog``); its
    duals price every pair, the most negative reduced costs join the model
    as new columns, the next solve starts from the last basis, and the loop
    stops when no reduced cost is below -W2_PRICING_TOL, which certifies
    the plan optimal, or raises RuntimeError after W2_MAX_ROUNDS. On a
    2-core machine the benchmark's 576-cell pairs take about 0.03 s in one
    round, a 1024-cell pair about 0.1 s, and a 4096-cell pair about 4.5 s
    in five."""
    grid = f.require_same_grid(g)
    n, shape = grid.n_cells, grid.shape
    if n > W2_CELL_LIMIT:
        raise DensityError(f"exact_w2_small is limited to {W2_CELL_LIMIT} cells")
    a, b = f.cell_masses(), g.cell_masses()
    centers = grid.centers()
    seeds = []  # (flat pair indices i * n + j, weights) of each order's coupling
    for order in (np.roll(np.arange(grid.dim), -k) for k in range(grid.dim)):
        # flat[p]: the cell at flat position p of the transposed grid
        flat = np.transpose(np.arange(n).reshape(shape), order).reshape(-1)
        src, tgt, w = triangular_coupling(np.transpose(a.reshape(shape), order),
                                          np.transpose(b.reshape(shape), order))
        seeds.append((flat[src] * n + flat[tgt], w))
    pairs = np.unique(np.concatenate([p for p, _ in seeds]))
    start = sum(np.bincount(np.searchsorted(pairs, p), weights=w, minlength=len(pairs))
                for p, w in seeds) / len(seeds)
    # last target constraint is redundant (masses both sum to 1); drop it, so v[-1] = 0
    highs = _transport_model(np.concatenate([a, b[:-1]]))
    iterations = []
    for _ in range(W2_MAX_ROUNDS):
        i, j = np.divmod(pairs, n)
        moved = ((centers[i] - centers[j]) ** 2).sum(axis=1)
        res = linprog(moved, highs=highs, i=i, j=j, start=None if iterations else start)
        iterations.append(res.nit)
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
    plan = CouplingPlan(i[nz], j[nz], res.x[nz], tuple(iterations), smallest, lower_bound, u, v)
    return float(plan.weights @ moved[nz]), plan


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
    _require_log_concave_source(f)
    m = f.grid.cells_per_axis
    tmap = knothe_map(f, g)
    tri_cost = displacement_cost(tmap, f)
    tri_discrete = triangular_coupling_cost(f, g)
    w2_sq, _ = exact_w2_small(f, g)
    entropy = relative_entropy(g, f)
    return [make_report("sandwich-w2-knothe", w2_sq, tri_discrete, 1.0, grid_m=m)] + [
        make_report(name, lhs, entropy, QUADRATIC_COST_FACTOR * ratio_bound ** 2, grid_m=m)
        for name, lhs in (("thm-4.2", w2_sq), ("sandwich-knothe-entropy", tri_cost))]
