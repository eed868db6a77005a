"""Entropy functionals, a Legendre dual upper bound, and an exact small-scale
quadratic-cost coupling solved as a linear program.

Conventions: densities are piecewise constant on a shared grid; integrals are
cell sums times cell volume; gradients are finite differences (centered
inside, one-sided at the boundary), so all quantities here are exact
statements about the grid data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .density import (DensityError, GridDensity,
                      check_midpoint_log_concavity)
from .knothe import KnotheMap, displacement_cost, knothe_map, tire_bracket
from .reports import VerificationReport, make_report
from .transport1d import QUADRATIC_COST_FACTOR

W2_CELL_LIMIT = 4096
LEGENDRE_CELL_LIMIT = 16384


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
    ``weights[k]`` mass from flat cell ``source_index[k]`` to ``target_index[k]``."""

    source_index: np.ndarray
    target_index: np.ndarray
    weights: np.ndarray
    n_source: int
    n_target: int

    def marginal_error(self, source_masses: np.ndarray, target_masses: np.ndarray) -> float:
        row = np.bincount(self.source_index, weights=self.weights, minlength=self.n_source)
        col = np.bincount(self.target_index, weights=self.weights, minlength=self.n_target)
        return float(max(np.abs(row - source_masses).max(),
                         np.abs(col - target_masses).max()))

    def to_rows(self) -> list:
        return [(int(i), int(j), float(w)) for i, j, w in
                zip(self.source_index, self.target_index, self.weights)]


def exact_w2_small(f: GridDensity, g: GridDensity):
    """Exact squared quadratic-cost distance between the normalized cell
    distributions, via the transportation linear program.

    Returns (squared cost, CouplingPlan). Cell centers carry the cell mass,
    so this is the exact discrete optimum for the center-supported measures
    (an O(h) object against the continuum). Instances near the 4096-cell cap
    take minutes; keep routine use at or below ~1024 cells.
    """
    if not f.grid.matches(g.grid):
        raise DensityError("densities must share the same grid")
    n_cells = f.grid.n_cells
    if n_cells > W2_CELL_LIMIT:
        raise DensityError(f"exact_w2_small is limited to {W2_CELL_LIMIT} cells")
    a = f.cell_masses()
    b = g.cell_masses()
    centers = f.grid.centers()
    diff = centers[:, None, :] - centers[None, :, :]
    cost = (diff ** 2).sum(axis=-1).reshape(-1)
    ns = nt = n_cells
    var_ids = np.arange(ns * nt)
    row_constraint = np.repeat(np.arange(ns), nt)
    col_constraint = ns + np.tile(np.arange(nt), ns)
    # last column constraint is redundant (masses both sum to 1); drop it
    keep = col_constraint < ns + nt - 1
    rows = np.concatenate([row_constraint, col_constraint[keep]])
    cols = np.concatenate([var_ids, var_ids[keep]])
    data = np.ones(len(rows))
    a_eq = sparse.coo_matrix((data, (rows, cols)),
                             shape=(ns + nt - 1, ns * nt)).tocsr()
    b_eq = np.concatenate([a, b[:-1]])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    x = res.x
    nz = x > 1e-15
    plan = CouplingPlan(var_ids[nz] // nt, var_ids[nz] % nt, x[nz], ns, nt)
    return float(res.fun), plan


def _northwest_coupling(a: np.ndarray, b: np.ndarray):
    """Monotone coupling of two 1d mass vectors with equal totals, as
    (source_cells, target_cells, weights). Optimal for convex costs."""
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    edges = np.union1d(ca, cb)
    prev = np.concatenate(([0.0], edges[:-1]))
    w = edges - prev
    mid = (edges + prev) / 2.0
    i = np.clip(np.searchsorted(ca, mid, side="left"), 0, len(a) - 1)
    j = np.clip(np.searchsorted(cb, mid, side="left"), 0, len(b) - 1)
    keep = w > 0
    return i[keep], j[keep], w[keep]


def triangular_coupling(f_masses: np.ndarray, g_masses: np.ndarray):
    """Discrete counterpart of the triangular map: couple the leading-axis
    marginals recursively, then couple conditional last-axis fibers by the
    monotone rule inside each marginal atom. Returns flat-index triples
    (source_cells, target_cells, weights) with exact marginals."""
    if f_masses.ndim == 1:
        return _northwest_coupling(f_masses, g_masses)
    m = f_masses.shape[-1]
    lead_i, lead_j, lead_w = triangular_coupling(f_masses.sum(axis=-1),
                                                 g_masses.sum(axis=-1))
    a_rows = f_masses.reshape(-1, m)
    b_rows = g_masses.reshape(-1, m)
    out_i, out_j, out_w = [], [], []
    for bi, bj, bw in zip(lead_i, lead_j, lead_w):
        a_fib = a_rows[bi]
        b_fib = b_rows[bj]
        fi, fj, fw = _northwest_coupling(a_fib * (bw / a_fib.sum()),
                                         b_fib * (bw / b_fib.sum()))
        out_i.append(bi * m + fi)
        out_j.append(bj * m + fj)
        out_w.append(fw)
    return (np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w))


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
