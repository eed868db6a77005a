"""Dense references for the solvers in ``functionals``.

``dense_w2`` is the transportation linear program ``exact_w2_small`` solved
before it priced columns: one variable per (source cell, target cell) pair,
n^2 in all. The column-generation solver must reach the same optimal cost,
so the dense LP is kept here as an oracle and nowhere else. It is solved by
interior point with crossover to an optimal vertex, which at these sizes is
about three times faster than the simplex; still, 576 cells take about 6 s
on a 2-core machine, and 1024 cells minutes.

``dense_legendre_tire_bound`` is ``legendre_tire_bound`` before it split the
convex conjugate over last-axis lines: it scores every source cell against
every target cell of the support, O(cells^2) time, in chunks of about 2^22
scores.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from cube_transport.density import DensityError


def dense_w2(a, b, centers):
    """Optimal quadratic cost of moving the cell masses a onto b (equal
    totals), with cell k at centers[k], and the (source, target, weight)
    atoms of an optimal plan."""
    n = len(a)
    cost = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1).reshape(-1)
    var_ids = np.arange(n * n)
    row_constraint = np.repeat(np.arange(n), n)
    col_constraint = n + np.tile(np.arange(n), n)
    # last column constraint is redundant (masses both sum to 1); drop it
    keep = col_constraint < 2 * n - 1
    rows = np.concatenate([row_constraint, col_constraint[keep]])
    cols = np.concatenate([var_ids, var_ids[keep]])
    a_eq = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)),
                             shape=(2 * n - 1, n * n)).tocsr()
    res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([a, b[:-1]]), bounds=(0, None),
                  method="highs-ipm", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    nz = res.x > 1e-15
    return float(res.fun), (var_ids[nz] // n, var_ids[nz] % n, res.x[nz])


def dense_legendre_tire_bound(f, g):
    """The Legendre upper bound of ``legendre_tire_bound``, with phi*(v) the
    max of v.y - phi(y) over every target cell y of the support, plus the
    (h/2)|v|_1 that the cell's best corner adds to its center."""
    if f.grid != g.grid:
        raise DensityError("densities must share the same grid")
    fv = f.require_positive()
    grid = f.grid
    n = grid.dim
    n_cells = grid.n_cells
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
    phi_star += 0.5 * grid.h * np.abs(v_mat).sum(axis=1)
    grads_f = grid.gradient(fv)
    inner = sum(grads_f[k] * centers[:, k].reshape(grid.shape) for k in range(n))
    integrand = fv * phi_star.reshape(grid.shape) + inner - fv * np.log(fv)
    total = float(integrand.sum() * grid.cell_volume)
    return total - f.total_mass * float(np.log(g.total_mass / f.total_mass))
