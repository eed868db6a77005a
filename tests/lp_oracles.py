"""Dense transportation LP reference for the column-generation solver.

This is the linear program ``exact_w2_small`` solved before it priced
columns: one variable per (source cell, target cell) pair, n^2 in all. The
column-generation solver must reach the same optimal cost, so the dense LP
is kept here as an oracle and nowhere else. It is solved by interior point
with crossover to an optimal vertex, which at these sizes is about three
times faster than the simplex; still, 576 cells take about 6 s on a 2-core
machine, and 1024 cells minutes.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog


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
