"""Per-fiber loop references for the batched fiber transport.

These are the loops the library ran before it built, evaluated and coupled
all fibers of a level at once: one 1d CDF match per fiber, one ``np.interp``
per fiber, one northwest coupling per leading atom. The batched code must
reproduce them bit for bit, so they are kept here as oracles and nowhere else.
"""

from dataclasses import dataclass

import numpy as np

from cube_transport.density import DensityError, PositivityError, marginalize_last
from cube_transport.knothe import _multilinear


def northwest_coupling(a, b):
    """Monotone coupling of two 1d mass vectors with equal totals, as
    (source_cells, target_cells, weights)."""
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    edges = np.union1d(ca, cb)
    prev = np.concatenate(([0.0], edges[:-1]))
    w = edges - prev
    mid = (edges + prev) / 2.0
    # mass past a total goes to the last cell of positive mass
    i = np.clip(np.searchsorted(ca, mid, side="left"), 0, np.flatnonzero(a)[-1])
    j = np.clip(np.searchsorted(cb, mid, side="left"), 0, np.flatnonzero(b)[-1])
    keep = w > 0
    return i[keep], j[keep], w[keep]


def triangular_coupling(f_masses, g_masses):
    """Leading marginals coupled recursively, then one northwest coupling of
    the rescaled last-axis fibers per leading atom."""
    if f_masses.ndim == 1:
        return northwest_coupling(f_masses, g_masses)
    m = f_masses.shape[-1]
    lead_i, lead_j, lead_w = triangular_coupling(f_masses.sum(axis=-1),
                                                 g_masses.sum(axis=-1))
    a_rows = f_masses.reshape(-1, m)
    b_rows = g_masses.reshape(-1, m)
    out_i, out_j, out_w = [], [], []
    for bi, bj, bw in zip(lead_i, lead_j, lead_w):
        a_fib = a_rows[bi]
        b_fib = b_rows[bj]
        fi, fj, fw = northwest_coupling(a_fib * (bw / a_fib.sum()),
                                        b_fib * (bw / b_fib.sum()))
        out_i.append(bi * m + fi)
        out_j.append(bj * m + fj)
        out_w.append(fw)
    return (np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w))


def _cdf(values):
    cdf = np.concatenate(([0.0], np.cumsum(values)))
    return cdf / cdf[-1]


def monotone_nodes(f_values, g_values, grid):
    """Node values of the CDF-matching map of one 1d fiber pair."""
    if np.any(f_values <= 0) or np.any(g_values <= 0):
        raise PositivityError("density has zero cells where positivity is required")
    m = grid.cells_per_axis
    nodes = grid.axis_nodes()
    F = _cdf(f_values)
    G = _cdf(g_values)
    j = np.clip(np.searchsorted(G, F, side="right") - 1, 0, m - 1)
    t = nodes[j] + (F - G[j]) / (G[j + 1] - G[j]) * grid.h
    t[0] = nodes[0]
    t[-1] = nodes[-1]
    if np.any(np.diff(t) <= 0):
        raise DensityError("computed map is not strictly increasing; density too degenerate")
    return t


@dataclass
class LoopMap:
    """Base map on the leading coordinates plus one node array per base cell."""

    grid: object
    base: "LoopMap | None"
    fibers: list
    displacement: np.ndarray


def knothe_map(f, g):
    """The triangular map by recursion on the last coordinate, one 1d map per fiber."""
    if np.any(f.values <= 0) or np.any(g.values <= 0):
        raise PositivityError("density has zero cells where positivity is required")
    n = f.grid.dim
    last_grid = f.grid.last_axis_grid()
    if n == 1:
        t = monotone_nodes(f.values, g.values, last_grid)
        disp = 0.5 * (t[:-1] + t[1:]) - last_grid.axis_centers()
        return LoopMap(f.grid, None, [t], disp[:, None])
    base = knothe_map(marginalize_last(f), marginalize_last(g))
    m = f.grid.cells_per_axis
    image_pts = base.grid.centers() + base.displacement.reshape(-1, n - 1)
    target_fibers = _multilinear(g.values, image_pts, f.grid, n - 1)
    src_fibers = f.values.reshape(-1, m)
    disp = np.empty(f.grid.shape + (n,))
    disp[..., : n - 1] = base.displacement.reshape((m,) * (n - 1) + (1, n - 1))
    disp_flat = disp.reshape(-1, m, n)
    fibers = []
    for b in range(src_fibers.shape[0]):
        t = monotone_nodes(src_fibers[b], target_fibers[b], last_grid)
        fibers.append(t)
        disp_flat[b, :, n - 1] = 0.5 * (t[:-1] + t[1:]) - last_grid.axis_centers()
    return LoopMap(f.grid, base, fibers, disp)


def evaluate(tmap, pts):
    """Apply the map to points of shape (N, dim), one ``np.interp`` per fiber."""
    grid = tmap.grid
    last_nodes = grid.last_axis_grid().axis_nodes()
    if grid.dim == 1:
        return np.interp(pts[:, 0], last_nodes, tmap.fibers[0])[:, None]
    base_img = evaluate(tmap.base, pts[:, :-1])
    m = grid.cells_per_axis
    idx_cols = [grid.cell_index(pts[:, k], k) for k in range(grid.dim - 1)]
    flat = np.ravel_multi_index(idx_cols, (m,) * (grid.dim - 1))
    out_last = np.empty(len(pts))
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    uniq, run_starts = np.unique(sorted_flat, return_index=True)
    run_ends = np.append(run_starts[1:], len(sorted_flat))
    for fiber_ix, s, e in zip(uniq, run_starts, run_ends):
        sel = order[s:e]
        out_last[sel] = np.interp(pts[sel, -1], last_nodes, tmap.fibers[fiber_ix])
    return np.column_stack([base_img, out_last])
