"""Loop references for the batched fiber transport and the shortcut scans.

First the triangular coupling one fiber pair at a time, where the library
walks all pairs of a level at once: per leading atom, the monotone coupling
of the normalized fiber CDFs by ``np.union1d`` and ``searchsorted``. Next
to it are the midpoint log-concavity scan over every gap, which the library
now runs only when unit steps find a violation, the axis convexity ratio
scanned at every gap, which the library now prunes by chord bounds on
log-concave lines, and the coupling cost summed over the built atoms, which
the library now sums batch by batch. The library must reproduce them bit
for bit, so they are kept here as oracles and nowhere else.
The triangular map's oracles loop too: one ``monotone_map`` per coupling
atom for each level's cost and deficit, and two ``np.interp`` calls per
point and coordinate for its evaluation; the library's row-batched pieces
must match them to rounding. The grid sampler's oracle draws one point at
a time, one ``np.searchsorted`` per level, and its cells must match the
sampler's exactly.
Then a plain-float walk along the pieces of one 1d monotone map, which
the library's 1d functionals must match to rounding. Last are the field
builders as they were before they read the grid's open centers: every term
evaluated on full coordinate meshes, bit for bit the fields the library
must still build.
"""

import math

import numpy as np

from cube_transport.density import (ConvexPower, CustomGrid, EquicorrelatedGaussian,
                                    ExponentialTilt, Grid, GridDensity, PositivityError,
                                    DensityError, RestrictedGaussian, Uniform,
                                    _midpoint_directions, normalize)
from cube_transport.families import MAX_FREQUENCY
from cube_transport.transport1d import deficit_1d, monotone_map, quadratic_cost_1d


def midpoint_log_concavity(d, tol=1e-9, max_gap=None):
    """(ok, worst) of f(mid)^2 >= f(a) f(b) (1 - tol) over every axis-parallel
    and diagonal cell-center triple whose gap is at most ``max_gap`` (every
    gap when None)."""
    v = d.require_positive()
    m = d.grid.cells_per_axis
    worst = 0.0
    for u in _midpoint_directions(d.grid.dim):
        t = 1
        while 2 * t < m and (max_gap is None or t <= max_gap):
            s = tuple(t * c for c in u)
            mid_ix = tuple(slice(abs(c), m - abs(c)) for c in s)
            lo_ix = tuple(slice(abs(c) - c, m - abs(c) - c) for c in s)
            hi_ix = tuple(slice(abs(c) + c, m - abs(c) + c) for c in s)
            mid, lo, hi = v[mid_ix], v[lo_ix], v[hi_ix]
            ratio = float((mid * mid / (lo * hi)).min())
            worst = max(worst, 1.0 - ratio)
            t += 1
    return worst <= tol, worst


def axis_convexity_ratio(d):
    """max(1, 2 f(mid) / (f(a) + f(b))) over every axis-parallel cell-center
    triple, scanned gap by gap over all lines of an axis at once."""
    v = d.require_positive()
    m = d.grid.cells_per_axis
    best = 1.0
    for axis in range(d.grid.dim):
        lines = np.moveaxis(v, axis, -1).reshape(-1, m)
        for half in range(1, (m + 1) // 2):  # triples at gap 2 * half
            ends = lines[:, :m - 2 * half] + lines[:, 2 * half:]
            best = max(best, float((2.0 * lines[:, half:m - half] / ends).max()))
    return best


def triangular_coupling_cost(f, g):
    """Quadratic cost of the triangular coupling, from its built atoms."""
    i, j, w = triangular_coupling(f.cell_masses().reshape(f.grid.shape),
                                  g.cell_masses().reshape(g.grid.shape))
    centers = f.grid.centers()
    sq = ((centers[i] - centers[j]) ** 2).sum(axis=1)
    return float((sq * w).sum())


def _cdf(values):
    cdf = np.concatenate(([0.0], np.cumsum(values)))
    return cdf / cdf[-1]


def fiber_coupling(a, b, weight):
    """Monotone coupling at total mass ``weight`` of two 1d mass vectors, as
    (source_cells, target_cells, weights): between consecutive levels of
    either normalized CDF, the cells whose CDF entry is the last at most the
    lower level, with weight times the level gap."""
    F, G = _cdf(a), _cdf(b)
    levels = np.union1d(F, G)
    du = np.diff(levels)
    i = np.searchsorted(F, levels[:-1], side="right") - 1
    j = np.searchsorted(G, levels[:-1], side="right") - 1
    keep = du > 0
    return i[keep], j[keep], weight * du[keep]


def triangular_coupling(f_masses, g_masses):
    """Leading marginals coupled recursively, then one monotone coupling of
    the last-axis fibers per leading atom, at the atom's mass; the axis-0
    marginals at their own total."""
    if f_masses.ndim == 1:
        return fiber_coupling(f_masses, g_masses, f_masses.sum())
    m = f_masses.shape[-1]
    lead_i, lead_j, lead_w = triangular_coupling(f_masses.sum(axis=-1),
                                                 g_masses.sum(axis=-1))
    a_rows = f_masses.reshape(-1, m)
    b_rows = g_masses.reshape(-1, m)
    out_i, out_j, out_w = [], [], []
    for bi, bj, bw in zip(lead_i, lead_j, lead_w):
        fi, fj, fw = fiber_coupling(a_rows[bi], b_rows[bj], bw)
        out_i.append(bi * m + fi)
        out_j.append(bj * m + fj)
        out_w.append(fw)
    return (np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w))


def _marginal_rows(d, k):
    """Rows, one per cell of the first k axes, of d's (k+1)-axis marginal."""
    m = d.grid.cells_per_axis
    return d.values.reshape(m ** (k + 1), -1).sum(axis=1).reshape(-1, m)


def knothe_levels(f, g):
    """Per level k, the normalized quadratic cost and deficit of the
    triangular map: one ``monotone_map`` per atom (i, j, w) of the triangular
    coupling of the first k axes, from row i of f's (k+1)-axis marginal onto
    row j of g's, its ``quadratic_cost_1d`` and ``deficit_1d`` weighted by w."""
    if np.any(f.values <= 0) or np.any(g.values <= 0):
        raise PositivityError("density has zero cells where positivity is required")
    n, m = f.grid.dim, f.grid.cells_per_axis
    costs, deficits = np.zeros(n), np.zeros(n)
    for k in range(n):
        line = Grid(1, m)
        if k == 0:
            atoms = [(0, 0, 1.0)]
        else:
            lead = [d.cell_masses().reshape(m ** k, -1).sum(axis=1).reshape((m,) * k)
                    for d in (f, g)]
            atoms = zip(*triangular_coupling(*lead))
        f_rows, g_rows = _marginal_rows(f, k), _marginal_rows(g, k)
        for i, j, w in atoms:
            fi, gj = GridDensity(line, f_rows[i]), GridDensity(line, g_rows[j])
            tmap = monotone_map(fi, gj)
            costs[k] += w * quadratic_cost_1d(fi, tmap) / fi.total_mass
            deficits[k] += w * deficit_1d(fi, gj, tmap) / fi.total_mass
    return costs, deficits


def knothe_evaluate(f, g, pts):
    """The triangular map at each point, one point and one coordinate at a
    time: coordinate k goes to G_s^-1(F_r(x_k)) by two ``np.interp`` calls,
    F_r the CDF of f's (k+1)-axis marginal above the point's cell r of the
    first k axes, G_s that of g's above the cell s its image lies in."""
    n, m = f.grid.dim, f.grid.cells_per_axis
    F = [[_cdf(row) for row in _marginal_rows(f, k)] for k in range(n)]
    G = [[_cdf(row) for row in _marginal_rows(g, k)] for k in range(n)]
    out = np.empty((len(pts), n))
    for p, x in enumerate(pts):
        r = s = 0
        for k in range(n):
            nodes = f.grid.axis_nodes(k)
            u = np.interp(x[k], nodes, F[k][r])
            out[p, k] = np.interp(u, G[k][s], nodes)
            r = r * m + min(max(int(np.searchsorted(nodes, x[k], side="right")) - 1, 0), m - 1)
            s = s * m + min(int(np.searchsorted(G[k][s], u, side="right")) - 1, m - 1)
    return out


def grid_sample_cells(d, u):
    """Cells of the grid sampler's draws from their cell uniforms u, shape
    (N, dim), one draw and one level at a time: cell k is the last entry of
    the row CDF at most u[k], ``np.searchsorted`` on the row of d's
    (k+1)-axis marginal above the cells already drawn."""
    n, m = d.grid.dim, d.grid.cells_per_axis
    rows = [_marginal_rows(d, k) for k in range(n)]
    cells = np.empty(u.shape, dtype=np.intp)
    for p, draw in enumerate(u):
        r = 0
        for k in range(n):
            cells[p, k] = np.searchsorted(_cdf(rows[k][r]), draw[k], side="right") - 1
            r = r * m + cells[p, k]
    return cells


def monotone_map_integrals(f_values, g_values, grid):
    """(deficit, quadratic cost, mixed cost of T' - 1), each integrated
    against f, of the monotone map between two positive 1d densities.

    Walks the normalized CDFs F and G breakpoint by breakpoint. Between two
    breakpoints the source cell i and the target cell j are fixed, so T is
    linear there with slope (F[i+1] - F[i]) / (G[j+1] - G[j]).
    """
    f = [float(v) for v in f_values]
    g = [float(v) for v in g_values]
    m, h = len(f), grid.h
    nodes = [float(x) for x in grid.axis_nodes(0)]

    def cdf(values):
        out, s = [0.0], 0.0
        for v in values:
            s += v
            out.append(s)
        return [c / s for c in out]

    def position(C, k, u):
        return nodes[k] + (u - C[k]) / (C[k + 1] - C[k]) * h

    F, G = cdf(f), cdf(g)
    i = j = 0
    u = d0 = 0.0
    deficit = cost = mixed = 0.0
    while i < m and j < m:
        nxt = min(F[i + 1], G[j + 1])
        du = nxt - u
        r = (F[i + 1] - F[i]) / (G[j + 1] - G[j])
        i += F[i + 1] == nxt
        j += G[j + 1] == nxt
        d1 = position(G, min(j, m - 1), nxt) - position(F, min(i, m - 1), nxt)
        deficit += du * (r - 1.0 - math.log(r))
        cost += du * ((d0 * d0 + d0 * d1 + d1 * d1) / 3.0)
        mixed += du * min(abs(r - 1.0), (r - 1.0) ** 2)
        u, d0 = nxt, d1
    mass = sum(f) * h
    return mass * deficit, mass * cost, mass * mixed


def full_mesh(grid):
    return np.meshgrid(*[grid.axis_centers(k) for k in range(grid.dim)], indexing="ij")


def exact_shape(values, shape):
    """values as a float array, or DensityError unless its shape is shape."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != shape:
        raise DensityError(f"shape {arr.shape}, not {shape}")
    return arr


def build_density(spec, grid):
    """Cell-center values of a density spec from full meshes, normalized."""
    mesh = full_mesh(grid)
    if isinstance(spec, Uniform):
        vals = np.ones(grid.shape)
    elif isinstance(spec, RestrictedGaussian):
        c = exact_shape(spec.center, (grid.dim,))
        a = exact_shape(spec.inverse_covariance, (grid.dim, grid.dim))
        vals = gaussian_values(mesh, c, a)
    elif isinstance(spec, EquicorrelatedGaussian):
        vals = gaussian_values(mesh, np.full(grid.dim, 0.5), spec.inverse_covariance(grid.dim))
    elif isinstance(spec, ExponentialTilt):
        tilt = exact_shape(spec.tilt, (grid.dim,))
        lin = sum(tilt[k] * mesh[k] for k in range(grid.dim))
        vals = np.exp(lin - lin.max())
    elif isinstance(spec, ConvexPower):
        v = exact_shape(spec.direction, (grid.dim,))
        lin = spec.offset + sum(v[k] * mesh[k] for k in range(grid.dim))
        vals = lin ** float(spec.power)
    elif isinstance(spec, CustomGrid):
        vals = exact_shape(spec.values, grid.shape)
    return normalize(GridDensity(grid, vals))


def gaussian_values(mesh, center, inv_cov):
    dim = len(mesh)
    delta = [mesh[k] - center[k] for k in range(dim)]
    quad = np.zeros_like(mesh[0])
    for i in range(dim):
        for j in range(dim):
            if inv_cov[i, j] != 0.0:
                quad = quad + inv_cov[i, j] * delta[i] * delta[j]
    return np.exp(-(quad - quad.min()) / 2.0)


def mode_field(coeffs, grid, omega):
    """Sum of a sin(omega k x_i) + b cos(omega k x_i) on full meshes."""
    mesh = full_mesh(grid)
    out = np.zeros(grid.shape)
    for axis in range(grid.dim):
        x = mesh[axis]
        for k in range(1, MAX_FREQUENCY + 1):
            a, b = coeffs[axis, k - 1]
            out = out + a * np.sin(omega * k * x) + b * np.cos(omega * k * x)
    return out


def linear_product_target(grid):
    """prod_i 2 x_i on full meshes, normalized."""
    mesh = full_mesh(grid)
    vals = np.ones(grid.shape)
    for axis in range(grid.dim):
        vals = vals * 2.0 * mesh[axis]
    return normalize(GridDensity(grid, vals))
