"""Reproducible sampling from grid densities and from the equicorrelated
Gaussian construction.

Each sampler reads one counter-based Philox stream, keyed by (seed, domain
tag, 0), from its start, so equal arguments give bit-for-bit equal draws.

Grid sampling is exact for the piecewise-constant density: cells are drawn
coordinate by coordinate by inverting the row CDF tables of the density's
marginals, the tables and the search the triangular map evaluates with,
then a uniform jitter places the point inside the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (DegenerateDensityError, DensityError, GridDensity, _marginals,
                      cdf_cells, equicorrelated_scale, row_cdfs)

# domain 0 holds the CLI suites (by label bytes), domain 2 the tests' rejection oracle
_DOMAIN_GRID = 1
_DOMAIN_ROW_SUMS = 3

MAX_POINT_BUDGET = 1 << 27  # rows * dim guard for materialized batches
SEED_LIMIT = 1 << 64  # seeds fill one 64-bit Philox key word
# a per-row rejection chance below 2^-53 cannot move a 53-bit uniform
LOG10_REJECTION_LIMIT = -53 * math.log10(2.0)


def philox(seed: int, domain: int, index: int) -> np.random.Generator:
    """Generator on the Philox stream keyed by [seed, domain << 48 | index]."""
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise DensityError(f"seed must be in [0, 2^64), got {seed}")
    key = np.array([seed, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Points of shape (N, dim) drawn from a grid density."""

    points: np.ndarray


def sample_grid(d: GridDensity, n_samples: int, seed: int) -> SampleBatch:
    """Draw n_samples points from a normalized grid density.

    Sequential conditional sampling: cell k is the exact inverse CDF, by
    ``cdf_cells``, of a uniform under the row of the (k+1)-axis marginal's
    ``row_cdfs`` table above the cells already chosen. The search lands
    only on cells of positive mass; a uniform jitter then places the point
    inside its cell: origin + (cell + u) h rounds onto the cell's nodes at
    worst, never below its lower node, and a draw on its upper node is
    moved to the float just below it, so ``grid.cell_index`` of every draw
    is the cell it was drawn in.
    """
    if n_samples < 1:
        raise DensityError("n_samples must be >= 1")
    if not d.is_normalized(tol=1e-6):
        raise DensityError("sample_grid expects a normalized density")
    grid = d.grid
    n, m = grid.dim, grid.cells_per_axis
    if n_samples * n > MAX_POINT_BUDGET:
        raise DensityError("requested batch exceeds the materialized-point budget")
    rng = philox(seed, _DOMAIN_GRID, 0)
    u_cell = rng.random((n_samples, n))
    u_jit = rng.random((n_samples, n))
    cells = np.empty((n_samples, n), dtype=np.intp)
    prefix = np.zeros(n_samples, dtype=np.intp)
    for k, marginal in enumerate(_marginals(d.values)):
        cells[:, k] = cdf_cells(row_cdfs(marginal), prefix, u_cell[:, k])
        prefix = prefix * m + cells[:, k]
    # origin + (cells + u) h, in the jitter's buffer: one (N, dim) array fewer
    points = np.add(u_jit, cells, out=u_jit)
    points *= grid.h
    points += grid.origin
    for k, x in enumerate(points.T):
        # each rounding is monotone, so x lies between its cell's nodes; it
        # reaches the upper one when cells + u rounds up to cells + 1
        below_top = np.nextafter(grid.axis_nodes(k)[1:], -np.inf)
        np.minimum(x, below_top[cells[:, k]], out=x)
    return SampleBatch(points)


def empirical_marginal_distance(points, d: GridDensity) -> float:
    """Largest per-axis KS distance between a sample (a SampleBatch or an
    (N, dim) array) and the exact marginals of d."""
    pts = points.points if isinstance(points, SampleBatch) else np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != d.grid.dim:
        raise DensityError("sample dimension does not match the density")
    n = len(pts)
    i = np.arange(1, n + 1)
    worst = 0.0
    for axis in range(d.grid.dim):
        c = np.interp(np.sort(pts[:, axis]), *d.marginal_cdf(axis))
        worst = max(worst, float(max((i / n - c).max(), (c - (i - 1) / n).max())))
    return worst


# ---------------------------------------------------------------------------
# equicorrelated Gaussian on the centered cube


def equicorrelated_row_sums(n: int, n_samples: int, seed: int):
    """Row sums of n_samples draws of the equicorrelated construction in
    dimension n, from two normals per row, as (sums, rejection_log10_bound).

    A row is s (Z_i + Z_0), i = 1..n, so its sum is s (T + n Z_0) with
    T = sum Z_i, drawn as sqrt(n) Z'. The cube restriction is certified
    instead of tested: given (Z_0, T), each Z_i is N(T/n, 1 - 1/n), so the
    chance that exact rejection would drop the row is at most
    2n Phi(-(0.5/s - |Z_0| - |T|/n) / sqrt(1 - 1/n)). The largest bound over
    the rows, the one at the smallest margin, is returned as a log10; unless
    it is below 2^-53, where a 53-bit uniform never rejects, the call raises
    DegenerateDensityError.

    Every n reads the same Philox stream, so the draws at different n are
    common random numbers: their sampling errors move together, and a slope
    fitted across n keeps little of their noise.
    """
    if n_samples < 1:
        raise DensityError("n_samples must be >= 1")
    if n_samples * 2 > MAX_POINT_BUDGET:
        raise DensityError("requested batch exceeds the materialized-point budget")
    if n > 1 << 53:
        raise DensityError(f"row sums need n <= 2^53, where floats are exact; got {n}")
    from scipy.special import log_ndtr  # imported here: scipy.special is slow to import

    rng = philox(seed, _DOMAIN_ROW_SUMS, 0)
    scale = equicorrelated_scale(n)
    z = rng.standard_normal((n_samples, 2))
    z0 = z[:, 0]
    t = math.sqrt(n) * z[:, 1]
    sums = scale * (t + n * z0)
    margin = float((0.5 / scale - np.abs(z0) - np.abs(t) / n).min())
    log10_bound = float((math.log(2 * n) + log_ndtr(-margin / math.sqrt(1.0 - 1.0 / n)))
                        / math.log(10.0))
    if not log10_bound < LOG10_REJECTION_LIMIT:
        raise DegenerateDensityError(
            f"cube restriction not certified at n={n}: rejection bound "
            f"10^{log10_bound:.2f} is not below 2^-53")
    return sums, log10_bound
