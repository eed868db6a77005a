"""Reproducible sampling from grid densities and from the equicorrelated
Gaussian construction.

All randomness comes from counter-based Philox streams keyed by
(seed, domain tag, batch/chunk index), so any batch can be regenerated
bit-for-bit in isolation and results do not depend on how work is split.

Grid sampling is exact for the piecewise-constant density: cells are drawn
coordinate by coordinate through conditional CDF tables, then a uniform
jitter places the point inside the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import (DegenerateDensityError, DensityError, GridDensity,
                      equicorrelated_scale, fingerprint)

# domain 0 holds the CLI suite streams, indexed by the suite label's bytes
_DOMAIN_GRID = 1
_DOMAIN_EQUICORRELATED = 2
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
    """Points of shape (N, dim) plus the seed and a fingerprint of the
    distribution they were drawn from."""

    points: np.ndarray
    seed: int
    fingerprint: str


def sample_grid(d: GridDensity, n_samples: int, seed: int,
                batch_index: int = 0) -> SampleBatch:
    """Draw n_samples points from a normalized grid density.

    Sequential conditional sampling: coordinate k is drawn from its exact
    conditional distribution given the cells already chosen, via one
    searchsorted against an offset-stacked CDF table per axis.
    """
    if n_samples < 1:
        raise DensityError("n_samples must be >= 1")
    if not d.is_normalized(tol=1e-6):
        raise DensityError("sample_grid expects a normalized density")
    grid = d.grid
    n, m = grid.dim, grid.cells_per_axis
    if n_samples * n > MAX_POINT_BUDGET:
        raise DensityError("requested batch exceeds the materialized-point budget")
    # tail[k] = values summed over axes > k, shape (m,)*(k+1)
    tail = [None] * n
    tail[n - 1] = d.values
    for k in range(n - 2, -1, -1):
        tail[k] = tail[k + 1].sum(axis=-1)
    rng = philox(seed, _DOMAIN_GRID, batch_index)
    u_cell = rng.random((n_samples, n))
    u_jit = rng.random((n_samples, n))
    cells = np.empty((n_samples, n), dtype=np.int64)
    first = np.cumsum(tail[0])
    cells[:, 0] = np.clip(np.searchsorted(first, u_cell[:, 0] * first[-1],
                                          side="right"), 0, m - 1)
    prefix = cells[:, 0].copy()
    for k in range(1, n):
        rows = tail[k].reshape(-1, m)
        row_cdf = np.cumsum(rows, axis=1)
        totals = row_cdf[:, -1:]
        with np.errstate(invalid="ignore", divide="ignore"):
            row_cdf = np.where(totals > 0, row_cdf / totals, 1.0)
        stacked = (row_cdf + np.arange(rows.shape[0])[:, None]).reshape(-1)
        pos = np.searchsorted(stacked, prefix + u_cell[:, k], side="right")
        cells[:, k] = pos - prefix * m
        prefix = prefix * m + cells[:, k]
    points = grid.origin + (cells + u_jit) * grid.h
    return SampleBatch(points, int(seed), fingerprint(grid.to_dict(), d.values.tobytes()))


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


def default_chunk_rows(n: int) -> int:
    # fixed formula: the chunk layout must not depend on caller preferences,
    # or substreams would stop being reproducible
    return max(256, (1 << 22) // n)


def iter_equicorrelated_cube(n: int, seed: int):
    """Yield (accepted_points_block, candidates_drawn) forever.

    Each coordinate is scale * (Z_i + Z_0) for a shared Z_0, i.e. a Gaussian
    vector with covariance scale^2 (Id + ones); draws outside the centered
    unit cube are rejected. Chunk c uses the Philox substream
    (seed, chunk domain, c), so consumers may stop at any point and later
    reproduce the exact same stream.
    """
    scale = equicorrelated_scale(n)
    rows = default_chunk_rows(n)
    chunk = 0
    while True:
        rng = philox(seed, _DOMAIN_EQUICORRELATED, chunk)
        z = rng.standard_normal((rows, n + 1))
        y = (z[:, 1:] + z[:, :1]) * scale
        inside = np.abs(y).max(axis=1) <= 0.5
        yield y[inside], rows
        chunk += 1


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
