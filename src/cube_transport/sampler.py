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

from dataclasses import dataclass

import numpy as np

from .density import (DegenerateDensityError, DensityError, GridDensity,
                      equicorrelated_scale, fingerprint)

# domain 0 holds the CLI suite streams, indexed by the suite label's bytes
_DOMAIN_GRID = 1
_DOMAIN_EQUICORRELATED = 2

MAX_POINT_BUDGET = 1 << 27  # rows * dim guard for materialized batches
SEED_LIMIT = 1 << 64  # seeds fill one 64-bit Philox key word


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


def sample_equicorrelated_cube(n: int, n_samples: int, seed: int):
    """Accepted points from the equicorrelated construction, as
    (SampleBatch, acceptance_rate). Aborts if the acceptance rate drops
    below 1% (the construction is designed to make rejection rare)."""
    if n_samples < 1:
        raise DensityError("n_samples must be >= 1")
    if n_samples * n > MAX_POINT_BUDGET:
        raise DensityError("requested batch exceeds the materialized-point budget")
    blocks = []
    accepted = 0
    candidates = 0
    for block, drawn in iter_equicorrelated_cube(n, seed):
        blocks.append(block)
        accepted += len(block)
        candidates += drawn
        if accepted >= n_samples:
            break
        if candidates >= 10 * default_chunk_rows(n) and accepted < 0.01 * candidates:
            raise DegenerateDensityError(
                f"acceptance rate {accepted / candidates:.4f} below 1%")
    points = np.concatenate(blocks, axis=0)[:n_samples]
    rate = accepted / candidates
    digest = fingerprint({"construction": "equicorrelated_cube", "n": n,
                          "scale": equicorrelated_scale(n)}, b"")
    return SampleBatch(points, int(seed), digest), float(rate)
