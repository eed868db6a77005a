"""Reproducible grid sampling, and the equicorrelated row sums against an
exact-rejection oracle."""

import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import ks_2samp

import loop_oracles

from cube_transport import (
    DegenerateDensityError,
    EquicorrelatedGaussian,
    ExponentialTilt,
    GridDensity,
    RestrictedGaussian,
    Uniform,
    build_density,
    empirical_marginal_distance,
    equicorrelated_row_sums,
    normalize,
    sample_grid,
    unit_cube_grid,
)
from cube_transport import sampler
from cube_transport.density import DensityError, Grid, cdf_cells, row_cdfs
from cube_transport.sampler import (LOG10_REJECTION_LIMIT, MAX_POINT_BUDGET,
                                    equicorrelated_scale, philox)


# ---------------------------------------------------------------- grid sampler


def test_sample_grid_reproducible():
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    a = sample_grid(d, 1000, seed=42)
    b = sample_grid(d, 1000, seed=42)
    np.testing.assert_array_equal(a.points, b.points)


def test_sample_grid_seed_sensitivity():
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    a = sample_grid(d, 1000, seed=1)
    b = sample_grid(d, 1000, seed=2)
    assert not np.array_equal(a.points, b.points)


def test_sample_grid_stream_is_pinned():
    # first rows drawn from Philox stream (seed, 1, 0) for two densities; a
    # change to the stream or to the order of the draws moves them
    d = build_density(ExponentialTilt((1.5, -0.5)), unit_cube_grid(2, 8))
    np.testing.assert_array_equal(sample_grid(d, 1000, seed=5).points[:4], [
        [0.784339392669067, 0.04972752640437263],
        [0.9481495076357014, 0.3222080356656183],
        [0.7482907259162925, 0.20140550217677933],
        [0.47786769230601917, 0.5299524782175261]])
    gaussian = RestrictedGaussian((0.4, 0.5, 0.6),
                                  ((3.0, 1.0, 0.0), (1.0, 2.0, 0.0), (0.0, 0.0, 1.0)))
    d3 = build_density(gaussian, unit_cube_grid(3, 4))
    np.testing.assert_array_equal(sample_grid(d3, 10, seed=5).points[:3], [
        [0.6374968720004799, 0.22126007859489516, 0.9118696590443939],
        [0.3322472834277682, 0.40845313824566826, 0.33675890636341255],
        [0.2456929324738334, 0.6892482599981359, 0.760458383657427]])


def test_samples_land_in_cube():
    d = build_density(ExponentialTilt((1.5, -0.5)), unit_cube_grid(2, 32))
    batch = sample_grid(d, 20000, seed=7)
    assert batch.points.shape == (20000, 2)
    assert batch.points.min() >= 0.0
    assert batch.points.max() <= 1.0


class _LargestUniform:
    """Stands in for a Philox generator whose every uniform is 1 - 2^-53."""

    def random(self, size):
        return np.full(size, 1.0 - 2.0 ** -53)


@pytest.mark.parametrize("dim,m", [(1, 1024), (2, 1024), (3, 64), (1, 3), (3, 3), (2, 1000)])
def test_largest_uniform_stays_on_cells_of_positive_mass(monkeypatch, dim, m):
    # a row's last cells have no mass, so their CDF entries tie at 1: u just
    # below 1 must take the last cell of positive mass, not a tied cell past
    # it; the jitter rounds cells + u onto the cell's upper node, whose
    # cell_index is the next cell, and the draw must stay below that node
    monkeypatch.setattr(sampler, "philox", lambda *key: _LargestUniform())
    rng = np.random.default_rng([dim, m])
    grid = unit_cube_grid(dim, m)
    vals = rng.uniform(0.1, 1.0, grid.shape)
    for axis in range(dim):
        vals[(slice(None),) * axis + (slice(m - min(3, m - 2), None),)] = 0.0
    d = normalize(GridDensity(grid, vals))
    points = sample_grid(d, 50, seed=0).points
    assert np.all((points >= 0.0) & (points < 1.0))
    cells = tuple(grid.cell_index(points[:, k], k) for k in range(dim))
    assert np.all(d.values[cells] > 0)


@pytest.mark.parametrize("origin, side", [(-1.0, 1.0), (0.7735851535939133, 3.0),
                                          (-1e6, 1e-3)])
def test_largest_uniform_stays_in_its_cell_off_the_unit_cube(monkeypatch, origin, side):
    # with origin -1 the last cell's upper node rounds onto x = 0, and the
    # float just below it, -5e-324, is still in cell 7 by the grid's nodes
    monkeypatch.setattr(sampler, "philox", lambda *key: _LargestUniform())
    grid = Grid(3, 8, [origin] * 3, side)
    d = normalize(GridDensity(grid, np.ones(grid.shape)))
    points = sample_grid(d, 20, seed=0).points
    for k in range(3):
        np.testing.assert_array_equal(grid.cell_index(points[:, k], k), 7)
        assert np.all(points[:, k] < grid.axis_nodes(k)[-1])


def _sparse_density(rng, dim, m):
    """Random values with zero cells and, past the first axis, zero rows."""
    grid = unit_cube_grid(dim, m)
    vals = rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) < 0.6)
    if dim > 1:
        vals.reshape(-1, m)[rng.uniform(size=m ** (dim - 1)) < 0.3] = 0.0
    vals.reshape(-1)[rng.integers(grid.n_cells)] = 1.0
    return normalize(GridDensity(grid, vals))


def test_draw_is_the_exact_inverse_cdf():
    # draw 0's level-1 uniform at seed 0 is u; row 2 of the first axis holds
    # all the mass, and its row CDF entry after cell 0 is c, one ulp above
    # u, so the exact inverse CDF draws cell 0. A search that adds the row
    # index to both sides rounds 2 + u up to 2 + c and draws cell 1
    u = philox(0, 1, 0).random((1, 2))[0, 1]
    assert u == 0.6759717634657245
    c = np.nextafter(u, 1.0)
    grid = unit_cube_grid(2, 4)
    vals = np.zeros(grid.shape)
    vals[2] = [16.0 * c, 16.0 * (1.0 - c), 0.0, 0.0]
    d = GridDensity(grid, vals)
    assert row_cdfs(vals[2])[1] == c
    np.testing.assert_array_equal(grid.cell_index(sample_grid(d, 1, seed=0).points), [[2, 0]])


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [2, 3, 16])
def test_cells_match_the_per_draw_oracle(dim, m):
    rng = np.random.default_rng([dim, m])
    n = 3000 if m ** dim < 1000 else 500
    for seed in range(3):
        d = _sparse_density(rng, dim, m)
        cells = d.grid.cell_index(sample_grid(d, n, seed).points)
        u = philox(seed, 1, 0).random((n, dim))
        np.testing.assert_array_equal(cells, loop_oracles.grid_sample_cells(d, u))
        assert np.all(d.values[tuple(cells.T)] > 0)


@pytest.mark.parametrize("m", [1, 2, 3, 16, 1000])
def test_cdf_cells_matches_per_row_searchsorted(m):
    # the last cell j < m with table[r, j] <= v: ties from zero cells, zero
    # rows (all entries 0), and v on table entries, at 0 and at or near 1
    rng = np.random.default_rng(m)
    vals = rng.uniform(size=(12, m)) * (rng.uniform(size=(12, m)) < 0.5)
    vals[[0, 5]] = 0.0
    table = row_cdfs(vals)
    rows = rng.integers(0, 12, 400)
    v = np.concatenate([[0.0, 1.0 - 2.0 ** -53, 1.0] * 40, table[rows[120:200], m // 2],
                        rng.uniform(size=200)])
    expected = [min(np.searchsorted(table[r], x, side="right") - 1, m - 1)
                for r, x in zip(rows, v)]
    np.testing.assert_array_equal(cdf_cells(table, rows, v), expected)


def test_sampler_peak_memory_at_1024_squared():
    # the 1024^2 row CDF table is 8 MiB and the draws' arrays 0.8 to 1.6 MiB
    # each: the descent holds one table at a time and no copy of it (17 MiB)
    d = build_density(Uniform(), unit_cube_grid(2, 1024))
    tracemalloc.start()
    try:
        sample_grid(d, 100_000, seed=0)
        assert tracemalloc.get_traced_memory()[1] < 25 * 2 ** 20
    finally:
        tracemalloc.stop()


def test_uniform_marginals_pass_ks():
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    n = 200000
    batch = sample_grid(d, n, seed=0)
    assert empirical_marginal_distance(batch, d) <= 2.0 / np.sqrt(n)


def test_tilted_marginals_pass_ks():
    d = build_density(ExponentialTilt((2.0, -1.0)), unit_cube_grid(2, 32))
    n = 100000
    batch = sample_grid(d, n, seed=3)
    assert empirical_marginal_distance(batch, d) <= 2.0 / np.sqrt(n) + 2.0 * d.grid.h


def test_concentrated_density_hits_support():
    # one live column of cells: samples must stay inside it
    grid = unit_cube_grid(2, 8)
    vals = np.zeros(grid.shape)
    vals[3, :] = 1.0
    d = normalize(GridDensity(grid, vals))
    batch = sample_grid(d, 5000, seed=11)
    assert np.all((batch.points[:, 0] >= 3.0 / 8.0) & (batch.points[:, 0] <= 4.0 / 8.0))


def test_cell_frequencies_match_masses():
    rng = np.random.default_rng(13)
    grid = unit_cube_grid(2, 4)
    d = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, grid.shape)))
    n = 200000
    batch = sample_grid(d, n, seed=17)
    idx = grid.cell_index(batch.points)
    flat = idx[:, 0] * 4 + idx[:, 1]
    freq = np.bincount(flat, minlength=16) / n
    masses = (d.values * grid.cell_volume).ravel()
    np.testing.assert_allclose(freq, masses, atol=4.0 / np.sqrt(n))


def test_sample_grid_rejects_unnormalized():
    grid = unit_cube_grid(1, 8)
    d = GridDensity(grid, np.full(8, 3.0))
    with pytest.raises(ValueError):
        sample_grid(d, 100, seed=0)


# ---------------------------------------------------------------- correlated


def test_equicorrelated_scale_formula():
    n = 1024
    assert equicorrelated_scale(n) == pytest.approx(1.0 / (100.0 * np.sqrt(np.log(n))))


# Philox domain of the exact-rejection generator, apart from the program's
# streams (0 suites, 1 grid sampling, 3 row sums)
_DOMAIN_EQUICORRELATED = 2


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


def sample_equicorrelated_cube(n, n_samples, seed):
    """Exact cube rejection, the oracle for the closed-form row sums: the
    first n_samples rows that iter_equicorrelated_cube accepts, and the
    acceptance rate, as (points, rate)."""
    blocks, accepted, candidates = [], 0, 0
    for block, drawn in iter_equicorrelated_cube(n, seed):
        blocks.append(block)
        accepted += len(block)
        candidates += drawn
        if accepted >= n_samples:
            return np.concatenate(blocks)[:n_samples], accepted / candidates


def test_equicorrelated_reproducible():
    a, _ = sample_equicorrelated_cube(128, 2000, seed=9)
    b, _ = sample_equicorrelated_cube(128, 2000, seed=9)
    np.testing.assert_array_equal(a, b)


def test_equicorrelated_inside_cube_and_acceptance():
    batch, rate = sample_equicorrelated_cube(256, 5000, seed=1)
    assert batch.shape == (5000, 256)
    assert np.abs(batch).max() <= 0.5
    # at this scale essentially nothing is rejected
    assert rate > 0.99


def test_equicorrelated_moments():
    n, N = 256, 40000
    batch, _ = sample_equicorrelated_cube(n, N, seed=2)
    scale = equicorrelated_scale(n)
    stds = batch.std(axis=0)
    # per coordinate: std = scale sqrt(2)
    np.testing.assert_allclose(stds, scale * np.sqrt(2.0), rtol=0.05)
    # shared factor makes coordinates positively correlated: cov = scale^2
    c01 = np.cov(batch[:, 0], batch[:, 1])[0, 1]
    assert c01 == pytest.approx(scale**2, rel=0.2)


def test_equicorrelated_row_sum_variance():
    n, N = 512, 30000
    batch, _ = sample_equicorrelated_cube(n, N, seed=3)
    scale = equicorrelated_scale(n)
    sums = batch.sum(axis=1)
    # Var(sum) = scale^2 (n + n^2)
    theory = scale**2 * (n + n**2)
    assert sums.var() == pytest.approx(theory, rel=0.05)


def test_iterator_yields_requested_width():
    it = iter_equicorrelated_cube(64, seed=4)
    accepted, drawn = next(it)
    assert accepted.ndim == 2
    assert accepted.shape[1] == 64
    assert accepted.shape[0] <= drawn
    assert np.abs(accepted).max() <= 0.5


def test_spec_matches_sampler_covariance():
    # the density spec and the sampler describe the same law
    n = 64
    spec = EquicorrelatedGaussian(dim=n)
    inv = np.asarray(spec.inverse_covariance())
    scale = equicorrelated_scale(n)
    cov = scale**2 * (np.eye(n) + np.ones((n, n)))
    np.testing.assert_allclose(inv @ cov, np.eye(n), atol=1e-10)


# ---------------------------------------------------------------- row sums


def test_row_sums_match_summed_cube_points():
    # two normals per row give the law of the sum of n restricted coordinates
    n, N = 128, 20000
    batch, _ = sample_equicorrelated_cube(n, N, seed=6)
    sums, _ = equicorrelated_row_sums(n, N, seed=6)
    assert sums.shape == (N,)
    assert ks_2samp(batch.sum(axis=1), sums).pvalue > 0.01


def test_row_sum_variance_closed_form():
    n, N = 1024, 200000
    sums, _ = equicorrelated_row_sums(n, N, seed=7)
    theory = (1.0 / (100.0 * np.sqrt(np.log(n)))) ** 2 * n * (n + 1)
    # the sample variance has relative standard error sqrt(2 / N) ~ 0.0032
    assert sums.var() == pytest.approx(theory, rel=0.016)


@pytest.mark.parametrize("n", [256, 4096])
def test_row_sum_quantile_matches_closed_form(n):
    N = 200000
    sums, _ = equicorrelated_row_sums(n, N, seed=8)
    t_star = np.sort(sums)[(2 * N) // 3] / np.sqrt(n)
    sd = np.sqrt(n + 1) / (100.0 * np.sqrt(np.log(n)))
    z = NormalDist().inv_cdf(2.0 / 3.0)
    std_error = sd * np.sqrt((2.0 / 9.0) / N) / NormalDist().pdf(z)
    assert abs(t_star - sd * z) <= 5.0 * std_error


def test_row_sums_reproducible_and_certified():
    a, bound_a = equicorrelated_row_sums(512, 5000, seed=9)
    b, bound_b = equicorrelated_row_sums(512, 5000, seed=9)
    np.testing.assert_array_equal(a, b)
    assert bound_a == bound_b < LOG10_REJECTION_LIMIT
    c, _ = equicorrelated_row_sums(512, 5000, seed=10)
    assert not np.array_equal(a, c)


def test_row_sums_budget_guard_allocates_nothing():
    with pytest.raises(DensityError):
        equicorrelated_row_sums(256, MAX_POINT_BUDGET // 2 + 1, seed=0)
    with pytest.raises(DensityError):
        equicorrelated_row_sums((1 << 53) + 1, 1000, seed=0)
    with pytest.raises(DensityError):
        equicorrelated_row_sums(256, 0, seed=0)


def test_row_sums_uncertified_cube_raises(monkeypatch):
    # at scale 0.1 the cube edge is 5 standard deviations from the center,
    # far too close for the rejection bound to stay below 2^-53
    monkeypatch.setattr("cube_transport.sampler.equicorrelated_scale", lambda n: 0.1)
    with pytest.raises(DegenerateDensityError):
        equicorrelated_row_sums(256, 1000, seed=0)
