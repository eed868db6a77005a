"""Reproducible grid sampling and the correlated high-dim generator."""

from statistics import NormalDist

import numpy as np
import pytest
from scipy.stats import ks_2samp

from cube_transport import (
    DegenerateDensityError,
    EquicorrelatedGaussian,
    ExponentialTilt,
    GridDensity,
    Uniform,
    build_density,
    empirical_marginal_distance,
    equicorrelated_row_sums,
    iter_equicorrelated_cube,
    normalize,
    sample_grid,
    unit_cube_grid,
)
from cube_transport.density import DensityError
from cube_transport.sampler import (LOG10_REJECTION_LIMIT, MAX_POINT_BUDGET,
                                    default_chunk_rows, equicorrelated_scale)


# ---------------------------------------------------------------- grid sampler


def test_sample_grid_reproducible():
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    a = sample_grid(d, 1000, seed=42)
    b = sample_grid(d, 1000, seed=42)
    np.testing.assert_array_equal(a.points, b.points)
    assert a.fingerprint == b.fingerprint


def test_sample_grid_seed_sensitivity():
    d = build_density(Uniform(), unit_cube_grid(2, 16))
    a = sample_grid(d, 1000, seed=1)
    b = sample_grid(d, 1000, seed=2)
    assert not np.array_equal(a.points, b.points)


def test_sample_grid_batches_differ_and_are_stable():
    d = build_density(Uniform(), unit_cube_grid(2, 8))
    a0 = sample_grid(d, 500, seed=5, batch_index=0)
    a1 = sample_grid(d, 500, seed=5, batch_index=1)
    assert not np.array_equal(a0.points, a1.points)
    np.testing.assert_array_equal(a1.points, sample_grid(d, 500, seed=5, batch_index=1).points)


def test_samples_land_in_cube():
    d = build_density(ExponentialTilt((1.5, -0.5)), unit_cube_grid(2, 32))
    batch = sample_grid(d, 20000, seed=7)
    assert batch.points.shape == (20000, 2)
    assert batch.points.min() >= 0.0
    assert batch.points.max() <= 1.0


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


def test_chunk_rows_inverse_in_dim():
    assert default_chunk_rows(64) >= default_chunk_rows(4096)
    assert default_chunk_rows(10 ** 9) == 256


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
