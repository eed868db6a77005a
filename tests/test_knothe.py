"""Triangular transport on the cube: anchors, structure, pushforward."""

import numpy as np
import pytest

from cube_transport import (
    ConvexPower,
    CustomGrid,
    GridDensity,
    Uniform,
    build_density,
    check_facet_preservation,
    check_theorem31,
    displacement_cost,
    estimate_axis_convexity_ratio,
    knothe_map,
    marginalize_last,
    monotone_map,
    normalize,
    pushforward_error,
    relative_entropy,
    s_integral_nd,
    tire_bracket,
    unit_cube_grid,
)
from cube_transport.families import random_logconcave_spec_nd, random_smooth_density


def product_pair(m=64):
    grid = unit_cube_grid(2, m)
    f = build_density(Uniform(), grid)
    cx = grid.axis_centers(0)
    g = normalize(GridDensity(grid, 4.0 * np.outer(cx, cx)))
    return f, g


# ---------------------------------------------------------------- anchor


def test_product_target_cost():
    # independent coordinates: each axis pays integral (sqrt-x)^2 = 1/30
    f, g = product_pair()
    tmap = knothe_map(f, g)
    cost = displacement_cost(tmap, f)
    assert cost == pytest.approx(2.0 / 30.0, abs=2e-3)


def test_product_target_tire_matches_entropy():
    f, g = product_pair()
    tire = tire_bracket(f, g)
    entropy = relative_entropy(g, f)
    # closed form 2 (log 2 - 1/2); the bracket sits below it
    assert entropy == pytest.approx(2.0 * (np.log(2.0) - 0.5), abs=2e-3)
    assert tire <= entropy + 1e-9
    assert tire == pytest.approx(entropy, abs=2e-2)


def test_product_map_is_coordinatewise():
    # for product densities the triangular map acts independently per axis
    f, g = product_pair(32)
    tmap = knothe_map(f, g)
    pts = np.array([[0.25, 0.25], [0.25, 0.81], [0.7, 0.25]])
    out = tmap.evaluate(pts)
    # the second coordinate map is the 1d monotone map for 2x, T(x) = sqrt(x)
    np.testing.assert_allclose(out[0, 1], 0.5, atol=5e-3)
    # first coordinate of the image depends only on the first input coordinate
    assert out[0, 0] == pytest.approx(out[1, 0], abs=1e-9)
    # second coordinate map is the same on every fiber
    assert out[0, 1] == pytest.approx(out[2, 1], abs=5e-3)


def test_identity_on_equal_densities():
    rng = np.random.default_rng(2)
    grid = unit_cube_grid(2, 16)
    d = normalize(GridDensity(grid, rng.uniform(0.5, 2.0, grid.shape)))
    tmap = knothe_map(d, d)
    assert np.abs(tmap.displacement).max() < 1e-10
    centers = np.stack(np.meshgrid(*[grid.axis_centers(a) for a in range(2)],
                                   indexing="ij"), axis=-1).reshape(-1, 2)
    np.testing.assert_allclose(tmap.evaluate(centers), centers, atol=1e-10)


# ---------------------------------------------------------------- structure


def test_triangular_dependence():
    # leading coordinate of the image never depends on trailing inputs
    rng = np.random.default_rng(7)
    grid = unit_cube_grid(2, 16)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    x1 = rng.uniform(0.05, 0.95)
    pts = np.column_stack([np.full(9, x1), np.linspace(0.05, 0.95, 9)])
    out = tmap.evaluate(pts)
    assert np.ptp(out[:, 0]) < 1e-12
    # and the trailing coordinate is increasing along the fiber
    assert np.all(np.diff(out[:, 1]) > -1e-12)


def test_base_map_is_marginal_map():
    rng = np.random.default_rng(8)
    grid = unit_cube_grid(2, 24)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    fm, gm = marginalize_last(f), marginalize_last(g)
    base = monotone_map(fm, gm)
    centers = fm.grid.axis_centers(0).reshape(-1, 1)
    np.testing.assert_allclose(
        tmap.evaluate(np.column_stack([centers[:, 0], np.full(24, 0.5)]))[:, 0],
        base(centers[:, 0]),
        atol=1e-12,
    )


def test_displacement_shape_and_evaluate_consistency():
    rng = np.random.default_rng(9)
    grid = unit_cube_grid(2, 12)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    assert tmap.displacement.shape == (12, 12, 2)
    centers = np.stack(np.meshgrid(*[grid.axis_centers(a) for a in range(2)],
                                   indexing="ij"), axis=-1)
    out = tmap.evaluate(centers.reshape(-1, 2)).reshape(12, 12, 2)
    np.testing.assert_allclose(out, centers + tmap.displacement, atol=1e-12)


def test_three_dimensional_map_runs():
    rng = np.random.default_rng(10)
    grid = unit_cube_grid(3, 8)
    f = random_smooth_density(rng, grid)
    g = random_smooth_density(rng, grid)
    tmap = knothe_map(f, g)
    assert tmap.dim == 3
    assert tmap.displacement.shape == (8, 8, 8, 3)
    assert check_facet_preservation(tmap).passed
    assert displacement_cost(tmap, f) >= 0.0


# ---------------------------------------------------------------- pushforward


def test_facet_preservation_anchor():
    f, g = product_pair()
    rep = check_facet_preservation(knothe_map(f, g))
    assert rep.passed
    assert rep.lhs == 0.0
    assert rep.rhs == pytest.approx(2.0 / 64.0)


def test_pushforward_marginals_close():
    f, g = product_pair()
    tmap = knothe_map(f, g)
    n = 100000
    err = pushforward_error(tmap, f, g, n_samples=n, seed=0)
    assert err <= 2.0 / np.sqrt(n) + 2.0 * f.grid.h


def test_axis_marginal_cdf_is_cdf():
    rng = np.random.default_rng(12)
    grid = unit_cube_grid(2, 16)
    g = random_smooth_density(rng, grid)
    nodes, cdf = g.marginal_cdf(1)
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.diff(cdf) >= 0.0)
    assert len(nodes) == len(cdf)


# ---------------------------------------------------------------- inequality


def test_theorem_quadratic_bound_anchor():
    f, g = product_pair()
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    rep = check_theorem31(f, g, ratio)
    assert rep.passed
    assert rep.constant_used == pytest.approx(40.0 / 9.0)
    assert rep.lhs == pytest.approx(2.0 / 30.0, abs=2e-3)


@pytest.mark.parametrize("seed", range(5))
def test_theorem_quadratic_bound_random_logconcave(seed):
    rng = np.random.default_rng(100 + seed)
    grid = unit_cube_grid(2, 24)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    rep = check_theorem31(f, g, ratio)
    assert rep.passed


def test_tire_bracket_invariant_under_target_scaling():
    # scaling g by c shifts the raw integral by mass_f log c, and the
    # mass correction removes exactly that shift
    f, g = product_pair(32)
    tmap = knothe_map(f, g)
    raw = s_integral_nd(f, g, tmap)
    tire = tire_bracket(f, g, tmap)
    assert tire == pytest.approx(raw, abs=1e-12)  # both normalized here
    g2 = GridDensity(g.grid, 2.0 * g.values)
    tmap2 = knothe_map(f, g2)
    assert s_integral_nd(f, g2, tmap2) == pytest.approx(raw + np.log(2.0), abs=1e-9)
    assert tire_bracket(f, g2, tmap2) == pytest.approx(tire, abs=1e-9)


def test_tire_bracket_below_entropy_under_refinement():
    for m in (16, 32, 64):
        f, g = product_pair(m)
        tire = tire_bracket(f, g)
        ent = relative_entropy(g, f)
        assert tire <= ent + 1e-9
