"""Monotone rearrangement on an interval: exactness, costs, inequality checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles

from cube_transport import (
    ConvexPower,
    DensityError,
    ExponentialTilt,
    GridDensity,
    PositivityError,
    RestrictedGaussian,
    Uniform,
    build_density,
    check_cheeger_lambda,
    check_lemma_lambda,
    check_prop_quadratic,
    check_segment_bound,
    displacement_cost,
    estimate_axis_convexity_ratio,
    knothe_map,
    log_gap,
    mixed_cost,
    monotone_map,
    normalize,
    relative_entropy,
    tire_bracket,
    unit_cube_grid,
)
from cube_transport import knothe
from cube_transport.families import random_logconcave_spec_1d, random_node_test_function
from cube_transport.transport1d import (
    GRADIENT_ENERGY_FACTOR,
    LOG_GAP_SLOPE,
    MIXED_COST_FACTOR,
    QUADRATIC_COST_FACTOR,
    SEGMENT_FACTOR,
)


M = 1024


def uniform_1d(m=M):
    return build_density(Uniform(), unit_cube_grid(1, m))


def linear_1d(m=M):
    # density 2x on [0, 1]
    return build_density(ConvexPower(0.0, (2.0,), 1.0), unit_cube_grid(1, m))


def at(tmap, x):
    """The 1d map at the points x."""
    return tmap.evaluate(np.reshape(x, (-1, 1)))[:, 0]


def level0_pieces(tmap):
    """(lower end x, slope T') of each piece of a 1d map, from its CDF tables."""
    grid = tmap.grid
    _, _, _, _, slope, x, _, _ = knothe._pieces(tmap.source_cdfs[0], tmap.target_cdfs[0],
                                                grid.axis_nodes(0), grid.h)
    return x, slope


# ---------------------------------------------------------------- constants


def test_paper_constants():
    assert QUADRATIC_COST_FACTOR == pytest.approx(40.0 / 9.0)
    assert MIXED_COST_FACTOR == pytest.approx(10.0 / 3.0)
    assert LOG_GAP_SLOPE == 0.3
    assert SEGMENT_FACTOR == 0.5
    assert GRADIENT_ENERGY_FACTOR == pytest.approx(4.0 / 3.0)


def test_mixed_cost_closed_form():
    t = np.array([-2.0, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0])
    expected = np.minimum(np.abs(t), t * t)
    np.testing.assert_allclose(mixed_cost(t), expected, rtol=1e-15)


def test_log_gap_nonnegative_and_anchored():
    # gap(x) = x - 1 - log x - 0.3 (x - 1)^2 / (1 + max(x-1, 0))  style check:
    # the implementation promises gap >= 0 with equality only at x = 1
    xs = np.logspace(-3, 3, 10001)
    gaps = log_gap(xs)
    assert np.all(gaps >= -1e-12)
    assert log_gap(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert log_gap(np.array([2.0]))[0] == pytest.approx(1.0 - np.log(2.0) - 0.3, abs=1e-12)


# ---------------------------------------------------------------- anchor map


def test_uniform_to_linear_map_nodes():
    # target 2x has CDF x^2, so T(x) = sqrt(x)
    f, g = uniform_1d(), linear_1d()
    tmap = monotone_map(f, g)
    nodes = f.grid.axis_nodes(0)
    # node CDFs are exact here, so the only error is the in-cell
    # linearization of the target CDF, h^2 / (8 s) at image point s
    np.testing.assert_allclose(at(tmap, nodes), np.sqrt(nodes), atol=1e-5)
    assert at(tmap, nodes)[0] == 0.0
    assert at(tmap, nodes)[-1] == 1.0
    assert at(tmap, [0.25])[0] == pytest.approx(0.5, abs=1e-3)


def test_uniform_to_linear_cost_and_deficit():
    f, g = uniform_1d(), linear_1d()
    tmap = monotone_map(f, g)
    cost = displacement_cost(tmap, f)
    # integral (sqrt(x) - x)^2 dx = 1/30
    assert cost == pytest.approx(1.0 / 30.0, abs=1e-3)
    deficit = tire_bracket(f, g, tmap)
    entropy = relative_entropy(g, f)
    # closed form: integral 2x log(2x) dx = log 2 - 1/2
    assert entropy == pytest.approx(np.log(2.0) - 0.5, abs=1e-3)
    assert deficit == pytest.approx(entropy, abs=1e-3)


def test_map_derivative_matches_analytic():
    f, g = uniform_1d(), linear_1d()
    tmap = monotone_map(f, g)
    x, slope = level0_pieces(tmap)
    mid = 0.5 * (x + np.append(x[1:], 1.0))
    # T'(x) = 1 / (2 sqrt(x)); the map of the cell densities has slope
    # 1 / (2 y) on the target cell centred at y, which is off by O(h / y)
    # near the origin, so compare past the first cells
    past = mid > 8.0 / M
    np.testing.assert_allclose(slope[past], 0.5 / np.sqrt(mid[past]), rtol=5e-3)
    assert np.all(slope > 0.0)


def test_uniform_source_deficit_is_relative_entropy():
    # with f uniform, sum du (r - 1) = 0 and -sum du log r = D(g || f)
    rng = np.random.default_rng(5)
    for m in (1, 7, 64, 1024):
        f = uniform_1d(m)
        g = normalize(GridDensity(f.grid, rng.uniform(0.1, 3.0, m)))
        assert tire_bracket(f, g, monotone_map(f, g)) == pytest.approx(
            relative_entropy(g, f), rel=1e-12, abs=0.0)


def test_functionals_vanish_exactly_for_equal_densities():
    rng = np.random.default_rng(6)
    grid = unit_cube_grid(1, 100)
    for d in (GridDensity(grid, rng.uniform(0.01, 5.0, 100)),
              build_density(RestrictedGaussian((0.3,), ((6.0,),)), grid)):
        tmap = monotone_map(d, d)
        assert np.all(level0_pieces(tmap)[1] == 1.0)
        assert tire_bracket(d, d, tmap) == 0.0
        assert displacement_cost(tmap, d) == 0.0
        assert check_lemma_lambda(d, d, tmap).lhs == 0.0


def test_identity_map_for_equal_densities():
    d = build_density(ExponentialTilt((1.1,)), unit_cube_grid(1, 256))
    tmap = monotone_map(d, d)
    nodes = d.grid.axis_nodes(0)
    np.testing.assert_allclose(at(tmap, nodes), nodes, atol=1e-12)
    assert displacement_cost(tmap, d) == pytest.approx(0.0, abs=1e-15)
    assert tire_bracket(d, d, tmap) == pytest.approx(0.0, abs=1e-10)


def test_map_is_strictly_increasing():
    rng = np.random.default_rng(17)
    grid = unit_cube_grid(1, 128)
    f = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, 128)))
    g = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, 128)))
    tmap = monotone_map(f, g)
    assert np.all(np.diff(at(tmap, grid.axis_nodes(0))) > 0)


@pytest.mark.parametrize("light", [1, 3])
def test_degenerate_or_vanishing_source_raises(light):
    # a cell too light to move the CDF, so two source nodes would share one
    # image; in the last cell, with no 0/0 warning on the way
    grid = unit_cube_grid(1, 4)
    uniform = build_density(Uniform(), grid)
    values = np.ones(4)
    values[light] = 1e-300
    with pytest.raises(DensityError, match="not strictly increasing"):
        monotone_map(GridDensity(grid, values), uniform)
    with pytest.raises(PositivityError):
        monotone_map(GridDensity(grid, np.array([1.0, 0.0, 1.0, 1.0])), uniform)


@pytest.mark.parametrize("light", [1, 3])
def test_target_cell_too_light_to_move_its_cdf_raises(light):
    # the map would jump over the cell: with g = [1, 1e-300, 1, 1] a piece
    # had T-slope 3.75 where its slope read 0.75; in the last cell, 1.75
    grid = unit_cube_grid(1, 4)
    values = np.ones(4)
    values[light] = 1e-300
    with pytest.raises(DensityError, match="not strictly increasing"):
        monotone_map(build_density(Uniform(), grid), GridDensity(grid, values))


def test_pushforward_cdf_matches_target():
    # F(x) = G(T(x)) at the nodes, by construction
    rng = np.random.default_rng(23)
    grid = unit_cube_grid(1, 200)
    f = normalize(GridDensity(grid, rng.uniform(0.5, 1.5, 200)))
    g = normalize(GridDensity(grid, rng.uniform(0.5, 1.5, 200)))
    tmap = monotone_map(f, g)
    h = grid.h
    F = np.concatenate([[0.0], np.cumsum(f.values) * h]) / f.total_mass
    tv = at(tmap, grid.axis_nodes(0))
    # evaluate G at the image nodes by linear interpolation of the target CDF
    Gn = np.concatenate([[0.0], np.cumsum(g.values) * h]) / g.total_mass
    G = np.interp(tv, grid.axis_nodes(0), Gn)
    np.testing.assert_allclose(G, F, atol=1e-10)


# ---------------------------------------------------------------- inequalities


def test_quadratic_inequality_uniform_to_linear():
    f, g = uniform_1d(), linear_1d()
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    rep = check_prop_quadratic(f, g, ratio, monotone_map(f, g))
    assert rep.passed
    assert rep.constant_used == pytest.approx(40.0 / 9.0)
    assert rep.lhs == pytest.approx(1.0 / 30.0, abs=1e-3)


def test_lemma_lambda_uniform_to_linear():
    f, g = uniform_1d(), linear_1d()
    rep = check_lemma_lambda(f, g, monotone_map(f, g))
    assert rep.passed
    assert rep.constant_used == pytest.approx(10.0 / 3.0)


@pytest.mark.parametrize("seed", range(6))
def test_quadratic_inequality_random_logconcave(seed):
    rng = np.random.default_rng(1000 + seed)
    grid = unit_cube_grid(1, 256)
    f = build_density(random_logconcave_spec_1d(rng), grid)
    g = build_density(random_logconcave_spec_1d(rng), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    tmap = monotone_map(f, g)
    assert check_prop_quadratic(f, g, ratio, tmap).passed
    assert check_lemma_lambda(f, g, tmap).passed


def test_segment_bound_gaussian():
    grid = unit_cube_grid(1, 512)
    rho = build_density(RestrictedGaussian((0.3,), ((6.0,),)), grid)
    ratio = estimate_axis_convexity_ratio(rho)
    rep = check_segment_bound(rho, ratio, 0.2, 0.7)
    assert rep.passed
    # lhs is the actual segment mass
    centers = grid.axis_centers(0)
    inside = (centers >= 0.2) & (centers <= 0.7)
    approx_mass = rho.values[inside].sum() * grid.h
    assert rep.lhs == pytest.approx(approx_mass, rel=1e-2)


def test_segment_bound_sharp_for_uniform():
    # flat density on [a, b] = whole interval: mass = 1, bound = (R/2)(1+1) = 1
    rho = uniform_1d(64)
    rep = check_segment_bound(rho, 1.0, 0.0, 1.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a, b", [(-0.1, 0.5), (0.5, 0.5), (0.2, 1.1)])
def test_segment_bound_needs_a_segment_of_the_unit_interval(a, b):
    rho = build_density(Uniform(), unit_cube_grid(1, 16))
    with pytest.raises(DensityError, match="need 0 <= a < b <= 1"):
        check_segment_bound(rho, 1.0, a, b)


@pytest.mark.parametrize("f_grid, g_grid", [(unit_cube_grid(1, 8), unit_cube_grid(1, 9)),
                                            (unit_cube_grid(2, 8), unit_cube_grid(2, 8))],
                         ids=["m-8-9", "2d"])
def test_1d_checks_need_one_1d_grid(f_grid, g_grid):
    # the map of f onto itself leaves the pair to the check's own guard
    f, g = build_density(Uniform(), f_grid), build_density(Uniform(), g_grid)
    with pytest.raises(DensityError, match="must share the same 1d grid"):
        check_prop_quadratic(f, g, 1.0, knothe_map(f, f))


@pytest.mark.parametrize("check", [lambda f, g, t: check_prop_quadratic(f, g, 1.0, t),
                                   check_lemma_lambda], ids=["prop-2.1", "lem-2.2"])
def test_1d_checks_reject_a_map_of_another_grid(check):
    # an 8-cell map on a 16-cell pair once read a prop-2.1 lhs of 0.03247
    # against the pair's own 0.03312, and both rows passed
    t8 = monotone_map(uniform_1d(8), linear_1d(8))
    with pytest.raises(DensityError, match="map and density grids differ"):
        check(uniform_1d(16), linear_1d(16), t8)


def test_cheeger_lambda_sine_test_function():
    grid = unit_cube_grid(1, 512)
    rho = uniform_1d(512)
    u = np.sin(np.pi * grid.axis_nodes(0))
    rep = check_cheeger_lambda(rho, 1.0, u)
    assert rep.passed
    assert rep.constant_used == pytest.approx(4.0 / 3.0)
    # |u| <= 1 so the left side is integral sin^2 = 1/2; the right side
    # caps the slope cost at |u'| where pi |cos(pi x)| > 1:
    #   integral min(pi |cos|, pi^2 cos^2) dx
    #     = (2/pi) (pi sin c + pi^2 (pi/4 - c/2 - sin(2c)/4)),  c = arccos(1/pi)
    c = np.arccos(1.0 / np.pi)
    slope_integral = (2.0 / np.pi) * (
        np.pi * np.sin(c) + np.pi**2 * (np.pi / 4.0 - c / 2.0 - np.sin(2.0 * c) / 4.0))
    assert rep.lhs == pytest.approx(0.5, abs=2e-3)
    assert rep.rhs == pytest.approx((4.0 / 3.0) * slope_integral, rel=5e-3)


def test_cheeger_requires_vanishing_endpoints():
    grid = unit_cube_grid(1, 64)
    rho = uniform_1d(64)
    u = np.ones(65)
    with pytest.raises(ValueError):
        check_cheeger_lambda(rho, 1.0, u)


@pytest.mark.parametrize("seed", range(4))
def test_cheeger_random_test_functions(seed):
    rng = np.random.default_rng(40 + seed)
    grid = unit_cube_grid(1, 256)
    rho = build_density(random_logconcave_spec_1d(rng), grid)
    ratio = estimate_axis_convexity_ratio(rho)
    u = random_node_test_function(rng, grid)
    assert check_cheeger_lambda(rho, ratio, u).passed


# ---------------------------------------------------------------- properties


@given(a=st.floats(min_value=0.0, max_value=0.45),
       width=st.floats(min_value=0.05, max_value=0.5),
       tilt=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=25, deadline=None)
def test_segment_bound_holds_for_tilts(a, width, tilt):
    grid = unit_cube_grid(1, 128)
    rho = build_density(ExponentialTilt((tilt,)), grid)
    ratio = estimate_axis_convexity_ratio(rho)
    rep = check_segment_bound(rho, ratio, a, min(a + width, 1.0))
    assert rep.passed


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=20, deadline=None)
def test_deficit_never_exceeds_entropy(seed):
    # the deficit drops the nonnegative integrand gap, so it sits below
    # the relative entropy for any smooth positive pair
    rng = np.random.default_rng(seed)
    grid = unit_cube_grid(1, 256)
    f = build_density(random_logconcave_spec_1d(rng), grid)
    g = build_density(random_logconcave_spec_1d(rng), grid)
    tmap = monotone_map(f, g)
    deficit = tire_bracket(f, g, tmap)
    entropy = relative_entropy(g, f)
    assert deficit <= entropy + 5e-3
    assert displacement_cost(tmap, f) >= 0.0


positive_cells = st.floats(min_value=1e-3, max_value=1e3)


@given(pair=st.integers(min_value=1, max_value=64).flatmap(
    lambda m: st.tuples(st.lists(positive_cells, min_size=m, max_size=m),
                        st.lists(positive_cells, min_size=m, max_size=m))))
@settings(max_examples=100, deadline=None)
def test_functionals_match_piece_walk(pair):
    grid = unit_cube_grid(1, len(pair[0]))
    f, g = (GridDensity(grid, np.array(v)) for v in pair)
    tmap = monotone_map(f, g)
    deficit, cost, mixed = loop_oracles.monotone_map_integrals(f.values, g.values, grid)
    assert tire_bracket(f, g, tmap) == pytest.approx(deficit, rel=1e-12, abs=0.0)
    assert displacement_cost(tmap, f) == pytest.approx(cost, rel=1e-12, abs=0.0)
    assert check_lemma_lambda(f, g, tmap).lhs == pytest.approx(mixed, rel=1e-12, abs=0.0)
