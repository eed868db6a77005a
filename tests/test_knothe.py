"""Triangular transport on the cube: anchors, structure, pushforward."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles
from cube_transport import (
    ConvexPower,
    CustomGrid,
    DensityError,
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
    # at the source nodes; between them the 1d map is T itself, while the
    # Knothe level interpolates its node values
    nodes = fm.grid.axis_nodes(0)
    assert np.array_equal(tmap.evaluate(np.column_stack([nodes, np.full(25, 0.5)]))[:, 0],
                          base(nodes))


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
    assert tmap.grid.dim == 3
    assert tmap.displacement.shape == (8, 8, 8, 3)
    assert check_facet_preservation(tmap).passed
    assert displacement_cost(tmap, f) >= 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_degenerate_source_raises(dim):
    # a profile with a cell too light to move the CDF along axis 0 gives a
    # base map that is not strictly increasing
    grid = unit_cube_grid(dim, 4)
    profile = np.array([1.0, 1e-300, 1.0, 1.0]).reshape((4,) + (1,) * (dim - 1))
    f = GridDensity(grid, np.broadcast_to(profile, grid.shape).copy())
    with pytest.raises(DensityError, match="not strictly increasing"):
        knothe_map(f, build_density(Uniform(), grid))


@pytest.mark.parametrize("light", [1, 3])
@pytest.mark.parametrize("axis", [0, 1])
def test_target_cell_too_light_to_move_its_cdf_raises(light, axis):
    # along axis 0 the marginal map jumps, along axis 1 every fiber map
    grid = unit_cube_grid(2, 4)
    profile = np.ones(4)
    profile[light] = 1e-300
    g = GridDensity(grid, np.broadcast_to(np.expand_dims(profile, 1 - axis), grid.shape).copy())
    with pytest.raises(DensityError, match="not strictly increasing"):
        knothe_map(build_density(Uniform(), grid), g)


def probe_points(grid, rng):
    """Samples inside the cube, grid nodes, and points on and beyond the faces."""
    lattice = np.stack(np.meshgrid(*[grid.axis_nodes(a)[::max(1, grid.cells_per_axis // 8)]
                                     for a in range(grid.dim)], indexing="ij"), axis=-1)
    outside = grid.origin + grid.side * rng.uniform(-0.2, 1.2, (500, grid.dim))
    return np.concatenate([rng.uniform(0.0, 1.0, (2000, grid.dim)) * grid.side + grid.origin,
                           lattice.reshape(-1, grid.dim), outside])


def assert_equals_loop_oracle(f, g, rng):
    tmap = knothe_map(f, g)
    oracle = loop_oracles.knothe_map(f, g)
    assert np.array_equal(tmap.displacement, oracle.displacement)
    for table, nodes in zip(tmap.node_tables[::-1], _oracle_levels(oracle)):
        assert np.array_equal(table, nodes)
    pts = probe_points(f.grid, rng)
    assert np.array_equal(tmap.evaluate(pts), loop_oracles.evaluate(oracle, pts))
    return tmap, oracle


def _oracle_levels(oracle):
    while oracle is not None:
        yield np.array(oracle.fibers)
        oracle = oracle.base


@pytest.mark.parametrize("dim,m", [(1, 300), (2, 64), (3, 16), (4, 8)])
def test_knothe_map_equals_loop_oracle(dim, m):
    # seeded pairs like the benchmark's (log-concave source, smooth target),
    # the product anchor and a source onto itself: node tables, displacements
    # and evaluation are bitwise those of the per-fiber loops
    rng = np.random.default_rng([dim, m, 1])
    grid = unit_cube_grid(dim, m)
    pairs = [(build_density(Uniform(), grid),
              normalize(GridDensity(grid, np.prod(np.stack(grid.centers_mesh()), axis=0))))]
    for _ in range(2):
        pairs.append((build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side),
                                    grid),
                      random_smooth_density(rng, grid, amplitude=0.5)))
    pairs.append((pairs[-1][0], pairs[-1][0]))  # equal CDFs: every node is a tie
    for f, g in pairs:
        tmap, oracle = assert_equals_loop_oracle(f, g, rng)
        if dim == 1:
            assert np.array_equal(monotone_map(f, g)(grid.axis_nodes()), oracle.fibers[0])
        # the facet check maps all facets in one call; same worst deviation
        centers = grid.centers().reshape(grid.shape + (dim,))
        worst = 0.0
        for axis in range(dim):
            pts = np.take(centers, 0, axis=axis).reshape(-1, dim)
            for bound_value in (grid.origin[axis], grid.origin[axis] + grid.side):
                pts[:, axis] = bound_value
                out = loop_oracles.evaluate(oracle, pts)
                worst = max(worst, float(np.abs(out[:, axis] - bound_value).max()))
        assert check_facet_preservation(tmap).lhs == worst


@given(dim=st.integers(min_value=1, max_value=3), m=st.integers(min_value=2, max_value=6),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_knothe_map_equals_loop_oracle_property(dim, m, data):
    # unnormalized cell values; a zero cell must raise the oracle's error
    grid = unit_cube_grid(dim, m)
    cells = st.lists(st.one_of(st.integers(min_value=0, max_value=4).map(float),
                               st.floats(min_value=1e-3, max_value=1.0)),
                     min_size=m ** dim, max_size=m ** dim)
    f = GridDensity(grid, np.array(data.draw(cells)).reshape(grid.shape))
    g = GridDensity(grid, np.array(data.draw(cells)).reshape(grid.shape))
    try:
        loop_oracles.knothe_map(f, g)
    except DensityError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            knothe_map(f, g)
        return
    assert_equals_loop_oracle(f, g, np.random.default_rng(m))


def test_evaluate_interpolates_at_nodes_and_outside():
    # node hits, the last node and points beyond either end take np.interp's
    # branches for node values
    f, g = product_pair(8)
    tmap = knothe_map(f, g)
    x = np.array([-0.5, 0.0, 0.125, 0.3, 0.999, 1.0, 1.5])
    pts = np.column_stack([np.full(len(x), 0.3), x])
    out = tmap.evaluate(pts)
    assert np.array_equal(out, loop_oracles.evaluate(loop_oracles.knothe_map(f, g), pts))
    assert out[0, 1] == 0.0 and out[1, 1] == 0.0
    assert out[5, 1] == 1.0 and out[6, 1] == 1.0


@pytest.mark.parametrize("pts", [
    np.array([[0.5, np.nan]]),
    np.array([[np.inf, 0.5]]),
    np.array([[0.5, 0.5, 0.5]]),
    np.array([0.5, 0.5, 0.5]),
    np.zeros((2, 2, 2)),
])
def test_evaluate_rejects_bad_points(pts):
    f, g = product_pair(8)
    with pytest.raises(DensityError):
        knothe_map(f, g).evaluate(pts)


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
