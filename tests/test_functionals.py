"""Entropy, Legendre bound, exact quadratic coupling, triangular coupling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import loop_oracles
from cube_transport import (
    ConvexPower,
    DensityError,
    ExponentialTilt,
    GridDensity,
    Uniform,
    build_density,
    check_tire_le_entropy,
    check_transport_entropy_sandwich,
    displacement_cost,
    estimate_axis_convexity_ratio,
    exact_w2_small,
    knothe_map,
    legendre_tire_bound,
    monotone_map,
    normalize,
    quadratic_cost_1d,
    relative_entropy,
    tire_bracket,
    triangular_coupling,
    triangular_coupling_cost,
    unit_cube_grid,
)
from cube_transport.families import (random_logconcave_spec_1d, random_logconcave_spec_nd,
                                     random_smooth_density)


# ---------------------------------------------------------------- entropy


def test_entropy_zero_on_equal():
    d = build_density(ExponentialTilt((0.8,)), unit_cube_grid(1, 64))
    assert relative_entropy(d, d) == 0.0


def test_entropy_closed_form_linear_target():
    f = build_density(Uniform(), unit_cube_grid(1, 2048))
    g = build_density(ConvexPower(0.0, (2.0,), 1.0), unit_cube_grid(1, 2048))
    assert relative_entropy(g, f) == pytest.approx(np.log(2.0) - 0.5, abs=1e-3)


def test_entropy_nonnegative_random():
    rng = np.random.default_rng(31)
    grid = unit_cube_grid(2, 16)
    for _ in range(10):
        f = normalize(GridDensity(grid, rng.uniform(0.1, 3.0, grid.shape)))
        g = normalize(GridDensity(grid, rng.uniform(0.1, 3.0, grid.shape)))
        assert relative_entropy(g, f) >= 0.0


def test_entropy_infinite_off_support():
    grid = unit_cube_grid(1, 4)
    f = normalize(GridDensity(grid, np.array([1.0, 1.0, 0.0, 0.0])))
    g = normalize(GridDensity(grid, np.array([0.0, 1.0, 1.0, 0.0])))
    assert relative_entropy(g, f) == np.inf
    # cells where the numerator vanishes contribute nothing
    h = normalize(GridDensity(grid, np.array([1.0, 1.0, 1.0, 1.0])))
    assert np.isfinite(relative_entropy(f, h))
    assert relative_entropy(f, h) == pytest.approx(np.log(2.0), abs=1e-12)


def test_entropy_requires_normalized():
    grid = unit_cube_grid(1, 4)
    f = GridDensity(grid, np.full(4, 2.0))
    g = normalize(GridDensity(grid, np.ones(4)))
    with pytest.raises(ValueError):
        relative_entropy(f, g)


# ---------------------------------------------------------------- legendre


def test_legendre_zero_for_identity():
    f = build_density(Uniform(), unit_cube_grid(1, 128))
    assert legendre_tire_bound(f, f) == pytest.approx(0.0, abs=1e-9)


def test_legendre_dominates_tire_1d():
    rng = np.random.default_rng(41)
    grid = unit_cube_grid(1, 128)
    for _ in range(6):
        f = build_density(random_logconcave_spec_1d(rng, 0.0, 1.0), grid)
        g = build_density(random_logconcave_spec_1d(rng, 0.0, 1.0), grid)
        tmap = knothe_map(f, g)
        assert legendre_tire_bound(f, g) >= tire_bracket(f, g, tmap) - 1e-6


def test_legendre_dominates_tire_2d():
    rng = np.random.default_rng(42)
    grid = unit_cube_grid(2, 12)
    for _ in range(3):
        f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
        g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
        assert legendre_tire_bound(f, g) >= tire_bracket(f, g) - 1e-6


# ---------------------------------------------------------------- exact W2


def test_w2_zero_on_equal():
    rng = np.random.default_rng(50)
    grid = unit_cube_grid(2, 6)
    d = normalize(GridDensity(grid, rng.uniform(0.2, 2.0, grid.shape)))
    w2sq, plan = exact_w2_small(d, d)
    assert w2sq == pytest.approx(0.0, abs=1e-12)
    masses = (d.values * grid.cell_volume).ravel()
    assert plan.marginal_error(masses, masses) < 1e-12


def test_w2_two_cell_hand_value():
    # all mass moves one cell to the right: squared distance h^2 = 1/4
    grid = unit_cube_grid(1, 2)
    f = GridDensity(grid, np.array([2.0, 0.0]))
    g = GridDensity(grid, np.array([0.0, 2.0]))
    w2sq, plan = exact_w2_small(f, g)
    assert w2sq == pytest.approx(0.25, abs=1e-12)
    assert plan.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_w2_plan_marginals_match_masses():
    rng = np.random.default_rng(51)
    grid = unit_cube_grid(2, 5)
    f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
    g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
    w2sq, plan = exact_w2_small(f, g)
    assert w2sq > 0.0
    fm = (f.values * grid.cell_volume).ravel()
    gm = (g.values * grid.cell_volume).ravel()
    assert plan.marginal_error(fm, gm) < 1e-9
    src = np.bincount(plan.source_index, weights=plan.weights, minlength=25)
    np.testing.assert_allclose(src, fm, atol=1e-9)


def test_w2_respects_cell_cap():
    grid = unit_cube_grid(2, 80)  # 6400 cells > 4096
    d = build_density(Uniform(), grid)
    with pytest.raises(ValueError):
        exact_w2_small(d, d)


def test_w2_symmetric():
    rng = np.random.default_rng(52)
    grid = unit_cube_grid(1, 40)
    f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 40)))
    g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 40)))
    ab, _ = exact_w2_small(f, g)
    ba, _ = exact_w2_small(g, f)
    assert ab == pytest.approx(ba, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------- couplings


def test_triangular_coupling_marginals_exact():
    rng = np.random.default_rng(60)
    fm = rng.uniform(0.1, 1.0, 12)
    fm /= fm.sum()
    gm = rng.uniform(0.1, 1.0, 12)
    gm /= gm.sum()
    src, tgt, w = triangular_coupling(fm, gm)
    np.testing.assert_allclose(np.bincount(src, weights=w, minlength=12), fm, atol=1e-12)
    np.testing.assert_allclose(np.bincount(tgt, weights=w, minlength=12), gm, atol=1e-12)
    assert np.all(w > 0.0)


def test_triangular_coupling_is_monotone_1d():
    # in one dimension the rule is the monotone rearrangement, which is
    # the optimal quadratic coupling; check against the LP oracle
    rng = np.random.default_rng(61)
    grid = unit_cube_grid(1, 32)
    f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 32)))
    g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, 32)))
    lp, _ = exact_w2_small(f, g)
    tri = triangular_coupling_cost(f, g)
    assert tri == pytest.approx(lp, rel=1e-10, abs=1e-12)


def test_triangular_cost_at_least_lp_2d():
    rng = np.random.default_rng(62)
    grid = unit_cube_grid(2, 7)
    for _ in range(5):
        f = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
        g = normalize(GridDensity(grid, rng.uniform(0.1, 1.0, grid.shape)))
        lp, _ = exact_w2_small(f, g)
        tri = triangular_coupling_cost(f, g)
        assert lp <= tri + 1e-10


def test_triangular_identity_coupling_costs_nothing():
    grid = unit_cube_grid(2, 6)
    d = build_density(Uniform(), grid)
    assert triangular_coupling_cost(d, d) == pytest.approx(0.0, abs=1e-14)


def _assert_same_triples(got, want):
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _masses(d):
    return d.cell_masses().reshape(d.grid.shape)


@pytest.mark.parametrize("dim,m", [(1, 256), (2, 64), (2, 512), (3, 16), (4, 8)])
def test_triangular_coupling_equals_loop_oracle(dim, m):
    # seeded pairs like the benchmark's (log-concave source, smooth target)
    # plus the product anchor; (2, 512) spans several batches of fibers
    rng = np.random.default_rng([dim, m])
    grid = unit_cube_grid(dim, m)
    pairs = [(build_density(Uniform(), grid),
              normalize(GridDensity(grid, np.prod(np.stack(grid.centers_mesh()), axis=0))))]
    for _ in range(2):
        pairs.append((build_density(random_logconcave_spec_nd(rng, dim, grid.origin, grid.side),
                                    grid),
                      random_smooth_density(rng, grid, amplitude=0.5)))
    for f, g in pairs:
        a, b = _masses(f), _masses(g)
        _assert_same_triples(triangular_coupling(a, b), loop_oracles.triangular_coupling(a, b))


def test_triangular_coupling_midpoint_on_adjacent_doubles():
    # cumulative masses 0.5 and 0.5 + 2^-53 are adjacent doubles: their
    # midpoint rounds onto 0.5, so the atom between them goes to cells (0, 0)
    u = 2.0 ** -53
    a = np.array([0.5, 0.5])
    b = np.array([0.5 + u, 0.5 - u])
    assert (0.5 + (0.5 + u)) / 2.0 == 0.5
    got = triangular_coupling(a, b)
    _assert_same_triples(got, loop_oracles.northwest_coupling(a, b))
    _assert_same_triples(got, (np.array([0, 0, 1]), np.array([0, 0, 1]),
                               np.array([0.5, u, 0.5 - u])))


@st.composite
def mass_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=6))
    cell = st.one_of(st.integers(min_value=0, max_value=3).map(float),
                     st.floats(min_value=1e-6, max_value=1.0))
    cells = st.lists(cell, min_size=m ** dim, max_size=m ** dim)
    a = np.array(draw(cells)).reshape((m,) * dim)
    b = np.array(draw(cells)).reshape((m,) * dim)
    assume(a.sum() > 0 and b.sum() > 0)
    if draw(st.booleans()):  # bitwise-equal totals, so many cumulative masses tie
        return a * b.sum(), b * a.sum()
    return a / a.sum(), b / b.sum()


@given(pair=mass_pairs())
@settings(max_examples=200, deadline=None)
def test_triangular_coupling_equals_loop_oracle_property(pair):
    a, b = pair
    _assert_same_triples(triangular_coupling(a, b), loop_oracles.triangular_coupling(a, b))


@pytest.mark.parametrize("a,b", [
    (np.full((4, 4), 1 / 16), np.full((4, 5), 1 / 20)),  # shapes differ
    (np.full(4, 0.25), np.full(4, 0.1)),  # totals 1.0 and 0.4
    (np.full((4, 4), 1 / 16), np.full(16, 1 / 16)),  # ndims differ
    (np.array([0.5, np.nan]), np.array([0.5, 0.5])),
    (np.array([1.5, -0.5]), np.array([0.5, 0.5])),
    (np.zeros(3), np.zeros(3)),
    (np.float64(1.0), np.float64(1.0)),
])
def test_triangular_coupling_rejects_bad_masses(a, b):
    with pytest.raises(DensityError):
        triangular_coupling(a, b)


# ---------------------------------------------------------------- inequalities


def test_tire_le_entropy_anchor():
    f = build_density(Uniform(), unit_cube_grid(1, 512))
    g = build_density(ConvexPower(0.0, (2.0,), 1.0), unit_cube_grid(1, 512))
    rep = check_tire_le_entropy(f, g)
    assert rep.passed
    assert rep.rhs == pytest.approx(np.log(2.0) - 0.5, abs=1e-3)


def test_sandwich_reports_three_links():
    rng = np.random.default_rng(70)
    grid = unit_cube_grid(2, 8)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    reps = check_transport_entropy_sandwich(f, g, ratio)
    names = [r.name for r in reps]
    assert names == ["sandwich-w2-knothe", "thm-4.2", "sandwich-knothe-entropy"]
    assert all(r.passed for r in reps)


@pytest.mark.parametrize("seed", range(6))
def test_sandwich_random_pairs(seed):
    rng = np.random.default_rng(700 + seed)
    grid = unit_cube_grid(2, 8)
    f = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    g = build_density(random_logconcave_spec_nd(rng, 2, grid.origin, grid.side), grid)
    ratio = max(estimate_axis_convexity_ratio(f), estimate_axis_convexity_ratio(g))
    assert all(r.passed for r in check_transport_entropy_sandwich(f, g, ratio))


# ---------------------------------------------------------------- properties


@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None)
def test_monotone_cost_at_least_w2_1d(seed):
    # the 1d monotone map is optimal in the continuum; on the grid the
    # atomized LP optimum stays below the triangular atom coupling
    rng = np.random.default_rng(seed)
    grid = unit_cube_grid(1, 24)
    f = build_density(random_logconcave_spec_1d(rng, 0.0, 1.0), grid)
    g = build_density(random_logconcave_spec_1d(rng, 0.0, 1.0), grid)
    lp, _ = exact_w2_small(f, g)
    tri = triangular_coupling_cost(f, g)
    assert lp <= tri + 1e-12
